// Shard replication and migration — the two data-movement protocols of the
// cluster.
//
// ReplicationLink is the primary's handle to its warm-standby backup. The
// primary's ingest tap calls mirror() BEFORE the local apply, inside the
// ingest RPC handler, so the caller's ack means "applied on primary AND
// backup" — synchronous replication, which is what makes kill-one-shard
// lose no acknowledged reading. The initial sync (syncFrom) runs under the
// service's pauseIngest() window: with ingest quiesced the export is a
// consistent cut, every earlier reading is in it and every later reading
// flows through the live mirror — no sequence numbers needed.
//
// HandoffSession is the LOSING owner's side of one migration: a ring join
// or planned drain (arc coverage) or a territory migration (object-set
// coverage), all driven through the one id-keyed migrate.* protocol below.
// Its filter() sits in the same ingest tap and consumes the readings of the
// objects it covers: buffered while the gainer replays the exported logs,
// then (after flush()) forwarded synchronously. Per-object order at the
// gainer is export, then buffered FIFO, then forwarded FIFO — exact,
// because the buffer drain and the mode switch happen under one session
// lock, each session serializes its forwards, and the session is installed
// under pauseIngest() so no reading is ever half-applied on the losing
// side. ShardHost owns the sessions: it keys them by id, shares one peer
// connection per gainer among them, and retires each into a tombstone a
// bounded straggler window after migrate.end (shard_host.hpp).
//
// Failure policy (both): a dead peer marks the link/session failed, counts
// and warns, and the local service keeps serving — availability over
// durability, the same contract as the router's dropped-ingest accounting.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "cluster/shard_map.hpp"
#include "core/remote.hpp"
#include "core/remote_registry.hpp"
#include "spatialdb/database.hpp"
#include "util/bytes.hpp"

namespace mw::cluster {

/// Primary-side synchronous mirror to one backup.
class ReplicationLink {
 public:
  /// `client` must be connected to the backup's LocationService endpoint.
  ReplicationLink(std::string backupName, std::shared_ptr<core::RemoteLocationClient> client);

  [[nodiscard]] const std::string& backupName() const noexcept { return backupName_; }
  /// Initial sync completed; mirror() forwards.
  [[nodiscard]] bool live() const noexcept { return live_.load(std::memory_order_acquire); }
  /// The backup stopped answering; the link is abandoned (the owner tears
  /// it down and may rebuild one when the backup re-announces).
  [[nodiscard]] bool dead() const noexcept { return dead_.load(std::memory_order_acquire); }

  /// Replays every object's stored log to the backup, then goes live. MUST
  /// run under the service's pauseIngest() window (see file header); the
  /// live_ flip is only safe because no ingest is in flight across it.
  /// Returns false (and marks the link dead) when the backup fails mid-sync.
  bool syncFrom(db::SpatialDatabase& db);

  /// Mirrors one batch to the backup (no-op unless live). Called from the
  /// ingest tap before the local apply; blocking here is what delays the
  /// ack until the backup has the readings.
  void mirror(std::span<const db::SensorReading> batch);

  [[nodiscard]] std::uint64_t mirroredReadings() const noexcept {
    return mirroredReadings_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t syncedReadings() const noexcept {
    return syncedReadings_.load(std::memory_order_relaxed);
  }
  /// Mirror/sync calls that failed (the batch was applied locally anyway).
  [[nodiscard]] std::uint64_t failures() const noexcept {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  void markDead(const char* what);

  const std::string backupName_;
  const std::shared_ptr<core::RemoteLocationClient> client_;
  /// Serializes wire sends so the backup applies batches in mirror order.
  std::mutex sendMutex_;
  std::atomic<bool> live_{false};
  std::atomic<bool> dead_{false};
  std::atomic<std::uint64_t> mirroredReadings_{0};
  std::atomic<std::uint64_t> syncedReadings_{0};
  std::atomic<std::uint64_t> failures_{0};
};

/// Losing-owner side of one migrate.* session. Coverage is either ring
/// ARCS (a join's or drain's key ranges — any object hashing into them,
/// present or future) or an explicit OBJECT SET (a territory migration's
/// residents — exactly the objects whose logs are being exported). Both run
/// the same buffer-then-forward protocol.
class HandoffSession {
 public:
  /// Arc coverage when `arcs` is non-empty, else object-set coverage
  /// (ShardHost installs no session that covers nothing). `gainer` must be
  /// connected to the gaining shard's service endpoint; `gainerToken` names
  /// the gainer in logs and in the tombstone the session retires into.
  HandoffSession(std::string gainerToken, std::vector<RingArc> arcs,
                 std::vector<util::MobileObjectId> objects,
                 std::shared_ptr<core::RemoteLocationClient> gainer);

  /// Does this session cover the object (arc containment or set membership,
  /// minus any removed objects)?
  [[nodiscard]] bool covers(const util::MobileObjectId& object) const;

  /// Excludes objects from this session's coverage from now on — a later
  /// migration taking an object away from the gaining side must stop this
  /// session from eating the object's readings. Readings of those objects
  /// still buffered (the session was abandoned before its flush) were acked
  /// by this host and reach the gainer no more: they are moved to the end
  /// of `reclaimed` in arrival order, for the caller to apply here. Call
  /// only while ingest is paused (no filter() in flight). Returns true when
  /// this emptied an object set that was not empty: the session then moves
  /// nothing more.
  bool removeObjects(std::span<const util::MobileObjectId> objects,
                     std::vector<db::SensorReading>& reclaimed);

  /// Tap fragment: removes and consumes the readings this session covers
  /// (buffered before flush(), forwarded after), returns the rest.
  [[nodiscard]] std::vector<db::SensorReading> filter(std::vector<db::SensorReading> batch);

  /// Drains the buffer to the gainer and switches to live forwarding —
  /// atomically, under the session lock, so no reading can slip between
  /// the drained buffer and the forward stream. Returns false when the
  /// gainer connection died; buffered readings are kept for a retry.
  bool flush();

  [[nodiscard]] bool forwarding() const noexcept {
    return forwarding_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const std::string& gainerToken() const noexcept { return gainerToken_; }
  [[nodiscard]] const std::vector<RingArc>& arcs() const noexcept { return arcs_; }
  /// The object set still covered (empty in arc mode).
  [[nodiscard]] std::vector<util::MobileObjectId> objects() const;

 private:
  const std::string gainerToken_;
  const std::vector<RingArc> arcs_;
  /// Object-set coverage (empty in arc mode) and the objects removed from
  /// arc coverage. Guarded by coverMutex_: reads are per-reading on the
  /// ingest path (shared), removeObjects is rare and runs under an ingest
  /// pause (exclusive).
  mutable std::shared_mutex coverMutex_;
  std::unordered_set<util::MobileObjectId> objects_;
  std::unordered_set<util::MobileObjectId> removed_;
  const std::shared_ptr<core::RemoteLocationClient> gainer_;
  /// Guards buffer_ + the buffering->forwarding switch, and serializes
  /// forwards so the gainer sees them in consume order.
  std::mutex mutex_;
  std::vector<db::SensorReading> buffer_;
  std::atomic<bool> forwarding_{false};
};

// --- the migrate.* wire protocol ----------------------------------------------
//
//   migrate.begin(MigrateBegin)       -> (session id, objects)  losing shard
//   migrate.adopt(objects)            -> true                   gaining shard
//   migrate.flush(session id)         -> ok                     losing shard
//   migrate.end(session id)           -> ok                     losing shard
//
// A router-driven migration calls adopt twice: before the flush (the gainer
// prunes stale sessions of the objects) and between flush and end (the
// gainer recounts its density rules for them, before the loser drops them).
// A ring drain calls it once, between flush and end; a ring join recounts
// on the joiner directly.

/// Text of the error a shard replies to an ingest for an object that a
/// retired migration session moved away: the sender routed by a stale map
/// and should refresh it and route again (ClusterLocationService does).
inline constexpr std::string_view kMovedError = "migrate: moved";

/// migrate.begin's request: where to forward, and what the session covers —
/// ring arcs, or an object set plus the rects whose resident objects the
/// loser adds to it.
struct MigrateBegin {
  std::string gainerToken;
  core::Endpoint gainer;
  std::vector<RingArc> arcs;
  std::vector<util::MobileObjectId> objects;
  std::vector<geo::Rect> rects;
};
/// migrate.begin's reply: the session id and every object the session moves.
struct MigrateSession {
  std::uint64_t id = 0;
  std::vector<util::MobileObjectId> objects;
};

// Codec. Decoders throw util::ParseError on truncation, on a count larger
// than the bytes left could hold, and on trailing bytes.
[[nodiscard]] util::Bytes encodeMigrateBegin(const MigrateBegin& request);
[[nodiscard]] MigrateBegin decodeMigrateBegin(const util::Bytes& bytes);
[[nodiscard]] util::Bytes encodeMigrateSession(const MigrateSession& session);
[[nodiscard]] std::vector<util::MobileObjectId> decodeObjects(const util::Bytes& bytes);
[[nodiscard]] std::uint64_t decodeSessionId(const util::Bytes& bytes);

// Client side, for the shard or router driving a migration. Each throws what
// the call throws; flush and end return the losing shard's verdict.
[[nodiscard]] MigrateSession migrateBegin(orb::RpcClient& loser, const MigrateBegin& request);
void migrateAdopt(orb::RpcClient& gainer, std::span<const util::MobileObjectId> objects);
[[nodiscard]] bool migrateFlush(orb::RpcClient& loser, std::uint64_t id);
[[nodiscard]] bool migrateEnd(orb::RpcClient& loser, std::uint64_t id);

}  // namespace mw::cluster
