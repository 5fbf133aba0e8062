// One shard of the location-service cluster: a full Middlewhere core (its
// own spatial database, LocationService and concurrent RpcServer) listening
// on its own TCP port, announced in the RegistryServer under
// "location.shard.<i>/<N>" (modulo mode) or "location.ring.<token>" (ring
// mode) with a TTL heartbeat.
//
// Lifecycle: construct, configure the world through core() (regions,
// sensors — the same setup every shard of a cluster must share so fused
// answers match the single-process oracle), then start(). start() binds the
// port, announces, and spawns the heartbeat thread that re-announces every
// heartbeatPeriod so the registry entry outlives its TTL exactly as long as
// the process does; a crashed shard stops heartbeating and expires from
// list(). stop() (also run by the destructor) halts the heartbeat and
// withdraws the entry.
//
// Replication (replication.hpp): a host started with Role::Backup announces
// "<primaryName>.backup" and keeps a warm standby — the primary discovers
// it in its heartbeat tick, syncs its store across and then mirrors every
// ingest batch through its tap BEFORE the local apply, so an acked reading
// exists on both sides. The backup watches the primary's registry entry;
// when the TTL downs it, the backup promotes: it claims the primary name
// under the last seen generation + 1 (the registry's fence), withdraws its
// backup entry and serves as the primary from then on. A slow-but-alive old
// primary's next heartbeat is rejected by the fence — it demotes (stops
// claiming) instead of flapping ownership back.
//
// Migration: every move of objects between shards — a ring join
// (joinRing/completeJoin), a planned drain (leaveRing) and a router's
// territory migration — runs one id-keyed protocol, migrate.{begin,adopt,
// flush,end} (replication.hpp). begin installs a session on the losing
// host, whose tap then buffers the covered objects' readings; the driver
// copies the logs across, flush drains the buffer into live forwarding, the
// driver has the gainer recount the moved objects (migrate.adopt), and end
// drops them here through LocationService::dropObjects. A session keeps forwarding
// stragglers for kStragglerWindow after end; then the heartbeat tick (or
// the next begin on a host without one) retires it into a tombstone, which
// keeps only its coverage and gainer token. An ingest for a tombstoned
// object is refused with kMovedError, never stored here: the sender routed
// by a stale map. A ring tombstone lapses once its gainer has left the ring;
// an object tombstone once the object is adopted back. All sessions to one
// gainer share one peer connection, so threads and descriptors grow with
// the number of peers, not of migrations.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/replication.hpp"
#include "cluster/shard_map.hpp"
#include "core/middlewhere.hpp"
#include "core/remote_registry.hpp"
#include "orb/shm.hpp"

namespace mw::cluster {

/// Registry-name suffix a backup announces under: "<primaryName>.backup".
inline constexpr const char* kBackupSuffix = ".backup";

/// How long an ended migration session keeps forwarding stragglers before
/// it is retired. A straggler is an ingest a router sent to the old owner
/// before its flip; under the default RetryPolicy it is retried for at most
/// 3 attempts x 2 s callDeadline plus 10 + 20 ms of backoff, about 6 s, so 8 s
/// outlasts every retry with margin. Later ingests by a stale map (a ring
/// router that has not refreshed since the change) meet the tombstone and
/// are refused, not stored.
inline constexpr std::chrono::seconds kStragglerWindow{8};

class ShardHost {
 public:
  enum class Role { Primary, Backup };

  struct Options {
    std::size_t index = 0;  ///< this shard's slot, < total (modulo mode)
    std::size_t total = 1;  ///< cluster width N (modulo mode)
    std::uint16_t port = 0;  ///< service port (0 = ephemeral)
    /// Registry-entry TTL; zero disables expiry (and the heartbeat thread).
    util::Duration announceTtl = util::sec(2);
    /// Re-announce period; must undercut the TTL with margin.
    util::Duration heartbeatPeriod = util::msec(500);
    /// Also listen on a shared-memory ring (orb::ShmListener) and announce
    /// its name, so colocated routers skip the TCP loopback hop. Ignored
    /// (with a warning) when POSIX shm is unavailable on the host.
    bool enableShm = true;
    /// Consistent-hash-ring member token; when set the shard announces as
    /// "location.ring.<token>" instead of "location.shard.<i>/<N>".
    std::string ringToken;
    /// Spatial-partitioning member token; when set the shard announces as
    /// "location.space.<token>" and its objects move by territory
    /// (territory_map.hpp). Mutually exclusive with ringToken.
    std::string spaceToken;
    /// Primary serves and (when a backup announces) replicates; Backup
    /// keeps the warm standby and promotes on the primary's TTL expiry.
    Role role = Role::Primary;
    /// Fencing generation the primary name is announced under (see
    /// remote_registry.hpp); backups promote with lastSeen + 1.
    std::uint64_t generation = 1;
    /// start() binds and serves but does not announce — joinRing() will,
    /// after the handoff sessions are in place. Ring joiners only.
    bool deferAnnounce = false;
    /// Territory-aware backup placement (placement.hpp): what a spatial
    /// primary does when the announced backup shares a host with one of its
    /// territory neighbours. Permissive warns, counts the conflict and
    /// replicates anyway (single-host test clusters are all colocated);
    /// Strict refuses the link until a better-placed backup announces.
    /// Only consulted when spaceToken is set and a territory map is
    /// published.
    enum class BackupPlacement { Permissive, Strict };
    BackupPlacement backupPlacement = BackupPlacement::Permissive;
  };

  /// Builds the core (not yet listening) and connects to the registry.
  /// Throws util::TransportError when the registry is unreachable.
  ShardHost(const util::Clock& clock, geo::Rect universe, const std::string& rootFrame,
            const std::string& registryHost, std::uint16_t registryPort, Options options);
  ~ShardHost();

  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  /// The shard's own middleware stack; configure the world here before
  /// start().
  [[nodiscard]] core::Middlewhere& core() noexcept { return *core_; }

  /// The name this host announced at start (primary name, or
  /// "<primaryName>.backup" for a backup — promotion does not change it).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// The primary serving name this host serves or stands by for.
  [[nodiscard]] const std::string& primaryName() const noexcept { return primaryName_; }
  [[nodiscard]] Role role() const noexcept { return role_.load(std::memory_order_acquire); }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }
  /// Bound service port; valid after start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// The announced shared-memory lane name; empty when the shm listener is
  /// disabled or unavailable. Valid after start().
  [[nodiscard]] const std::string& shmName() const noexcept { return shmName_; }
  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Heartbeats that failed to reach the registry (logged at warn).
  [[nodiscard]] std::uint64_t heartbeatFailures() const noexcept {
    return heartbeatFailures_.load(std::memory_order_relaxed);
  }

  /// Cumulative load this shard has carried — what a balancer polls (also
  /// served over the wire as "territory.stats") to find hot and cold shards.
  /// Counters are since-start; poll twice and diff for rates.
  struct LoadStats {
    std::uint64_t ingestedReadings = 0;  ///< live readings applied
    std::uint64_t importedReadings = 0;  ///< handoff/replication replays
    std::uint64_t regionQueries = 0;     ///< region-based pull queries served
    std::uint64_t residentObjects = 0;   ///< mobile objects with stored readings
  };
  [[nodiscard]] LoadStats loadStats() const;

  // --- replication observability ---------------------------------------------

  /// The live replication link to this primary's backup (null when none).
  [[nodiscard]] std::shared_ptr<ReplicationLink> replicationLink() const;
  /// Migration sessions installed here and not yet retired.
  [[nodiscard]] std::size_t migrationSessions() const;
  /// Entries (objects plus ring arcs) retired sessions left refusing ingest.
  [[nodiscard]] std::size_t tombstones() const;
  /// Backup->primary promotions this host performed.
  [[nodiscard]] std::uint64_t promotions() const noexcept {
    return promotions_.load(std::memory_order_relaxed);
  }
  /// The registry fenced this host off its primary name: a successor
  /// promoted. The host stops claiming (it no longer owns the name).
  [[nodiscard]] bool fenced() const noexcept { return fenced_.load(std::memory_order_acquire); }
  /// Heartbeat announces rejected by the fence.
  [[nodiscard]] std::uint64_t fencedHeartbeats() const noexcept {
    return fencedHeartbeats_.load(std::memory_order_relaxed);
  }
  /// Announced backups that failed the territory-aware placement check
  /// (shared a host with a territory neighbour); counted in both placement
  /// modes, refused only under Strict.
  [[nodiscard]] std::uint64_t placementConflicts() const noexcept {
    return placementConflicts_.load(std::memory_order_relaxed);
  }

  /// Binds the service port, announces the shard (unless deferAnnounce),
  /// starts heartbeating.
  void start();
  /// Stops the heartbeat and withdraws the registry entry (best effort —
  /// a dead registry cannot be withdrawn from, but the TTL cleans up).
  void stop();

  // --- ring membership --------------------------------------------------------

  /// Ring mode, after start() with deferAnnounce: computes the arcs this
  /// shard's token claims from the currently announced members, begins a
  /// migration session on every losing owner (their taps buffer those arcs'
  /// readings from this moment), then announces this shard and starts the
  /// heartbeat. Routers that refresh now see the new ring and should keep a
  /// dual-read window open until completeJoin() has run.
  void joinRing();
  /// Streams every affected object's reading log from the losing owners,
  /// applies them locally, then flushes each session (buffer drain + switch
  /// to live forwarding) and ends it (the loser drops the moved objects).
  void completeJoin();

  /// Planned drain — the inverse of joinRing(), losers of nothing and one
  /// exporter: computes who inherits each of this member's arcs once it is
  /// gone, begins a local migration session per gainer (the tap starts consuming
  /// those arcs' readings), withdraws the registry entry (routers recompute
  /// the ring and open their dual-read window; this host keeps serving),
  /// exports every covered object's log into its gainer (importBatch — no
  /// re-fired triggers), flushes the sessions into live forwarding and drops
  /// the moved objects. The host stays up afterwards, forwarding stragglers,
  /// until stop(). Throws util::ContractError when this member is the whole
  /// ring (nobody to inherit).
  void leaveRing();

 private:
  /// One migration session on the losing side; `retireAt` is set by end.
  struct Session {
    std::shared_ptr<HandoffSession> handoff;
    std::optional<std::chrono::steady_clock::time_point> retireAt;
  };
  /// What retired sessions moved away, by gainer token: the tap refuses
  /// ingest for it.
  struct Tombstones {
    std::unordered_map<util::MobileObjectId, std::string> objects;
    std::vector<std::pair<RingArc, std::string>> arcs;
  };
  /// What the ingest tap reads, published whole whenever sessions,
  /// tombstones or the replication link change.
  struct TapState {
    std::vector<std::shared_ptr<HandoffSession>> sessions;
    std::shared_ptr<const Tombstones> moved;
    std::shared_ptr<ReplicationLink> link;
  };

  void heartbeatLoop();
  /// One announce of `announceName_`; returns false when fenced off.
  bool announceOnce();
  /// Primary tick: discover/maintain the backup link.
  void maintainReplication();
  /// Territory-aware placement check for an announced backup endpoint
  /// (placement.hpp); true = replicate to it. Counts and logs conflicts.
  [[nodiscard]] bool backupPlacementAcceptable(const core::Endpoint& backup);
  /// Backup tick: watch the primary entry; promote when it expires.
  void monitorPrimary();
  void installTap();
  void registerMethods();
  /// migrate.begin/adopt/flush/end, served over the wire and called by
  /// leaveRing. Session id 0 is the session a begin that covers nothing
  /// returns without installing one; flush and end accept it.
  MigrateSession beginSession(const MigrateBegin& request);
  void adoptObjects(std::span<const util::MobileObjectId> objects);
  [[nodiscard]] std::optional<Session> findSession(std::uint64_t id) const;
  bool flushSession(std::uint64_t id);
  bool endSession(std::uint64_t id);
  /// Turns ended sessions whose straggler window has passed into tombstones.
  void retireSessions();
  /// Removes the objects from every session's coverage (erasing a session
  /// this empties) and from the tombstones, and returns the readings of
  /// them that abandoned sessions still buffered. mutex_ held, ingest
  /// paused.
  [[nodiscard]] std::vector<db::SensorReading> pruneLocked(
      std::span<const util::MobileObjectId> objects);
  /// Applies what pruneLocked reclaimed as this host's own ingest, in
  /// arrival order: stored with its triggers evaluated, past the tap (a new
  /// session may cover the objects and must not buffer these older readings
  /// after newer ones), then mirrored to the backup. A reading the store
  /// refuses (unknown sensor) is logged and dropped; the rest still apply.
  /// Takes the ingest gate, so the caller must have ended its pause.
  void applyReclaimed(std::span<const db::SensorReading> readings);
  /// Throws kMovedError for the first reading of `batch` a tombstone
  /// covers, unless the tombstone is a ring arc whose gainer has left the
  /// ring — that tombstone is dropped instead.
  void refuseMoved(const Tombstones& moved, std::span<const db::SensorReading> batch);
  void publishTapLocked();
  /// The shared shm-first (TCP fallback) connection to a peer: cached per
  /// endpoint while any holder keeps it, re-dialed once it has closed.
  [[nodiscard]] std::shared_ptr<core::RemoteLocationClient> peerFor(
      const core::Endpoint& endpoint);
  [[nodiscard]] core::Endpoint selfEndpoint() const;

  std::unique_ptr<core::Middlewhere> core_;
  core::RegistryClient registry_;
  const Options options_;
  const std::string primaryName_;
  const std::string name_;
  std::uint16_t port_ = 0;
  std::string shmName_;
  /// Serves shared-memory connections into the same RpcServer (same lanes,
  /// same stripe routing) as the TCP listener. Declared after core_ so it
  /// stops accepting before the core it serves into dies.
  std::unique_ptr<orb::ShmListener> shmListener_;
  bool running_ = false;

  std::atomic<Role> role_;
  std::atomic<std::uint64_t> generation_;
  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> fencedHeartbeats_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> placementConflicts_{0};
  /// Highest generation seen on the primary entry (backup role); the
  /// promotion claim uses this + 1.
  std::atomic<std::uint64_t> lastSeenGeneration_{0};
  /// A backup only promotes once it has seen the primary announced (a
  /// backup starting first must not claim an empty slot).
  std::atomic<bool> sawPrimary_{false};

  /// Name currently heartbeat-announced (switches to primaryName_ on
  /// promotion) and the backup endpoint the link was built against; both
  /// under mutex_.
  std::string announceName_;
  std::optional<core::Endpoint> linkedBackup_;

  /// Replication link and migration sessions by id (ids are never reused);
  /// under mutex_, and republished to tapState_ on every change.
  std::shared_ptr<ReplicationLink> link_;
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t nextSession_ = 1;
  /// Copied on write, so a published TapState never sees it change.
  std::shared_ptr<const Tombstones> moved_ = std::make_shared<const Tombstones>();
  /// The tap's snapshot, pinned under its own mutex (never held across a
  /// call) — the idiom LocationService uses for the tap itself.
  mutable std::mutex tapMutex_;
  std::shared_ptr<const TapState> tapState_;
  /// Set once the shard is announced (immediately, or by joinRing when
  /// deferAnnounce); the heartbeat only re-announces after that.
  std::atomic<bool> announced_{false};

  /// Pending join state between joinRing() and completeJoin(): one begun
  /// session per losing owner.
  struct PendingJoin {
    std::string loserToken;
    std::shared_ptr<core::RemoteLocationClient> loser;
    MigrateSession session;
  };
  std::vector<PendingJoin> pendingJoin_;

  /// Peer connections by endpoint; a weak entry lapses with its last holder.
  std::mutex peersMutex_;
  std::map<std::string, std::weak_ptr<core::RemoteLocationClient>> peers_;

  mutable std::mutex mutex_;
  std::condition_variable stopCv_;
  bool stopping_ = false;
  std::thread heartbeat_;
  std::atomic<std::uint64_t> heartbeatFailures_{0};
};

}  // namespace mw::cluster
