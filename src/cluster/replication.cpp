#include "cluster/replication.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/codec.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::cluster {

// --- ReplicationLink ----------------------------------------------------------

ReplicationLink::ReplicationLink(std::string backupName,
                                 std::shared_ptr<core::RemoteLocationClient> client)
    : backupName_(std::move(backupName)), client_(std::move(client)) {
  mw::util::require(client_ != nullptr, "ReplicationLink: null client");
}

void ReplicationLink::markDead(const char* what) {
  dead_.store(true, std::memory_order_release);
  live_.store(false, std::memory_order_release);
  failures_.fetch_add(1, std::memory_order_relaxed);
  util::logWarn("ReplicationLink", " backup ", backupName_, " failed during ", what,
                "; continuing unreplicated");
}

bool ReplicationLink::syncFrom(db::SpatialDatabase& db) {
  // The caller holds the service's ingest pause: the store is a consistent
  // cut and nothing is mirrored concurrently, so replaying every object's
  // log leaves the backup byte-level equal to the primary.
  for (const auto& object : db.knownMobileObjects()) {
    const std::vector<db::SensorReading> log = db.exportObjectLog(object);
    if (log.empty()) continue;
    try {
      std::lock_guard lock(sendMutex_);
      client_->ingestBatch(log);
    } catch (const util::MwError&) {
      markDead("initial sync");
      return false;
    }
    syncedReadings_.fetch_add(log.size(), std::memory_order_relaxed);
  }
  live_.store(true, std::memory_order_release);
  return true;
}

void ReplicationLink::mirror(std::span<const db::SensorReading> batch) {
  if (batch.empty() || !live()) return;
  try {
    std::lock_guard lock(sendMutex_);
    client_->ingestBatch(batch);
    mirroredReadings_.fetch_add(batch.size(), std::memory_order_relaxed);
  } catch (const util::MwError&) {
    // The batch still applies locally — availability over durability; the
    // primary now runs unreplicated until a new backup announces.
    markDead("mirror");
  }
}

// --- HandoffSession -----------------------------------------------------------

HandoffSession::HandoffSession(std::string gainerToken, std::vector<RingArc> arcs,
                               std::vector<util::MobileObjectId> objects,
                               std::shared_ptr<core::RemoteLocationClient> gainer)
    : gainerToken_(std::move(gainerToken)),
      arcs_(std::move(arcs)),
      objects_(std::make_move_iterator(objects.begin()), std::make_move_iterator(objects.end())),
      gainer_(std::move(gainer)) {
  mw::util::require(gainer_ != nullptr, "HandoffSession: null gainer client");
}

bool HandoffSession::covers(const util::MobileObjectId& object) const {
  std::shared_lock lock(coverMutex_);
  if (arcs_.empty()) return objects_.contains(object);
  if (removed_.contains(object)) return false;
  const std::uint64_t key = objectRingKey(object);
  return std::any_of(arcs_.begin(), arcs_.end(),
                     [&](const RingArc& arc) { return arc.contains(key); });
}

bool HandoffSession::removeObjects(std::span<const util::MobileObjectId> objects,
                                   std::vector<db::SensorReading>& reclaimed) {
  bool emptied = false;
  {
    std::unique_lock lock(coverMutex_);
    if (!arcs_.empty()) {
      for (const auto& object : objects) removed_.insert(object);
    } else {
      const bool had = !objects_.empty();
      for (const auto& object : objects) objects_.erase(object);
      emptied = had && objects_.empty();
    }
  }
  std::lock_guard lock(mutex_);
  if (buffer_.empty()) return emptied;  // nothing held, or already flushed
  const std::unordered_set<util::MobileObjectId> gone(objects.begin(), objects.end());
  std::vector<db::SensorReading> kept;
  for (auto& reading : buffer_) {
    (gone.contains(reading.mobileObjectId) ? reclaimed : kept).push_back(std::move(reading));
  }
  buffer_ = std::move(kept);
  return emptied;
}

std::vector<util::MobileObjectId> HandoffSession::objects() const {
  std::shared_lock lock(coverMutex_);
  return {objects_.begin(), objects_.end()};
}

std::vector<db::SensorReading> HandoffSession::filter(std::vector<db::SensorReading> batch) {
  std::vector<db::SensorReading> mine;
  std::vector<db::SensorReading> rest;
  rest.reserve(batch.size());
  for (auto& reading : batch) {
    (covers(reading.mobileObjectId) ? mine : rest).push_back(std::move(reading));
  }
  if (mine.empty()) return rest;
  std::lock_guard lock(mutex_);
  if (!forwarding_.load(std::memory_order_relaxed)) {
    buffer_.insert(buffer_.end(), std::make_move_iterator(mine.begin()),
                   std::make_move_iterator(mine.end()));
    return rest;
  }
  try {
    gainer_->ingestBatch(mine);
  } catch (const util::MwError&) {
    util::logWarn("HandoffSession", " forward to ", gainerToken_, " failed; ", mine.size(),
                  " reading(s) lost to the gainer");
  }
  return rest;
}

bool HandoffSession::flush() {
  std::lock_guard lock(mutex_);
  if (!buffer_.empty()) {
    try {
      gainer_->ingestBatch(buffer_);
    } catch (const util::MwError&) {
      util::logWarn("HandoffSession", " flush to ", gainerToken_,
                    " failed; keeping buffer for retry");
      return false;
    }
    buffer_.clear();
  }
  // Same lock as the buffering branch of filter(): no reading can observe
  // "buffering" after the drain — the order at the gainer is exactly
  // buffer FIFO then forward FIFO.
  forwarding_.store(true, std::memory_order_release);
  return true;
}

// --- migrate.* wire -----------------------------------------------------------

namespace {

/// Reads an element count, rejecting one that the bytes left could not hold
/// at `minBytes` per element — a hostile count fails here, not in reserve().
std::uint32_t readCount(util::ByteReader& r, std::size_t minBytes) {
  const std::uint32_t count = r.u32();
  if (count * std::uint64_t{minBytes} > r.remaining()) {
    throw util::ParseError("migrate: count " + std::to_string(count) + " overruns the frame");
  }
  return count;
}

void writeObjects(util::ByteWriter& w, std::span<const util::MobileObjectId> objects) {
  w.u32(static_cast<std::uint32_t>(objects.size()));
  for (const auto& object : objects) w.str(object.str());
}

std::vector<util::MobileObjectId> readObjects(util::ByteReader& r) {
  std::vector<util::MobileObjectId> objects(readCount(r, 4));  // a string is >= its length
  for (auto& object : objects) object = util::MobileObjectId{r.str()};
  return objects;
}

/// Decodes the whole of `bytes` with `decode`; trailing bytes are a ParseError.
template <typename Decode>
auto decodeAll(const util::Bytes& bytes, Decode decode) {
  util::ByteReader r(bytes);
  auto value = decode(r);
  if (!r.exhausted()) throw util::ParseError("migrate: trailing bytes");
  return value;
}

bool verdict(const util::Bytes& reply) {
  return decodeAll(reply, [](util::ByteReader& r) { return r.boolean(); });
}

util::Bytes sessionIdBytes(std::uint64_t id) {
  util::ByteWriter w;
  w.u64(id);
  return w.take();
}

}  // namespace

util::Bytes encodeMigrateBegin(const MigrateBegin& request) {
  util::ByteWriter w;
  w.str(request.gainerToken);
  w.str(request.gainer.host);
  w.u16(request.gainer.port);
  w.str(request.gainer.shmName);
  w.u32(static_cast<std::uint32_t>(request.arcs.size()));
  for (const RingArc& arc : request.arcs) {
    w.u64(arc.lo);
    w.u64(arc.hi);
  }
  writeObjects(w, request.objects);
  w.u32(static_cast<std::uint32_t>(request.rects.size()));
  for (const geo::Rect& rect : request.rects) core::encodeRect(w, rect);
  return w.take();
}

MigrateBegin decodeMigrateBegin(const util::Bytes& bytes) {
  MigrateBegin request = decodeAll(bytes, [](util::ByteReader& r) {
    MigrateBegin out;
    out.gainerToken = r.str();
    out.gainer.host = r.str();
    out.gainer.port = r.u16();
    out.gainer.shmName = r.str();
    out.arcs.resize(readCount(r, 16));
    for (RingArc& arc : out.arcs) arc = RingArc{r.u64(), r.u64()};
    out.objects = readObjects(r);
    out.rects.resize(readCount(r, 1));  // the empty rect is one flag byte
    for (geo::Rect& rect : out.rects) rect = core::decodeRect(r);
    return out;
  });
  if (!request.arcs.empty() && (!request.objects.empty() || !request.rects.empty())) {
    throw util::ParseError("migrate.begin: covers both arcs and objects");
  }
  return request;
}

util::Bytes encodeMigrateSession(const MigrateSession& session) {
  util::ByteWriter w;
  w.u64(session.id);
  writeObjects(w, session.objects);
  return w.take();
}

std::vector<util::MobileObjectId> decodeObjects(const util::Bytes& bytes) {
  return decodeAll(bytes, readObjects);
}

std::uint64_t decodeSessionId(const util::Bytes& bytes) {
  return decodeAll(bytes, [](util::ByteReader& r) { return r.u64(); });
}

MigrateSession migrateBegin(orb::RpcClient& loser, const MigrateBegin& request) {
  return decodeAll(loser.call("migrate.begin", encodeMigrateBegin(request)),
                   [](util::ByteReader& r) {
                     MigrateSession session;
                     session.id = r.u64();
                     session.objects = readObjects(r);
                     return session;
                   });
}

void migrateAdopt(orb::RpcClient& gainer, std::span<const util::MobileObjectId> objects) {
  util::ByteWriter w;
  writeObjects(w, objects);
  static_cast<void>(verdict(gainer.call("migrate.adopt", w.take())));
}

bool migrateFlush(orb::RpcClient& loser, std::uint64_t id) {
  return verdict(loser.call("migrate.flush", sessionIdBytes(id)));
}

bool migrateEnd(orb::RpcClient& loser, std::uint64_t id) {
  return verdict(loser.call("migrate.end", sessionIdBytes(id)));
}

}  // namespace mw::cluster
