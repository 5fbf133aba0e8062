#include "cluster/shard_host.hpp"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cluster/placement.hpp"
#include "cluster/territory_map.hpp"
#include "orb/tcp.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::cluster {

namespace {

/// Peer-to-peer calls (replication mirror, handoff forward, log export)
/// block an ingest ack; a wedged peer must not wedge the caller forever.
constexpr auto kPeerCallTimeout = util::sec(5);

/// The announced endpoint of ring member `token` (nullopt when it expired
/// between list and lookup).
std::optional<core::Endpoint> endpointOf(const RingMemberMap& members, const std::string& token) {
  const auto slot = std::lower_bound(members.tokens.begin(), members.tokens.end(), token);
  if (slot == members.tokens.end() || *slot != token) return std::nullopt;
  return members.endpoints[static_cast<std::size_t>(slot - members.tokens.begin())];
}

}  // namespace

ShardHost::ShardHost(const util::Clock& clock, geo::Rect universe, const std::string& rootFrame,
                     const std::string& registryHost, std::uint16_t registryPort,
                     Options options)
    : core_(std::make_unique<core::Middlewhere>(clock, universe, rootFrame)),
      registry_(registryHost, registryPort),
      options_(std::move(options)),
      primaryName_(!options_.spaceToken.empty() ? spaceMemberName(options_.spaceToken)
                   : options_.ringToken.empty() ? shardName(options_.index, options_.total)
                                                : ringMemberName(options_.ringToken)),
      name_(options_.role == Role::Backup ? primaryName_ + kBackupSuffix : primaryName_),
      role_(options_.role),
      generation_(options_.generation) {
  mw::util::require(options_.announceTtl.count() == 0 ||
                        options_.heartbeatPeriod < options_.announceTtl,
                    "ShardHost: heartbeatPeriod must undercut announceTtl");
  mw::util::require(options_.ringToken.empty() || options_.spaceToken.empty(),
                    "ShardHost: ringToken and spaceToken are mutually exclusive");
  mw::util::require(!options_.deferAnnounce || !options_.ringToken.empty(),
                    "ShardHost: deferAnnounce is for ring joiners");
  mw::util::require(options_.role != Role::Backup || options_.announceTtl.count() > 0,
                    "ShardHost: a backup needs the heartbeat (announceTtl > 0) to "
                    "watch its primary");
  announceName_ = name_;
}

ShardHost::~ShardHost() { stop(); }

void ShardHost::start() {
  mw::util::require(!running_, "ShardHost::start: already running");
  port_ = core_->listen(options_.port);
  if (options_.enableShm) {
    if (orb::shmAvailable()) {
      // The lane name must be unique per process (parallel test runs share
      // /dev/shm) and registry-safe; '/' in the shard name becomes '.'.
      std::string lane = "mw." + name_ + "." + std::to_string(::getpid());
      for (auto& c : lane) {
        if (c == '/') c = '.';
      }
      shmListener_ = std::make_unique<orb::ShmListener>(
          lane, [this](std::shared_ptr<orb::Transport> t) {
            core_->rpcServer().serve(std::move(t));
          });
      shmName_ = lane;
    } else {
      util::logWarn("ShardHost", name_, ": POSIX shm unavailable; serving TCP only");
    }
  }
  installTap();
  registerMethods();
  if (!options_.deferAnnounce) {
    announceOnce();
    announced_.store(true, std::memory_order_release);
  }
  running_ = true;
  if (options_.announceTtl.count() > 0) {
    heartbeat_ = std::thread([this] { heartbeatLoop(); });
  }
  util::logInfo("ShardHost", name_, " serving on port ", port_);
}

void ShardHost::stop() {
  if (!running_) return;
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  stopCv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  std::string who;
  {
    std::lock_guard lock(mutex_);
    who = announceName_;
  }
  // A fenced host no longer owns its name — a successor promoted into it,
  // and withdrawing here would delete the SUCCESSOR's entry.
  if (announced_.load(std::memory_order_acquire) && !fenced_.load(std::memory_order_acquire)) {
    try {
      registry_.withdraw(who);
    } catch (const util::TransportError&) {
      // Registry gone; the TTL expires the entry on its own.
    }
  }
  core_->locationService().setIngestTap(nullptr);
  {
    std::lock_guard lock(mutex_);
    link_.reset();
    linkedBackup_.reset();
    sessions_.clear();
    moved_ = std::make_shared<const Tombstones>();
    publishTapLocked();
  }
  {
    std::lock_guard lock(peersMutex_);
    peers_.clear();
  }
  shmListener_.reset();
  shmName_.clear();
  running_ = false;
}

core::Endpoint ShardHost::selfEndpoint() const {
  return core::Endpoint{"127.0.0.1", port_, shmName_};
}

bool ShardHost::announceOnce() {
  if (fenced_.load(std::memory_order_acquire)) return false;
  std::string who;
  {
    std::lock_guard lock(mutex_);
    who = announceName_;
  }
  // The serving name is fenced by generation; the backup standby name is
  // uncontended (generation 0 = legacy unfenced announce).
  const std::uint64_t generation =
      who == primaryName_ ? generation_.load(std::memory_order_acquire) : 0;
  const bool accepted = registry_.announce(who, selfEndpoint(), options_.announceTtl, generation);
  if (!accepted) {
    fenced_.store(true, std::memory_order_release);
    fencedHeartbeats_.fetch_add(1, std::memory_order_relaxed);
    util::logWarn("ShardHost", who, ": announce rejected (generation ", generation,
                  " fenced by a promoted successor); demoting to bystander");
  }
  return accepted;
}

void ShardHost::heartbeatLoop() {
  std::unique_lock lock(mutex_);
  while (!stopCv_.wait_for(lock, std::chrono::milliseconds(options_.heartbeatPeriod.count()),
                           [&] { return stopping_; })) {
    lock.unlock();
    retireSessions();
    try {
      if (announced_.load(std::memory_order_acquire)) {
        announceOnce();
        if (role() == Role::Primary) {
          maintainReplication();
        } else {
          monitorPrimary();
        }
      }
    } catch (const util::TransportError&) {
      // Registry unreachable this tick: the entry may expire (and the
      // cluster will treat this shard as unannounced) until a later
      // heartbeat gets through.
      heartbeatFailures_.fetch_add(1, std::memory_order_relaxed);
      util::logWarn("ShardHost", name_, ": heartbeat failed (registry unreachable)");
    }
    lock.lock();
  }
}

ShardHost::LoadStats ShardHost::loadStats() const {
  LoadStats stats;
  const auto& service = core_->locationService();
  stats.ingestedReadings = service.ingestedReadings();
  stats.importedReadings = service.importedReadings();
  stats.regionQueries = service.regionQueries();
  stats.residentObjects = core_->database().knownMobileObjects().size();
  return stats;
}

std::shared_ptr<ReplicationLink> ShardHost::replicationLink() const {
  std::lock_guard lock(mutex_);
  return link_;
}

std::size_t ShardHost::migrationSessions() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

std::size_t ShardHost::tombstones() const {
  std::lock_guard lock(mutex_);
  return moved_->objects.size() + moved_->arcs.size();
}

void ShardHost::publishTapLocked() {
  auto state = std::make_shared<TapState>();
  for (const auto& [id, session] : sessions_) state->sessions.push_back(session.handoff);
  state->moved = moved_;
  state->link = link_;
  std::lock_guard tapLock(tapMutex_);
  tapState_ = std::move(state);
}

void ShardHost::installTap() {
  core_->locationService().setIngestTap(
      [this](std::span<const db::SensorReading> batch) -> std::vector<db::SensorReading> {
        std::vector<db::SensorReading> kept(batch.begin(), batch.end());
        std::shared_ptr<const TapState> state;
        {
          std::lock_guard lock(tapMutex_);
          state = tapState_;
        }
        if (!state) return kept;
        // Refusal before anything is consumed, so the sender may resend the
        // whole batch elsewhere without duplicating a forwarded reading.
        refuseMoved(*state->moved, kept);
        // Migration first: readings of objects being moved belong to the
        // gainer — they must be neither applied here nor mirrored to the
        // backup (the gainer's own replication covers them from now on).
        for (const auto& session : state->sessions) {
          if (kept.empty()) break;
          kept = session->filter(std::move(kept));
        }
        if (state->link) state->link->mirror(kept);
        return kept;
      });
}

bool ShardHost::backupPlacementAcceptable(const core::Endpoint& backup) {
  // Resolve the published territory map and the announced members' hosts;
  // registry blindness (or no map yet) means no basis to refuse — accept.
  TerritoryMap map;
  std::unordered_map<std::string, std::string> memberHosts;
  try {
    auto meta = registry_.getMeta(kTerritoryMetaName);
    if (!meta) return true;
    map = TerritoryMap::decode(meta->value);
    for (const std::string& name : registry_.list()) {
      auto token = parseSpaceMemberName(name);
      if (!token) continue;
      if (auto peer = registry_.lookupEntry(name)) {
        memberHosts.emplace(std::move(*token), peer->endpoint.host);
      }
    }
  } catch (const util::TransportError&) {
    return true;
  }
  PlacementDecision decision =
      evaluateBackupPlacement(map, options_.spaceToken, backup.host, memberHosts);
  if (decision.accepted) return true;
  placementConflicts_.fetch_add(1, std::memory_order_relaxed);
  std::string conflicts;
  for (const std::string& token : decision.conflicts) {
    if (!conflicts.empty()) conflicts += ", ";
    conflicts += token;
  }
  const bool strict = options_.backupPlacement == Options::BackupPlacement::Strict;
  util::logWarn("ShardHost", primaryName_, ": backup host ", backup.host,
                " is colocated with territory neighbour(s) [", conflicts, "]; ",
                strict ? "refusing the standby (strict placement)"
                       : "replicating anyway (permissive placement)");
  return !strict;
}

void ShardHost::maintainReplication() {
  const std::string backupName = primaryName_ + kBackupSuffix;
  {
    std::lock_guard lock(mutex_);
    if (link_ && link_->dead()) {
      link_.reset();
      linkedBackup_.reset();
      publishTapLocked();
    }
  }
  std::optional<core::RegistryClient::ResolvedEntry> entry;
  try {
    entry = registry_.lookupEntry(backupName);
  } catch (const util::TransportError&) {
    return;  // registry blind this tick; keep the link we have
  }
  if (!entry) {
    // Backup gone (expired or withdrew): run unreplicated until one returns.
    std::lock_guard lock(mutex_);
    if (link_) {
      util::logWarn("ShardHost", primaryName_, ": backup ", backupName,
                    " disappeared from the registry; dropping replication link");
      link_.reset();
      linkedBackup_.reset();
      publishTapLocked();
    }
    return;
  }
  {
    std::lock_guard lock(mutex_);
    if (link_ && linkedBackup_ == entry->endpoint) return;  // already mirroring there
  }
  if (!options_.spaceToken.empty() && !backupPlacementAcceptable(entry->endpoint)) {
    return;  // Strict placement refused the colocated standby
  }
  std::shared_ptr<core::RemoteLocationClient> client;
  try {
    client = peerFor(entry->endpoint);
  } catch (const util::TransportError&) {
    util::logWarn("ShardHost", primaryName_, ": backup ", backupName,
                  " announced but unreachable; will retry next heartbeat");
    return;
  }
  auto fresh = std::make_shared<ReplicationLink>(backupName, std::move(client));
  {
    // Quiesce ingest: the store is a consistent cut for the initial sync,
    // and publishing the link inside the same window means every reading
    // after the cut flows through mirror() — nothing falls in between.
    auto pause = core_->locationService().pauseIngest();
    if (!fresh->syncFrom(core_->database())) return;
    std::lock_guard lock(mutex_);
    link_ = fresh;
    linkedBackup_ = entry->endpoint;
    publishTapLocked();
  }
  util::logInfo("ShardHost", primaryName_, ": replicating to ", backupName, " (",
                fresh->syncedReadings(), " readings synced)");
}

void ShardHost::monitorPrimary() {
  std::optional<core::RegistryClient::ResolvedEntry> entry;
  try {
    entry = registry_.lookupEntry(primaryName_);
  } catch (const util::TransportError&) {
    return;  // blind, not dead — never promote on a registry outage
  }
  if (entry) {
    sawPrimary_.store(true, std::memory_order_release);
    std::uint64_t seen = lastSeenGeneration_.load(std::memory_order_relaxed);
    while (entry->generation > seen &&
           !lastSeenGeneration_.compare_exchange_weak(seen, entry->generation)) {
    }
    return;
  }
  if (!sawPrimary_.load(std::memory_order_acquire)) return;  // primary never lived
  // The primary's TTL expired: claim its name one generation up. The
  // registry's fence makes the claim atomic — of two racing backups, or a
  // slow old primary re-announcing, exactly one write under the higher
  // generation wins and the rest are rejected.
  const std::uint64_t claimGeneration = lastSeenGeneration_.load(std::memory_order_acquire) + 1;
  bool accepted = false;
  try {
    accepted =
        registry_.announce(primaryName_, selfEndpoint(), options_.announceTtl, claimGeneration);
  } catch (const util::TransportError&) {
    return;
  }
  if (!accepted) {
    // Someone already holds a higher generation; observe it next tick.
    return;
  }
  generation_.store(claimGeneration, std::memory_order_release);
  role_.store(Role::Primary, std::memory_order_release);
  promotions_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    announceName_ = primaryName_;
  }
  try {
    registry_.withdraw(name_);  // the standby slot is open again
  } catch (const util::TransportError&) {
  }
  util::logInfo("ShardHost", name_, ": primary ", primaryName_,
                " expired; promoted to primary at generation ", claimGeneration);
}

std::shared_ptr<core::RemoteLocationClient> ShardHost::peerFor(const core::Endpoint& endpoint) {
  const std::string key =
      endpoint.host + ":" + std::to_string(endpoint.port) + "/" + endpoint.shmName;
  std::lock_guard lock(peersMutex_);
  std::erase_if(peers_, [](const auto& entry) { return entry.second.expired(); });
  auto& slot = peers_[key];
  if (auto peer = slot.lock(); peer && peer->rpc()->isOpen()) return peer;
  std::shared_ptr<orb::Transport> transport;
  if (!endpoint.shmName.empty()) {
    try {
      transport = orb::shmConnect(endpoint.shmName);
    } catch (const util::TransportError&) {
      util::logWarn("ShardHost", name_, ": peer shm lane ", endpoint.shmName,
                    " unreachable; falling back to tcp");
    }
  }
  if (!transport) transport = orb::tcpConnect(endpoint.host, endpoint.port);
  auto rpc = std::make_shared<orb::RpcClient>(std::move(transport));
  rpc->setCallTimeout(kPeerCallTimeout);
  auto peer = std::make_shared<core::RemoteLocationClient>(std::move(rpc));
  slot = peer;
  return peer;
}

// --- migrate.*: losing side ---------------------------------------------------

MigrateSession ShardHost::beginSession(const MigrateBegin& request) {
  retireSessions();
  auto gainer = peerFor(request.gainer);
  MigrateSession out;
  auto& db = core_->database();
  // Installed under pauseIngest so the split is exact: every reading acked
  // before this instant is in the local store (the driver exports it), every
  // later one hits the session's filter.
  auto pause = core_->locationService().pauseIngest();
  // An object set also takes every local resident whose evidence box
  // centers in a migrated rect (belt and braces for objects the router
  // never homed); arcs take every resident hashing into them.
  out.objects = request.objects;
  if (!request.rects.empty()) {
    const std::unordered_set<util::MobileObjectId> listed(out.objects.begin(), out.objects.end());
    for (const auto& object : db.knownMobileObjects()) {
      const auto box = db.evidenceBoxOf(object);
      if (!box || listed.contains(object)) continue;
      if (std::any_of(request.rects.begin(), request.rects.end(),
                      [&](const geo::Rect& rect) { return rect.contains(box->center()); })) {
        out.objects.push_back(object);
      }
    }
  }
  // Nothing to cover: id 0, nothing installed (flush and end accept it).
  if (request.arcs.empty() && out.objects.empty()) return out;
  auto session = std::make_shared<HandoffSession>(request.gainerToken, request.arcs,
                                                  out.objects, std::move(gainer));
  if (!request.arcs.empty()) {
    for (const auto& object : db.knownMobileObjects()) {
      if (session->covers(object)) out.objects.push_back(object);
    }
  }
  std::vector<db::SensorReading> reclaimed;
  {
    std::lock_guard lock(mutex_);
    // Older sessions are pruned of the moving objects first, so an object
    // migrating BACK to a shard it once left is not eaten by the stale
    // forwarding session of that earlier migration.
    reclaimed = pruneLocked(out.objects);
    out.id = nextSession_++;
    sessions_.emplace(out.id, Session{std::move(session), std::nullopt});
    publishTapLocked();
  }
  pause.unlock();
  // Before the reply, so the migration's export carries these readings ahead
  // of everything the new session buffers.
  applyReclaimed(reclaimed);
  return out;
}

void ShardHost::adoptObjects(std::span<const util::MobileObjectId> objects) {
  std::vector<db::SensorReading> reclaimed;
  {
    auto pause = core_->locationService().pauseIngest();
    std::lock_guard lock(mutex_);
    reclaimed = pruneLocked(objects);
    publishTapLocked();
  }
  applyReclaimed(reclaimed);
  core_->locationService().recountDensity(objects);
}

std::vector<db::SensorReading> ShardHost::pruneLocked(
    std::span<const util::MobileObjectId> objects) {
  // A session whose object set empties moves nothing more: it is what a
  // failed migration left behind. What it buffered was acked here.
  std::vector<db::SensorReading> reclaimed;
  std::erase_if(sessions_, [&](const auto& entry) {
    return entry.second.handoff->removeObjects(objects, reclaimed);
  });
  if (std::none_of(objects.begin(), objects.end(),
                   [&](const auto& object) { return moved_->objects.contains(object); })) {
    return reclaimed;
  }
  auto moved = std::make_shared<Tombstones>(*moved_);
  for (const auto& object : objects) moved->objects.erase(object);
  moved_ = std::move(moved);
  return reclaimed;
}

void ShardHost::applyReclaimed(std::span<const db::SensorReading> readings) {
  if (readings.empty()) return;
  util::logInfo("ShardHost", name_, ": applying ", readings.size(),
                " reading(s) an abandoned migration session had buffered");
  // The tap took these before the store checked their sensors: one that
  // fails now (sensor unregistered, or deregistered since) is dropped alone,
  // as a failed forward would have been, and the rest still apply.
  std::vector<db::SensorReading> applied;
  applied.reserve(readings.size());
  for (const auto& reading : readings) {
    try {
      core_->locationService().ingestUntapped(reading);
      applied.push_back(reading);
    } catch (const util::MwError& e) {
      util::logWarn("ShardHost", name_, ": dropping a buffered reading of ",
                    reading.mobileObjectId.str(), ": ", e.what());
    }
  }
  if (auto link = replicationLink(); link && !applied.empty()) link->mirror(applied);
}

std::optional<ShardHost::Session> ShardHost::findSession(std::uint64_t id) const {
  std::lock_guard lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  return it->second;
}

bool ShardHost::flushSession(std::uint64_t id) {
  if (id == 0) return true;
  auto session = findSession(id);
  return session && session->handoff->flush();
}

bool ShardHost::endSession(std::uint64_t id) {
  if (id == 0) return true;
  auto session = findSession(id);
  if (!session || !session->handoff->forwarding()) return false;  // unknown, or end before flush
  std::vector<util::MobileObjectId> moved;
  for (const auto& object : core_->database().knownMobileObjects()) {
    if (session->handoff->covers(object)) moved.push_back(object);
  }
  core_->locationService().dropObjects(moved);
  // The session stays installed and forwarding for the straggler window, so
  // a reading from a router that has not flipped yet is proxied, not lost.
  std::lock_guard lock(mutex_);
  if (auto it = sessions_.find(id); it != sessions_.end() && !it->second.retireAt) {
    it->second.retireAt = std::chrono::steady_clock::now() + kStragglerWindow;
  }
  return true;
}

void ShardHost::retireSessions() {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard lock(mutex_);
  std::shared_ptr<Tombstones> moved;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (!it->second.retireAt || *it->second.retireAt > now) {
      ++it;
      continue;
    }
    if (!moved) moved = std::make_shared<Tombstones>(*moved_);
    const HandoffSession& handoff = *it->second.handoff;
    for (const RingArc& arc : handoff.arcs()) moved->arcs.emplace_back(arc, handoff.gainerToken());
    for (auto& object : handoff.objects()) moved->objects[object] = handoff.gainerToken();
    it = sessions_.erase(it);
  }
  if (!moved) return;
  moved_ = std::move(moved);
  publishTapLocked();
}

void ShardHost::refuseMoved(const Tombstones& moved, std::span<const db::SensorReading> batch) {
  if (moved.objects.empty() && moved.arcs.empty()) return;
  std::vector<std::string> departed;  // ring gainers found gone during this batch
  for (const auto& reading : batch) {
    const std::string* gainer = nullptr;
    if (auto it = moved.objects.find(reading.mobileObjectId); it != moved.objects.end()) {
      gainer = &it->second;
    } else if (!moved.arcs.empty()) {
      const std::uint64_t key = objectRingKey(reading.mobileObjectId);
      for (const auto& [arc, token] : moved.arcs) {
        if (!arc.contains(key) ||
            std::find(departed.begin(), departed.end(), token) != departed.end()) {
          continue;
        }
        bool member = true;  // a blind registry refuses rather than misplaces
        try {
          member = registry_.lookupEntry(ringMemberName(token)).has_value();
        } catch (const util::TransportError&) {
        }
        if (member) {
          gainer = &token;
          break;
        }
        // The gainer left the ring (drained or expired), so its arcs belong
        // to their inheritors — this host among them.
        departed.push_back(token);
        std::lock_guard lock(mutex_);
        auto next = std::make_shared<Tombstones>(*moved_);
        std::erase_if(next->arcs, [&](const auto& entry) { return entry.second == token; });
        moved_ = std::move(next);
        publishTapLocked();
      }
    }
    if (gainer != nullptr) {
      throw util::MwError(std::string(kMovedError) + ": " + reading.mobileObjectId.str() +
                          " moved to " + *gainer);
    }
  }
}

void ShardHost::registerMethods() {
  auto& server = core_->rpcServer();
  const auto verdict = [](bool ok) {
    util::ByteWriter w;
    w.boolean(ok);
    return w.take();
  };
  server.registerMethod("migrate.begin", [this](const util::Bytes& args) {
    return encodeMigrateSession(beginSession(decodeMigrateBegin(args)));
  });
  // Gaining side: this shard is becoming the objects' home (again), so any
  // session or tombstone a PAST migration left here must stop consuming or
  // refusing their readings (else a reading routed here would bounce to the
  // old gainer and chase its own tail), and its density rules count them.
  server.registerMethod("migrate.adopt", [this, verdict](const util::Bytes& args) {
    adoptObjects(decodeObjects(args));
    return verdict(true);
  });
  server.registerMethod("migrate.flush", [this, verdict](const util::Bytes& args) {
    return verdict(flushSession(decodeSessionId(args)));
  });
  server.registerMethod("migrate.end", [this, verdict](const util::Bytes& args) {
    return verdict(endSession(decodeSessionId(args)));
  });

  // territory.stats() -> cumulative load counters (see LoadStats) — what the
  // balancer polls to find hot and cold shards.
  server.registerMethod("territory.stats", [this](const util::Bytes&) -> util::Bytes {
    const LoadStats stats = loadStats();
    util::ByteWriter w;
    w.u64(stats.ingestedReadings);
    w.u64(stats.importedReadings);
    w.u64(stats.regionQueries);
    w.u64(stats.residentObjects);
    return w.take();
  });
}

// --- migrate.*: driving side --------------------------------------------------

void ShardHost::joinRing() {
  mw::util::require(running_, "ShardHost::joinRing: start() first");
  mw::util::require(!options_.ringToken.empty(), "ShardHost::joinRing: not a ring member");
  mw::util::require(!announced_.load(std::memory_order_acquire),
                    "ShardHost::joinRing: already announced (start with deferAnnounce)");
  RingMemberMap members = resolveRingMembers(registry_);
  HashRing before(members.tokens);
  std::vector<std::string> afterTokens = members.tokens;
  afterTokens.push_back(options_.ringToken);
  HashRing after(std::move(afterTokens));
  // Group this member's claimed arcs by the owner losing them: one session
  // (one FIFO) per loser.
  std::map<std::string, std::vector<RingArc>> byLoser;
  for (auto& claim : HashRing::claimsFor(before, after, options_.ringToken)) {
    if (claim.loser.empty()) continue;  // genesis: nothing to move
    byLoser[claim.loser].push_back(claim.arc);
  }
  pendingJoin_.clear();
  {
    // A member rejoining takes arcs back: tombstones of its earlier
    // departure would refuse the losers' forwards.
    std::lock_guard lock(mutex_);
    moved_ = std::make_shared<const Tombstones>(Tombstones{moved_->objects, {}});
    publishTapLocked();
  }
  for (auto& [loser, arcs] : byLoser) {
    const auto endpoint = endpointOf(members, loser);
    if (!endpoint) {
      // Expired between list and lookup: its readings are already lost to
      // the cluster; claim the arcs without a transfer.
      util::logWarn("ShardHost", name_, ": losing owner ", loser,
                    " unresolvable; joining its arcs without handoff");
      continue;
    }
    PendingJoin pending;
    pending.loserToken = loser;
    pending.loser = peerFor(*endpoint);
    pending.session =
        migrateBegin(*pending.loser->rpc(),
                     MigrateBegin{options_.ringToken, selfEndpoint(), std::move(arcs), {}, {}});
    pendingJoin_.push_back(std::move(pending));
  }
  // Every loser is now capturing the claimed arcs; announcing makes fresh
  // routers route them here (and stale ones still reach the losers, whose
  // sessions forward). Heartbeats keep the entry alive from here on.
  announceOnce();
  announced_.store(true, std::memory_order_release);
  util::logInfo("ShardHost", name_, ": joined the ring (", pendingJoin_.size(),
                " migration session(s) open)");
}

void ShardHost::completeJoin() {
  mw::util::require(announced_.load(std::memory_order_acquire),
                    "ShardHost::completeJoin: joinRing() first");
  auto& service = core_->locationService();
  for (auto& pending : pendingJoin_) {
    // Replay the frozen logs first, then flush: the joiner's store sees each
    // object as export, then buffered FIFO, then live forwards — the same
    // total order the loser would have applied. Imported, not ingested: the
    // readings already fired their triggers where they were first observed,
    // so the replay must not fire them again here.
    for (const auto& object : pending.session.objects) {
      std::vector<db::SensorReading> log = pending.loser->exportReadings(object);
      if (!log.empty()) service.importBatch(log);
    }
    orb::RpcClient& loser = *pending.loser->rpc();
    if (!migrateFlush(loser, pending.session.id)) {
      util::logWarn("ShardHost", name_, ": migrate flush on ", pending.loserToken,
                    " failed; leaving its session buffering for a retry");
      continue;
    }
    // The gainer recounts before the loser drops (see migrate.adopt).
    service.recountDensity(pending.session.objects);
    if (!migrateEnd(loser, pending.session.id)) {
      util::logWarn("ShardHost", name_, ": migrate end on ", pending.loserToken, " rejected");
    }
  }
  pendingJoin_.clear();
}

void ShardHost::leaveRing() {
  mw::util::require(running_, "ShardHost::leaveRing: start() first");
  mw::util::require(!options_.ringToken.empty(), "ShardHost::leaveRing: not a ring member");
  mw::util::require(announced_.load(std::memory_order_acquire),
                    "ShardHost::leaveRing: not announced");
  RingMemberMap members = resolveRingMembers(registry_);
  HashRing before(members.tokens);
  std::vector<std::string> afterTokens;
  for (const auto& token : members.tokens) {
    if (token != options_.ringToken) afterTokens.push_back(token);
  }
  mw::util::require(!afterTokens.empty(),
                    "ShardHost::leaveRing: last ring member has nobody to inherit its data");
  HashRing after(afterTokens);
  // Each of this member's arcs has exactly one inheritor: the arc's interior
  // holds no other ring point, so once this member's points are gone every
  // key in it maps to the first surviving point at or past arc.hi.
  std::map<std::string, std::vector<RingArc>> byGainer;
  for (const RingArc& arc : before.arcsOf(options_.ringToken)) {
    byGainer[after.ownerForKey(arc.hi)].push_back(arc);
  }
  // From each begin on, the gainer's arcs' readings are consumed by its
  // session (buffered, later forwarded) — the local store is a frozen cut
  // of those objects for the export below.
  struct Drain {
    MigrateBegin request;
    MigrateSession session;
  };
  std::vector<Drain> drains;
  for (auto& [gainer, arcs] : byGainer) {
    const auto endpoint = endpointOf(members, gainer);
    if (!endpoint) {
      util::logWarn("ShardHost", name_, ": arc inheritor ", gainer,
                    " unresolvable; leaving its arcs without handoff");
      continue;
    }
    Drain drain{MigrateBegin{gainer, *endpoint, std::move(arcs), {}, {}}, {}};
    drain.session = beginSession(drain.request);
    drains.push_back(std::move(drain));
  }
  // Leave the ring: stop re-announcing, withdraw the entry. Routers that
  // refresh now recompute ownership and open their dual-read window; readings
  // still routed here land in the sessions.
  announced_.store(false, std::memory_order_release);
  try {
    registry_.withdraw(primaryName_);
  } catch (const util::TransportError&) {
    // Registry gone; the TTL expires the entry on its own.
  }
  std::size_t moved = 0;
  for (const auto& drain : drains) {
    const std::string& gainer = drain.request.gainerToken;
    std::shared_ptr<core::RemoteLocationClient> client;
    try {
      // Imported, not ingested: the readings fired their triggers here when
      // first observed; the inheritor must store them without re-firing.
      client = peerFor(drain.request.gainer);
      for (const auto& object : drain.session.objects) {
        std::vector<db::SensorReading> log = core_->database().exportObjectLog(object);
        if (!log.empty()) client->importBatch(log);
      }
    } catch (const util::MwError&) {
      util::logWarn("ShardHost", name_, ": export to ", gainer,
                    " failed; its arcs stay buffered for a retry");
      continue;
    }
    if (!flushSession(drain.session.id)) {
      util::logWarn("ShardHost", name_, ": drain flush to ", gainer, " failed; keeping its buffer");
      continue;
    }
    try {
      migrateAdopt(*client->rpc(), drain.session.objects);  // the gainer recounts first
    } catch (const util::MwError&) {
      util::logWarn("ShardHost", name_, ": migrate.adopt on ", gainer,
                    " failed; its density rules count the drained objects at their next reading");
    }
    static_cast<void>(endSession(drain.session.id));
    moved += drain.session.objects.size();
  }
  util::logInfo("ShardHost", name_, ": left the ring (", moved, " object(s) drained into ",
                drains.size(), " inheritor(s)); still forwarding stragglers");
}

}  // namespace mw::cluster
