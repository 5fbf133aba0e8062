#include "cluster/cluster_location_service.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cluster/replication.hpp"
#include "orb/shm.hpp"
#include "orb/tcp.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::cluster {

namespace {

/// Claim sentinel for a per-shard subscription registration in flight.
constexpr std::uint64_t kSubPending = ~0ULL;

/// Announced spatial members resolved from a live registry, same shape as
/// the ring resolver (tokens sorted, endpoints parallel).
RingMemberMap resolveSpaceMembers(core::RegistryClient& registry) {
  RingMemberMap map;
  for (const std::string& name : registry.list()) {
    auto token = parseSpaceMemberName(name);
    if (!token) continue;  // unrelated service sharing the registry
    map.tokens.push_back(std::move(*token));
  }
  std::sort(map.tokens.begin(), map.tokens.end());
  map.endpoints.reserve(map.tokens.size());
  for (const std::string& token : map.tokens) {
    map.endpoints.push_back(registry.lookup(spaceMemberName(token)));
  }
  return map;
}

/// Slot accessor that tolerates a shard list that grew since this sub's id
/// vector was sized (ring mode appends members at any refresh). Call with
/// subsMutex_ held.
std::uint64_t& subSlot(std::vector<std::uint64_t>& ids, std::size_t index) {
  if (ids.size() <= index) ids.resize(index + 1, 0);
  return ids[index];
}

}  // namespace

ClusterLocationService::ClusterLocationService(const std::string& registryHost,
                                               std::uint16_t registryPort)
    : ClusterLocationService(registryHost, registryPort, Options{}) {}

ClusterLocationService::ClusterLocationService(const std::string& registryHost,
                                               std::uint16_t registryPort, Options options)
    : options_(options), registry_(registryHost, registryPort) {
  if (options_.partitioning == Partitioning::Spatial) {
    mw::util::require(!options_.universe.empty(),
                      "ClusterLocationService: spatial partitioning needs Options::universe");
    RingMemberMap members = resolveSpaceMembers(registry_);
    if (members.tokens.empty()) {
      throw mw::util::NotFoundError(
          "ClusterLocationService: no location.space.* entry in the registry");
    }
    applySpaceMembers(members);
    return;
  }
  if (options_.partitioning == Partitioning::Ring) {
    RingMemberMap members = resolveRingMembers(registry_);
    if (members.tokens.empty()) {
      throw mw::util::NotFoundError(
          "ClusterLocationService: no location.ring.* entry in the registry");
    }
    applyRingMembers(members);
    return;
  }
  ShardMap map = resolveShardMap(registry_);
  if (map.total == 0) {
    throw mw::util::NotFoundError(
        "ClusterLocationService: no location.shard.* entry in the registry");
  }
  total_ = map.total;
  auto shards = std::make_shared<std::vector<std::shared_ptr<Shard>>>();
  shards->reserve(total_);
  for (std::size_t i = 0; i < total_; ++i) {
    auto shard = std::make_shared<Shard>(options_.retry);
    shard->index = i;
    shard->endpoint = map.endpoints[i];
    shards->push_back(std::move(shard));
  }
  {
    std::lock_guard lock(shardsMutex_);
    shards_ = std::move(shards);
  }
}

std::shared_ptr<std::vector<std::shared_ptr<ClusterLocationService::Shard>>>
ClusterLocationService::shardsSnapshot() const {
  std::lock_guard lock(shardsMutex_);
  return shards_;
}

std::shared_ptr<const ClusterLocationService::RingState> ClusterLocationService::ringSnapshot()
    const {
  std::lock_guard lock(shardsMutex_);
  return ringState_;
}

std::size_t ClusterLocationService::shardCount() const {
  if (options_.partitioning == Partitioning::Modulo) return total_;
  return shardsSnapshot()->size();
}

std::size_t ClusterLocationService::shardFor(const util::MobileObjectId& object) const {
  if (options_.partitioning == Partitioning::Modulo) return shardForObject(object, total_);
  if (options_.partitioning == Partitioning::Spatial) {
    std::lock_guard lock(spatialMutex_);
    auto home = homeOf_.find(object);
    const std::string& owner = home != homeOf_.end()
                                   ? home->second
                                   : territory_.ownerForPoint(territory_.universe().center());
    return spaceSlotOf_.at(owner);
  }
  auto state = ringSnapshot();
  return state->slotOf.at(state->ring.ownerForObject(object));
}

bool ClusterLocationService::dualReadWindowOpen() const {
  auto state = ringSnapshot();
  return state && state->window;
}

void ClusterLocationService::setEndpoint(const std::shared_ptr<Shard>& shard,
                                         const std::optional<core::Endpoint>& fresh,
                                         std::vector<std::shared_ptr<Shard>>& lost) {
  std::lock_guard lock(shard->connectMutex);
  if (shard->endpoint == fresh) return;
  shard->endpoint = fresh;
  if (!shard->client) return;
  shard->client.reset();
  lost.push_back(shard);
}

std::shared_ptr<std::vector<std::shared_ptr<ClusterLocationService::Shard>>>
ClusterLocationService::mergeMembers(const RingMemberMap& members,
                                     std::unordered_map<std::string, std::size_t>& slotOf,
                                     bool keepLapsed, std::vector<std::shared_ptr<Shard>>& lost) {
  auto shards = std::make_shared<std::vector<std::shared_ptr<Shard>>>();
  if (auto old = shardsSnapshot()) *shards = *old;
  for (std::size_t i = 0; i < members.tokens.size(); ++i) {
    const std::string& token = members.tokens[i];
    const std::optional<core::Endpoint>& fresh = members.endpoints[i];
    auto slot = slotOf.find(token);
    if (slot == slotOf.end()) {
      auto shard = std::make_shared<Shard>(options_.retry);
      shard->index = shards->size();
      shard->token = token;
      shard->endpoint = fresh;
      slotOf.emplace(token, shard->index);
      shards->push_back(std::move(shard));
    } else if (fresh || !keepLapsed) {
      // A changed endpoint is a promotion (same name, the backup's
      // address): drop the dead primary's connection and carry on.
      setEndpoint((*shards)[slot->second], fresh, lost);
    }
  }
  {
    // Grow every subscription's per-shard id vector BEFORE the wider shard
    // list is visible, so a replay on a new member never indexes past the
    // end.
    std::lock_guard lock(subsMutex_);
    for (auto& [id, sub] : subs_) {
      if (sub->shardSubIds.size() < shards->size()) sub->shardSubIds.resize(shards->size(), 0);
    }
  }
  return shards;
}

void ClusterLocationService::applyRingMembers(const RingMemberMap& members) {
  auto oldState = ringSnapshot();
  auto state = std::make_shared<RingState>();
  if (oldState) state->slotOf = oldState->slotOf;
  std::vector<std::shared_ptr<Shard>> lostConnection;
  // No window for a changed endpoint: a promoted backup holds every acked
  // reading.
  auto shards = mergeMembers(members, state->slotOf, /*keepLapsed=*/false, lostConnection);
  HashRing fresh(members.tokens);
  if (!oldState) {
    state->ring = fresh;
    state->prev = fresh;
  } else if (fresh.empty()) {
    // Registry momentarily empty (every member between heartbeats): keep
    // routing by the last known ring rather than failing every call.
    state->ring = oldState->ring;
    state->prev = oldState->prev;
    state->window = oldState->window;
  } else if (oldState->ring.members() == fresh.members()) {
    // Unchanged membership: any straddled change is settled; close the
    // dual-read window.
    state->ring = std::move(fresh);
    state->prev = state->ring;
    state->window = false;
  } else {
    state->prev = oldState->ring;
    state->ring = std::move(fresh);
    state->window = true;
  }
  // Members that left the listing keep their slot (stable indices) but stop
  // being routable until they announce again — EXCEPT while the dual-read
  // window straddles their departure: a planned leaver (ShardHost::
  // leaveRing) has withdrawn but keeps serving, and mid-window ingest for
  // its old arcs still routes to it (the previous owner), so its endpoint
  // must survive until the window closes.
  for (const auto& [token, slot] : state->slotOf) {
    if (std::binary_search(members.tokens.begin(), members.tokens.end(), token)) continue;
    if (state->window && state->prev.hasMember(token)) continue;
    setEndpoint((*shards)[slot], std::nullopt, lostConnection);
  }
  {
    std::lock_guard lock(shardsMutex_);
    shards_ = std::move(shards);
    ringState_ = std::move(state);
  }
  for (const auto& shard : lostConnection) clearShardSubscriptions(*shard);
}

void ClusterLocationService::applySpaceMembers(const RingMemberMap& members) {
  std::unordered_map<std::string, std::size_t> slotOf;
  {
    std::lock_guard lock(spatialMutex_);
    slotOf = spaceSlotOf_;
  }
  std::vector<std::shared_ptr<Shard>> lostConnection;
  // A lapsed heartbeat is not a territory reassignment: the member's
  // rectangles still belong to it (failover is replication's job — a
  // promoted backup reappears under the SAME name), so keep the endpoint
  // rather than blackholing a whole territory.
  auto shards = mergeMembers(members, slotOf, /*keepLapsed=*/true, lostConnection);
  {
    std::lock_guard lock(shardsMutex_);
    shards_ = std::move(shards);
  }
  {
    std::lock_guard lock(spatialMutex_);
    spaceSlotOf_ = std::move(slotOf);
  }
  for (const auto& shard : lostConnection) clearShardSubscriptions(*shard);

  // Territory: adopt the registry's published map when it is newer than
  // ours; bootstrap (and publish) the uniform split when nobody has
  // published one yet. uniform() is a pure function of the member set, so
  // racing routers compute identical maps and the version fence picks one.
  std::optional<core::RegistryClient::Meta> meta;
  try {
    meta = registry_.getMeta(kTerritoryMetaName);
  } catch (const util::TransportError&) {
    // Registry blind this refresh; keep routing by the map we have.
  }
  bool needBootstrap = false;
  {
    std::lock_guard lock(spatialMutex_);
    if (meta) {
      try {
        TerritoryMap fetched = TerritoryMap::decode(meta->value);
        if (fetched.version() > territory_.version()) territory_ = std::move(fetched);
      } catch (const util::MwError&) {
        util::logWarn("ClusterLocationService",
                      "published territory map undecodable; keeping the local one");
      }
    }
    needBootstrap = territory_.empty();
  }
  if (needBootstrap) {
    TerritoryMap uniform = TerritoryMap::uniform(options_.universe, members.tokens);
    try {
      registry_.putMeta(kTerritoryMetaName, uniform.encode(), uniform.version());
    } catch (const util::TransportError&) {
      // Unpublished but still correct locally; the next refresh retries.
    }
    std::lock_guard lock(spatialMutex_);
    if (territory_.empty()) territory_ = std::move(uniform);
  }
}

void ClusterLocationService::refreshShardMap() {
  // Ingest threads refresh on a shard's kMovedError too; one at a time, so
  // no merge works from a snapshot another one is replacing.
  std::lock_guard refresh(refreshMutex_);
  if (options_.partitioning == Partitioning::Spatial) {
    applySpaceMembers(resolveSpaceMembers(registry_));
    return;
  }
  if (options_.partitioning == Partitioning::Ring) {
    applyRingMembers(resolveRingMembers(registry_));
    return;
  }
  ShardMap map = resolveShardMap(registry_);
  if (map.total != 0 && map.total != total_) {
    throw mw::util::ContractError(
        "ClusterLocationService::refreshShardMap: cluster width changed (" +
        std::to_string(total_) + " -> " + std::to_string(map.total) +
        "); repartitioning needs a new router");
  }
  auto shards = shardsSnapshot();
  std::vector<std::shared_ptr<Shard>> lostConnection;
  for (std::size_t i = 0; i < total_; ++i) {
    setEndpoint((*shards)[i], map.total == 0 ? std::nullopt : map.endpoints[i], lostConnection);
  }
  for (const auto& shard : lostConnection) clearShardSubscriptions(*shard);
}

ClusterLocationService::Route ClusterLocationService::routeFor(
    const std::vector<std::shared_ptr<Shard>>& shards, const RingState* state,
    const util::MobileObjectId& object, bool ingestPath) const {
  Route route;
  if (!state) {
    route.target = shards[shardForObject(object, total_)];
    return route;
  }
  const std::string& owner = state->ring.ownerForObject(object);
  route.target = shards[state->slotOf.at(owner)];
  if (!state->window) return route;
  const std::string& prevOwner = state->prev.ownerForObject(object);
  if (prevOwner == owner) return route;
  const std::shared_ptr<Shard>& prev = shards[state->slotOf.at(prevOwner)];
  if (ingestPath) {
    // Mid-window writes go to the PREVIOUS owner: its handoff session
    // buffers or forwards them to the joiner in per-object order, which a
    // direct write to the joiner (racing the log replay) would break.
    route.target = prev;
    route.fallback = nullptr;
  } else {
    // Reads try the new owner, but until the logs have moved it may not
    // know the object — the previous owner still does.
    route.fallback = prev;
  }
  return route;
}

ClusterLocationService::Route ClusterLocationService::spatialRouteFor(
    const std::vector<std::shared_ptr<Shard>>& shards, const util::MobileObjectId& object,
    const geo::Point2* ingestPoint, bool ingestPath) {
  Route route;
  std::lock_guard lock(spatialMutex_);
  std::size_t targetSlot = 0;
  std::size_t fallbackSlot = 0;
  bool hasFallback = false;
  if (auto move = moving_.find(object); move != moving_.end()) {
    if (ingestPath) {
      // Mid-migration writes keep going to the OLD home: its handoff
      // session buffers or forwards them in per-object order, which a
      // direct write to the gainer (racing the log replay) would break.
      targetSlot = spaceSlotOf_.at(move->second.from);
    } else {
      targetSlot = spaceSlotOf_.at(move->second.to);
      fallbackSlot = spaceSlotOf_.at(move->second.from);
      hasFallback = true;
    }
  } else if (auto home = homeOf_.find(object); home != homeOf_.end()) {
    targetSlot = spaceSlotOf_.at(home->second);
  } else if (ingestPoint != nullptr) {
    // First sighting: home the object where its evidence box centers.
    const std::string& owner = territory_.ownerForPoint(*ingestPoint);
    if (ingestPath) homeOf_.emplace(object, owner);
    targetSlot = spaceSlotOf_.at(owner);
  } else {
    // Unknown object and no evidence anywhere: every shard answers the
    // same ("unknown" / the bare prior), so probe one deterministically.
    targetSlot = spaceSlotOf_.at(territory_.ownerForPoint(territory_.universe().center()));
  }
  if (ingestPath && ingestPoint != nullptr) {
    ++leafReadings_[territory_.leafForPoint(*ingestPoint).id];
  }
  route.target = shards[targetSlot];
  if (hasFallback && fallbackSlot != targetSlot) route.fallback = shards[fallbackSlot];
  return route;
}

void ClusterLocationService::maybeMigrateAfterIngest(const util::MobileObjectId& object,
                                                     const geo::Point2& center) {
  std::string from;
  std::string to;
  {
    std::lock_guard lock(spatialMutex_);
    if (moving_.contains(object)) return;  // already on its way
    auto home = homeOf_.find(object);
    if (home == homeOf_.end()) return;
    to = territory_.ownerForPoint(center);
    if (to == home->second) return;
    from = home->second;
  }
  // Boundary crossing: the reading was applied at the old home first (per-
  // object order); now the whole log follows the object across the border.
  migrateObjects(from, to, {object}, {}, std::nullopt);
}

bool ClusterLocationService::migrateObjects(const std::string& from, const std::string& to,
                                            std::vector<util::MobileObjectId> explicitObjects,
                                            const std::vector<geo::Rect>& rects,
                                            const std::optional<TerritoryMap>& newMap) {
  std::lock_guard migration(migrationMutex_);
  auto shards = shardsSnapshot();
  std::shared_ptr<Shard> loser;
  std::shared_ptr<Shard> gainer;
  {
    std::lock_guard lock(spatialMutex_);
    auto fromSlot = spaceSlotOf_.find(from);
    auto toSlot = spaceSlotOf_.find(to);
    if (fromSlot == spaceSlotOf_.end() || toSlot == spaceSlotOf_.end() ||
        fromSlot->second >= shards->size() || toSlot->second >= shards->size()) {
      return false;
    }
    loser = (*shards)[fromSlot->second];
    gainer = (*shards)[toSlot->second];
    // Re-check under the migration serializer: a migration this call queued
    // behind may already have moved (or be moving) some of these.
    std::erase_if(explicitObjects, [&](const util::MobileObjectId& object) {
      auto home = homeOf_.find(object);
      return home == homeOf_.end() || home->second != from || moving_.contains(object);
    });
    if (explicitObjects.empty() && rects.empty()) return true;  // nothing left to move
  }
  auto loserClient = clientFor(*loser);
  auto gainerClient = clientFor(*gainer);
  std::optional<core::Endpoint> gainerEndpoint;
  {
    std::lock_guard lock(gainer->connectMutex);
    gainerEndpoint = gainer->endpoint;
  }
  if (!loserClient || !gainerClient || !gainerEndpoint) return false;

  MigrateSession session;
  const std::vector<util::MobileObjectId>& affected = session.objects;
  const char* step = "begin";
  try {
    // 1. Loser installs the session (its tap starts consuming the moving
    //    objects' readings) and reports the full affected set — explicit
    //    objects plus residents of the migrated rects.
    session = migrateBegin(*loserClient->rpc(),
                           MigrateBegin{to, *gainerEndpoint, {}, explicitObjects, rects});
    // 2. Gainer prunes its own stale forwarding sessions BEFORE any forward
    //    can arrive — an object migrating back must not chase its own tail.
    step = "adopt";
    migrateAdopt(*gainerClient->rpc(), affected);
    // 3. Mark moving: ingest keeps targeting the loser (whose session now
    //    buffers these objects' readings), reads double-route new-then-old.
    {
      std::lock_guard lock(spatialMutex_);
      for (const auto& object : affected) moving_[object] = Move{from, to};
    }
    // 4. Spill subscriptions against the coverage the gainer is ABOUT to
    //    have, before the flush, so the flushed buffered readings find
    //    their triggers registered, and before the import, so a density
    //    rule's seed on the gainer does not count objects the loser still
    //    holds. (Registration is monotone: an extra shard carrying a
    //    trigger is harmless — one home per object means no duplicate
    //    notifications.)
    TerritoryMap coverage;
    if (newMap) {
      coverage = *newMap;
    } else {
      std::lock_guard lock(spatialMutex_);
      coverage = territory_;
    }
    step = "spill";
    spillSubscriptionsOnto(*gainer, to, coverage);
    // 5. Log replay: importBatch stores quietly — the triggers these
    //    readings matched already fired where they were first ingested.
    step = "export";
    for (const auto& object : affected) {
      auto log = loserClient->exportReadings(object);
      if (!log.empty()) gainerClient->importBatch(log);
    }
    // 6. Flush: buffered readings drain into the gainer (export first, then
    //    buffer FIFO — per-object order holds), session switches to live
    //    forwarding.
    step = "flush";
    if (!migrateFlush(*loserClient->rpc(), session.id)) {
      throw mw::util::TransportError("migrate.flush refused (session lost?)");
    }
    // 7. The gainer recounts its density rules for the moved objects. Its
    //    notifications reach this router on the connection the reply comes
    //    back on, so they are folded in before the loser's drop below is.
    // The flush committed the move, so a failed recount only warns.
    try {
      migrateAdopt(*gainerClient->rpc(), affected);
    } catch (const util::MwError& e) {
      util::logWarn("ClusterLocationService", "density recount on ", to, " failed: ", e.what());
    }
    // 8. End: the loser drops the moved objects and recounts its density
    //    rules; the session keeps forwarding stragglers that raced the home
    //    flip.
    step = "end";
    if (!migrateEnd(*loserClient->rpc(), session.id)) {
      util::logWarn("ClusterLocationService", "migrate.end refused by ", from,
                    "; moved objects linger there until the next migration");
    }
  } catch (const util::MwError& e) {
    // Homes stay put and ingest keeps flowing to the loser, whose session
    // (where installed) keeps buffering the objects' readings until the
    // next migration attempt's migrate.begin prunes it and applies the
    // buffer to the loser's store, ahead of that attempt's export.
    {
      std::lock_guard lock(spatialMutex_);
      for (const auto& object : affected) moving_.erase(object);
    }
    util::logWarn("ClusterLocationService", "migration ", from, " -> ", to, " failed at ", step,
                  ": ", e.what());
    return false;
  }
  // 9. The flip: from here reads and ingest route to the gainer.
  util::Bytes encoded;
  std::uint64_t publishVersion = 0;
  {
    std::lock_guard lock(spatialMutex_);
    for (const auto& object : affected) {
      homeOf_[object] = to;
      moving_.erase(object);
    }
    if (newMap && newMap->version() > territory_.version()) territory_ = *newMap;
    if (newMap) {
      encoded = territory_.encode();
      publishVersion = territory_.version();
    }
  }
  objectMigrations_.fetch_add(affected.size(), std::memory_order_relaxed);
  if (newMap) {
    try {
      registry_.putMeta(kTerritoryMetaName, encoded, publishVersion);
    } catch (const util::TransportError&) {
      // This router already routes by it; peers converge on the next
      // publish (the version fence makes republishing safe).
      util::logWarn("ClusterLocationService",
                    "territory map v", publishVersion, " publish failed; retrying later");
    }
  }
  return true;
}

void ClusterLocationService::spillSubscriptionsOnto(Shard& shard, const std::string& token,
                                                    const TerritoryMap& map) {
  std::vector<std::pair<util::SubscriptionId, std::shared_ptr<ClusterSub>>> candidates;
  {
    std::lock_guard lock(subsMutex_);
    for (auto& [id, sub] : subs_) {
      if (subSlot(sub->shardSubIds, shard.index) != 0) continue;
      candidates.emplace_back(util::SubscriptionId{id}, sub);
    }
  }
  for (auto& [clusterId, sub] : candidates) {
    if (!territoryCovers(map, token, sub->region)) continue;
    subscribeOnShard(shard, clusterId, sub);  // claims the slot itself
  }
}

bool ClusterLocationService::territoryCovers(const TerritoryMap& map, const std::string& token,
                                             const geo::Rect& region) const {
  const geo::Rect inflated = region.inflated(options_.regionSlack);
  for (const auto& leaf : map.leaves()) {
    if (leaf.owner == token && leaf.rect.intersects(inflated)) return true;
  }
  return false;
}

bool ClusterLocationService::territoryCovers(const std::string& token,
                                             const geo::Rect& region) const {
  std::lock_guard lock(spatialMutex_);
  return territoryCovers(territory_, token, region);
}

TerritoryMap ClusterLocationService::territorySnapshot() const {
  std::lock_guard lock(spatialMutex_);
  return territory_;
}

std::size_t ClusterLocationService::movingObjects() const {
  std::lock_guard lock(spatialMutex_);
  return moving_.size();
}

bool ClusterLocationService::rebalanceOnce(double hotColdRatio, std::uint64_t minReadings) {
  mw::util::require(options_.partitioning == Partitioning::Spatial,
                    "ClusterLocationService::rebalanceOnce: spatial mode only");
  TerritoryMap map;
  std::unordered_map<std::uint32_t, std::uint64_t> heat;
  {
    std::lock_guard lock(spatialMutex_);
    map = territory_;
    heat = leafReadings_;
  }
  if (map.empty()) return false;
  auto leafLoad = [&heat](std::uint32_t id) {
    auto it = heat.find(id);
    return it == heat.end() ? std::uint64_t{0} : it->second;
  };
  // Owner loads from the router's own routed-readings heat map (an ordered
  // map so ties break deterministically by token).
  std::map<std::string, std::uint64_t> loadOf;
  for (const std::string& owner : map.owners()) loadOf[owner] = 0;
  for (const auto& leaf : map.leaves()) loadOf[leaf.owner] += leafLoad(leaf.id);
  if (loadOf.size() < 2) return false;
  std::string hotOwner;
  std::string coldOwner;
  std::uint64_t hotLoad = 0;
  std::uint64_t coldLoad = 0;
  for (const auto& [owner, load] : loadOf) {
    if (hotOwner.empty() || load > hotLoad) {
      hotOwner = owner;
      hotLoad = load;
    }
    if (coldOwner.empty() || load < coldLoad) {
      coldOwner = owner;
      coldLoad = load;
    }
  }
  // Balanced enough: not hot at all, or the spread is within the ratio.
  if (hotOwner == coldOwner || hotLoad < minReadings) return false;
  if (static_cast<double>(hotLoad) < hotColdRatio * static_cast<double>(coldLoad)) return false;
  // Split the hot owner's hottest leaf; its fresh high half goes cold.
  const TerritoryLeaf* hottest = nullptr;
  std::uint64_t hottestLoad = 0;
  for (const auto& leaf : map.leaves()) {
    if (leaf.owner != hotOwner) continue;
    if (!hottest || leafLoad(leaf.id) > hottestLoad) {
      hottest = &leaf;
      hottestLoad = leafLoad(leaf.id);
    }
  }
  if (!hottest) return false;
  TerritoryMap next;
  try {
    next = map.splitLeaf(hottest->id, coldOwner);
  } catch (const util::ContractError&) {
    return false;  // leaf too thin to split further
  }
  const TerritoryLeaf moved = next.leaves().back();  // the fresh high half
  if (!migrateObjects(hotOwner, coldOwner, {}, {moved.rect}, next)) return false;
  {
    // Reset both halves' heat: the decision spent it, and fresh traffic
    // should drive the next one.
    std::lock_guard lock(spatialMutex_);
    leafReadings_[hottest->id] = 0;
    leafReadings_[moved.id] = 0;
  }
  territorySplits_.fetch_add(1, std::memory_order_relaxed);
  util::logInfo("ClusterLocationService", "rebalance: split leaf ", hottest->id, " of ",
                hotOwner, " (load ", hotLoad, ") and moved half to ", coldOwner, " (load ",
                coldLoad, ")");
  return true;
}

void ClusterLocationService::startBalancer(std::chrono::milliseconds period, double hotColdRatio,
                                           std::uint64_t minReadings) {
  mw::util::require(options_.partitioning == Partitioning::Spatial,
                    "ClusterLocationService::startBalancer: spatial mode only");
  mw::util::require(period.count() > 0, "ClusterLocationService::startBalancer: period must be > 0");
  std::lock_guard lock(balancerMutex_);
  balancerRatio_ = hotColdRatio;
  balancerMinReadings_ = minReadings;
  balancerPeriod_ = period;
  if (balancerThread_.joinable()) return;  // running: parameters updated in place
  balancerStop_ = false;
  balancerThread_ = std::thread([this] {
    std::unique_lock lock(balancerMutex_);
    while (!balancerStop_) {
      const auto period = balancerPeriod_;
      if (balancerCv_.wait_for(lock, period, [this] { return balancerStop_; })) break;
      const double ratio = balancerRatio_;
      const std::uint64_t minReadings = balancerMinReadings_;
      // The pass runs outside balancerMutex_ so stopBalancer() (and
      // parameter updates) never wait behind a live migration.
      lock.unlock();
      try {
        rebalanceOnce(ratio, minReadings);
      } catch (const std::exception& e) {
        util::logWarn("ClusterLocationService", "balancer pass failed: ", e.what());
      }
      balancerPasses_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
  });
}

void ClusterLocationService::stopBalancer() {
  std::thread worker;
  {
    std::lock_guard lock(balancerMutex_);
    if (!balancerThread_.joinable()) return;
    balancerStop_ = true;
    worker = std::move(balancerThread_);
  }
  balancerCv_.notify_all();
  worker.join();
}

bool ClusterLocationService::balancerRunning() const {
  std::lock_guard lock(balancerMutex_);
  return balancerThread_.joinable();
}

ClusterLocationService::~ClusterLocationService() { stopBalancer(); }

std::shared_ptr<core::RemoteLocationClient> ClusterLocationService::clientFor(Shard& shard) {
  std::shared_ptr<core::RemoteLocationClient> fresh;
  {
    std::lock_guard lock(shard.connectMutex);
    if (shard.client) return shard.client;
    if (!shard.endpoint) return nullptr;
    try {
      std::shared_ptr<orb::Transport> transport;
      if (!shard.endpoint->shmName.empty()) {
        // Colocated lane: the shard announced a shared-memory listener. The
        // name only resolves on the shard's own host — elsewhere (or when
        // the region is gone) fall back to TCP.
        try {
          transport = orb::shmConnect(shard.endpoint->shmName);
        } catch (const util::TransportError&) {
          util::logWarn("ClusterLocationService", "shard ", shard.index,
                        ": shm lane ", shard.endpoint->shmName,
                        " unreachable; falling back to tcp");
        }
      }
      if (!transport) {
        transport = orb::tcpConnect(shard.endpoint->host, shard.endpoint->port);
      }
      auto rpc = std::make_shared<orb::RpcClient>(std::move(transport));
      rpc->setCallTimeout(options_.retry.callDeadline);
      fresh = std::make_shared<core::RemoteLocationClient>(std::move(rpc));
      shard.client = fresh;
      shard.health.recordReconnect();
    } catch (const util::TransportError&) {
      return nullptr;
    }
  }
  // Outside the connect lock: a fresh connection carries none of the
  // cluster's subscriptions — replay them before traffic flows.
  replaySubscriptions(shard, *fresh);
  return fresh;
}

void ClusterLocationService::dropClient(Shard& shard) {
  {
    std::lock_guard lock(shard.connectMutex);
    shard.client.reset();
  }
  clearShardSubscriptions(shard);
}

void ClusterLocationService::clearShardSubscriptions(Shard& shard) {
  // The connection is gone, and with it every subscription registered on
  // it; zero the slots so the next reconnect replays them.
  std::lock_guard lock(subsMutex_);
  for (auto& [id, sub] : subs_) {
    std::uint64_t& slot = subSlot(sub->shardSubIds, shard.index);
    if (slot != kSubPending) slot = 0;
    if (sub->agg && slot == 0) {
      // The shard's count is unknowable until the replay re-registers and
      // seeds a fresh one; drop it silently (no callback churn) so the
      // fill-if-absent seed on reconnect takes.
      std::lock_guard aggLock(sub->agg->mutex);
      sub->agg->countOf.erase(shard.index);
    }
  }
}

template <typename R>
std::optional<R> ClusterLocationService::callShard(
    Shard& shard, const std::function<R(core::RemoteLocationClient&)>& fn) {
  if (shard.health.down() && !shard.health.tryClaimProbe()) return std::nullopt;
  const std::size_t attempts = 1 + options_.retry.maxRetries;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      shard.health.recordRetry();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.retry.backoffDelay(attempt - 1).count()));
    }
    auto client = clientFor(shard);
    if (!client) {
      shard.health.recordFailure(/*timedOut=*/false);
      if (shard.health.down() && attempt + 1 < attempts && !shard.health.tryClaimProbe()) {
        return std::nullopt;  // went down mid-budget; stop hammering
      }
      continue;
    }
    shard.health.recordCall();
    try {
      R result = fn(*client);
      shard.health.recordSuccess();
      return result;
    } catch (const util::TimeoutError&) {
      // Slow, not provably dead: keep the connection (a late reply is
      // discarded by the RpcClient), back off, retry.
      shard.health.recordFailure(/*timedOut=*/true);
    } catch (const util::TransportError&) {
      // Connection gone: reconnect on the next attempt.
      shard.health.recordFailure(/*timedOut=*/false);
      dropClient(shard);
    }
    // util::MwError (an Error reply) propagates: the shard is healthy and
    // answered — the error belongs to the caller, not the failure policy.
  }
  return std::nullopt;
}

void ClusterLocationService::probeDownShards() {
  auto shards = shardsSnapshot();
  for (const auto& shard : *shards) {
    if (!shard->health.down()) continue;
    callShard<bool>(*shard, [](core::RemoteLocationClient& client) {
      client.ping();
      return true;
    });
  }
}

// --- object-routed calls ------------------------------------------------------

ClusterLocationService::Route ClusterLocationService::routeOf(
    const std::vector<std::shared_ptr<Shard>>& shards, const RingState* state,
    const util::MobileObjectId& object, const geo::Point2* ingestAt) {
  if (options_.partitioning == Partitioning::Spatial) {
    return spatialRouteFor(shards, object, ingestAt, /*ingestPath=*/ingestAt != nullptr);
  }
  return routeFor(shards, state, object, /*ingestPath=*/ingestAt != nullptr);
}

template <typename R>
std::optional<R> ClusterLocationService::readRouted(
    const util::MobileObjectId& object, const std::function<R(core::RemoteLocationClient&)>& fn,
    const std::function<bool(const R&)>& answered) {
  const Route route = routeOf(*shardsSnapshot(), ringSnapshot().get(), object, nullptr);
  auto result = callShard<R>(*route.target, fn);
  if ((result && answered(*result)) || !route.fallback) {
    if (!result) failedRoutedCalls_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  // Dual-read window or mid-migration: the new owner has no evidence yet —
  // the previous owner is still authoritative for this object.
  auto fallback = callShard<R>(*route.fallback, fn);
  if (fallback && answered(*fallback)) return fallback;
  if (!result && !fallback) failedRoutedCalls_.fetch_add(1, std::memory_order_relaxed);
  return result ? result : fallback;
}

std::optional<bool> ClusterLocationService::sendIngest(
    Shard& shard, const std::function<void(core::RemoteLocationClient&)>& send, bool& moved) {
  try {
    return callShard<bool>(shard, [&](core::RemoteLocationClient& client) {
      send(client);
      return true;
    });
  } catch (const util::MwError& e) {
    if (std::string_view(e.what()).find(kMovedError) == std::string_view::npos) throw;
    moved = true;
    return std::nullopt;
  }
}

bool ClusterLocationService::refreshAfterMoved() {
  try {
    refreshShardMap();
    return true;
  } catch (const util::MwError&) {
    return false;
  }
}

void ClusterLocationService::ingest(const db::SensorReading& reading) {
  const auto send = [&](core::RemoteLocationClient& client) { client.ingest(reading); };
  const geo::Point2 center = reading.rect().center();
  const auto target = [&] {
    return routeOf(*shardsSnapshot(), ringSnapshot().get(), reading.mobileObjectId, &center).target;
  };
  const auto first = target();
  bool moved = false;
  auto ok = sendIngest(*first, send, moved);
  if (moved) {
    // Refused by a shard that retired the migration session this router's
    // map still relies on: refresh the map and route once more.
    if (refreshAfterMoved()) ok = sendIngest(*target(), send, moved);
  } else if (!ok && options_.partitioning == Partitioning::Ring) {
    // A refresh closing the dual-read window may have cleared the previous
    // owner's endpoint under this call: route once more if the route moved.
    if (const auto again = target(); again != first) ok = sendIngest(*again, send, moved);
  }
  if (!ok) {
    failedRoutedCalls_.fetch_add(1, std::memory_order_relaxed);
    droppedIngestReadings_.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.partitioning == Partitioning::Spatial) {
    maybeMigrateAfterIngest(reading.mobileObjectId, center);
  }
}

std::vector<db::SensorReading> ClusterLocationService::sendBatch(
    std::span<const db::SensorReading> readings, bool& moved) {
  // Partition by target shard; a stable partition keeps each object's
  // readings in their original relative order inside its sub-batch.
  auto shards = shardsSnapshot();
  auto state = ringSnapshot();
  std::vector<std::vector<db::SensorReading>> parts(shards->size());
  for (const auto& reading : readings) {
    const geo::Point2 center = reading.rect().center();
    parts[routeOf(*shards, state.get(), reading.mobileObjectId, &center).target->index].push_back(
        reading);
  }
  std::vector<db::SensorReading> unsent;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) continue;
    bool partMoved = false;
    auto ok = sendIngest(
        *(*shards)[i],
        [&](core::RemoteLocationClient& client) { client.ingestBatch(parts[i]); }, partMoved);
    if (ok) continue;
    // Refused as moved, or failed while a refresh moved the route (see
    // ingest()): the caller routes the part once more.
    const bool rerouted =
        partMoved || (options_.partitioning == Partitioning::Ring &&
                      routeFor(*shardsSnapshot(), ringSnapshot().get(),
                               parts[i].front().mobileObjectId, /*ingestPath=*/true)
                              .target->index != i);
    if (rerouted) {
      moved = moved || partMoved;
      unsent.insert(unsent.end(), parts[i].begin(), parts[i].end());
    } else {
      failedRoutedCalls_.fetch_add(1, std::memory_order_relaxed);
      droppedIngestReadings_.fetch_add(parts[i].size(), std::memory_order_relaxed);
    }
  }
  return unsent;
}

void ClusterLocationService::ingestBatch(std::span<const db::SensorReading> readings) {
  if (readings.empty()) return;
  bool moved = false;
  std::vector<db::SensorReading> unsent = sendBatch(readings, moved);
  if (!unsent.empty() && (!moved || refreshAfterMoved())) {
    bool again = false;
    unsent = sendBatch(unsent, again);
  }
  if (!unsent.empty()) {
    failedRoutedCalls_.fetch_add(1, std::memory_order_relaxed);
    droppedIngestReadings_.fetch_add(unsent.size(), std::memory_order_relaxed);
  }
  if (options_.partitioning != Partitioning::Spatial) return;
  // A batch is applied entirely at the current homes first, then each
  // object whose LAST evidence center left its home migrates.
  std::vector<std::pair<util::MobileObjectId, geo::Point2>> lastCenter;
  std::unordered_map<util::MobileObjectId, std::size_t> lastCenterIndex;
  for (const auto& reading : readings) {
    const geo::Point2 center = reading.rect().center();
    auto [it, inserted] = lastCenterIndex.emplace(reading.mobileObjectId, lastCenter.size());
    if (inserted) {
      lastCenter.emplace_back(reading.mobileObjectId, center);
    } else {
      lastCenter[it->second].second = center;
    }
  }
  for (const auto& [object, center] : lastCenter) maybeMigrateAfterIngest(object, center);
}

std::optional<fusion::LocationEstimate> ClusterLocationService::locate(
    const util::MobileObjectId& object) {
  using Estimate = std::optional<fusion::LocationEstimate>;
  auto result = readRouted<Estimate>(
      object, [&](core::RemoteLocationClient& client) { return client.locate(object); },
      [](const Estimate& estimate) { return estimate.has_value(); });
  return result ? *result : std::nullopt;
}

std::string ClusterLocationService::locateSymbolic(const util::MobileObjectId& object) {
  auto result = readRouted<std::string>(
      object, [&](core::RemoteLocationClient& client) { return client.locateSymbolic(object); },
      [](const std::string& name) { return !name.empty(); });
  return result ? *result : "";
}

// --- scatter-gather -----------------------------------------------------------

template <typename R>
std::vector<std::optional<R>> ClusterLocationService::scatter(
    const std::vector<std::shared_ptr<Shard>>& shards,
    const std::function<R(core::RemoteLocationClient&)>& fn) {
  std::vector<std::optional<R>> results(shards.size());
  std::vector<std::thread> workers;
  workers.reserve(shards.size());
  std::mutex errorMutex;
  std::exception_ptr error;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    workers.emplace_back([&, i] {
      try {
        results[i] = callShard<R>(*shards[i], fn);
      } catch (...) {
        // A remote application error (util::MwError) — keep the first.
        std::lock_guard lock(errorMutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
  return results;
}

double ClusterLocationService::probabilityInRegion(const util::MobileObjectId& object,
                                                   const geo::Rect& region) {
  auto shards = shardsSnapshot();
  if (options_.partitioning == Partitioning::Spatial) {
    // Object-homed, not region-scattered: the home shard holds the object's
    // whole log, so its fused answer IS the oracle's winning (evidence-
    // bearing) answer; no other shard could beat it. Unknown objects get
    // the bare prior, which every shard computes identically.
    targetedRegionQueries_.fetch_add(1, std::memory_order_relaxed);
    Route route = spatialRouteFor(*shards, object, nullptr, /*ingestPath=*/false);
    regionShardsQueried_.fetch_add(route.fallback ? 2 : 1, std::memory_order_relaxed);
    auto reply = callShard<core::RemoteLocationClient::RegionProbability>(
        *route.target, [&](core::RemoteLocationClient& client) {
          return client.probabilityInRegionEx(object, region);
        });
    if (reply && reply->hasEvidence) return reply->probability;
    if (route.fallback) {
      // Mid-migration: the new home may not hold the log yet.
      auto fallback = callShard<core::RemoteLocationClient::RegionProbability>(
          *route.fallback, [&](core::RemoteLocationClient& client) {
            return client.probabilityInRegionEx(object, region);
          });
      if (fallback && fallback->hasEvidence) return fallback->probability;
      if (!reply) reply = fallback;
    }
    if (!reply) {
      throw mw::util::TransportError(
          "ClusterLocationService::probabilityInRegion: no shard answered");
    }
    return reply->probability;  // no evidence anywhere: the bare prior
  }
  scatterGathers_.fetch_add(1, std::memory_order_relaxed);
  auto replies = scatter<core::RemoteLocationClient::RegionProbability>(
      *shards, [&](core::RemoteLocationClient& client) {
        return client.probabilityInRegionEx(object, region);
      });

  std::size_t answered = 0;
  bool anyEvidence = false;
  double best = 0;
  double bestPrior = 0;
  for (const auto& reply : replies) {
    if (!reply) continue;
    ++answered;
    if (reply->hasEvidence) {
      best = anyEvidence ? std::max(best, reply->probability) : reply->probability;
      anyEvidence = true;
    } else {
      bestPrior = std::max(bestPrior, reply->probability);
    }
  }
  if (answered == 0) {
    throw mw::util::TransportError(
        "ClusterLocationService::probabilityInRegion: no shard answered");
  }
  if (answered < shards->size()) degradedQueries_.fetch_add(1, std::memory_order_relaxed);
  // The owning shard's fused answer wins; with no evidence anywhere every
  // shard reported the same prior mass, so any of them is THE answer.
  return anyEvidence ? best : bestPrior;
}

ClusterLocationService::RegionQueryResult ClusterLocationService::objectsInRegionDetailed(
    const geo::Rect& region, double minProbability) {
  auto shards = shardsSnapshot();
  std::vector<std::shared_ptr<Shard>> targets;
  if (options_.partitioning == Partitioning::Spatial && minProbability > 0) {
    // The payoff query: only the shards whose territory intersects the
    // slack-inflated region can home an object with evidence mass inside
    // it, so the scatter shrinks to that subset — O(intersecting shards).
    // minProbability <= 0 is a census (every shard's objects qualify at
    // probability 0) and falls through to the full scatter below.
    const geo::Rect inflated = region.inflated(options_.regionSlack);
    {
      std::lock_guard lock(spatialMutex_);
      for (const std::string& owner : territory_.ownersIntersecting(inflated)) {
        auto slot = spaceSlotOf_.find(owner);
        if (slot != spaceSlotOf_.end() && slot->second < shards->size()) {
          targets.push_back((*shards)[slot->second]);
        }
      }
    }
    targetedRegionQueries_.fetch_add(1, std::memory_order_relaxed);
    regionShardsQueried_.fetch_add(targets.size(), std::memory_order_relaxed);
    if (targets.empty()) return RegionQueryResult{};  // region outside every territory
  } else {
    targets = *shards;
    scatterGathers_.fetch_add(1, std::memory_order_relaxed);
  }
  using Members = std::vector<std::pair<util::MobileObjectId, double>>;
  auto replies = scatter<Members>(targets, [&](core::RemoteLocationClient& client) {
    return client.objectsInRegion(region, minProbability);
  });

  RegionQueryResult result;
  // Objects are disjoint across shards by construction; the map guards the
  // transient overlap a stale shard map could produce (keep the higher-
  // probability sighting).
  std::unordered_map<std::string, double> merged;
  for (const auto& reply : replies) {
    if (!reply) continue;
    ++result.shardsAnswered;
    for (const auto& [object, probability] : *reply) {
      auto [it, inserted] = merged.emplace(object.str(), probability);
      if (!inserted && probability > it->second) it->second = probability;
    }
  }
  if (result.shardsAnswered == 0) {
    throw mw::util::TransportError("ClusterLocationService::objectsInRegion: no shard answered");
  }
  result.degraded = result.shardsAnswered < targets.size();
  if (result.degraded) degradedQueries_.fetch_add(1, std::memory_order_relaxed);

  result.members.reserve(merged.size());
  for (auto& [object, probability] : merged) {
    result.members.emplace_back(util::MobileObjectId{object}, probability);
  }
  // The LocationService's own answer ordering: descending probability, ties
  // by id — so a healthy cluster's merge is byte-for-byte the oracle's.
  std::sort(result.members.begin(), result.members.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return result;
}

std::vector<std::pair<util::MobileObjectId, double>> ClusterLocationService::objectsInRegion(
    const geo::Rect& region, double minProbability) {
  return objectsInRegionDetailed(region, minProbability).members;
}

// --- push: cluster-wide subscriptions ----------------------------------------

util::SubscriptionId ClusterLocationService::subscribe(
    const geo::Rect& region, std::optional<util::MobileObjectId> subject, double threshold,
    std::function<void(const core::Notification&)> callback) {
  auto sub = std::make_shared<ClusterSub>();
  sub->region = region;
  sub->subject = std::move(subject);
  sub->threshold = threshold;
  sub->callback = std::move(callback);
  return fanOut(std::move(sub));
}

util::SubscriptionId ClusterLocationService::fanOut(std::shared_ptr<ClusterSub> sub) {
  auto shards = shardsSnapshot();
  sub->shardSubIds.assign(shards->size(), 0);
  util::SubscriptionId clusterId;
  {
    std::lock_guard lock(subsMutex_);
    clusterId = subIds_.next();
    subs_.emplace(clusterId.value(), sub);
  }
  for (const auto& shard : *shards) {
    // Spatial mode: only shards whose territory intersects the region can
    // home an object triggering it; migration spills the subscription onto
    // shards that gain intersecting territory later.
    if (options_.partitioning == Partitioning::Spatial &&
        !territoryCovers(shard->token, sub->region)) {
      continue;
    }
    subscribeOnShard(*shard, clusterId, sub);
  }
  return clusterId;
}

util::SubscriptionId ClusterLocationService::subscribeDensity(
    const geo::Rect& region, double minProbability, std::size_t limit,
    std::function<void(const core::DensityNotification&)> callback) {
  auto sub = std::make_shared<ClusterSub>();
  sub->region = region;
  sub->threshold = minProbability;
  sub->limit = limit;
  sub->densityCallback = std::move(callback);
  sub->agg = std::make_shared<DensityAgg>();
  return fanOut(std::move(sub));
}

void ClusterLocationService::reportDensityCount(ClusterSub& sub, util::SubscriptionId clusterId,
                                                std::size_t shardIndex, std::uint64_t count,
                                                bool seed, const util::MobileObjectId& object,
                                                util::TimePoint when) {
  // One delivery at a time per subscription: totals reach the callback in
  // the order they were summed, so the last one delivered is the current sum.
  std::lock_guard delivery(sub.agg->deliverMutex);
  core::DensityNotification out;
  {
    std::lock_guard lock(sub.agg->mutex);
    if (seed) {
      // Fill-if-absent: a live notification that raced ahead of the
      // registration reply already reported a fresher count.
      if (!sub.agg->countOf.emplace(shardIndex, count).second) return;
    } else {
      sub.agg->countOf[shardIndex] = count;
    }
    std::uint64_t total = 0;
    for (const auto& [index, shardCount] : sub.agg->countOf) total += shardCount;
    const bool over = total >= sub.limit;
    if (over != sub.agg->lastOver) out.edge = over ? cq::CountEdge::Rose : cq::CountEdge::Fell;
    const bool fire = total != sub.agg->lastTotal || out.edge != cq::CountEdge::None;
    sub.agg->lastTotal = total;
    sub.agg->lastOver = over;
    if (!fire) return;
    out.count = static_cast<std::size_t>(total);
  }
  out.id = clusterId;
  out.region = sub.region;
  out.limit = sub.limit;
  out.object = object;
  out.when = when;
  sub.densityCallback(out);
}

std::uint64_t ClusterLocationService::registerOn(core::RemoteLocationClient& client,
                                                std::size_t shardIndex,
                                                util::SubscriptionId clusterId,
                                                const std::shared_ptr<ClusterSub>& sub) {
  if (!sub->agg) {
    auto emit = [callback = sub->callback, clusterId](const core::Notification& n) {
      core::Notification out = n;
      out.id = clusterId;  // one client-facing id, whichever shard matched
      callback(out);
    };
    return client.subscribe(sub->region, sub->subject, sub->threshold, emit).value();
  }
  // The emit bridge captures the ClusterSub by shared_ptr: its density
  // fields (region, limit, callback, agg) are immutable after creation, and
  // the pin keeps the aggregation state alive past unsubscribe races.
  auto emit = [sub, clusterId, shardIndex](const core::DensityNotification& n) {
    reportDensityCount(*sub, clusterId, shardIndex, n.count, /*seed=*/false, n.object, n.when);
  };
  const auto handle = client.subscribeDensity(sub->region, sub->threshold, sub->limit, emit);
  reportDensityCount(*sub, clusterId, shardIndex, handle.initialCount, /*seed=*/true,
                     util::MobileObjectId{}, util::TimePoint{});
  return handle.id.value();
}

void ClusterLocationService::subscribeOnShard(Shard& shard, util::SubscriptionId clusterId,
                                              const std::shared_ptr<ClusterSub>& sub) {
  {
    // Claim the slot: either the initial fan-out or a reconnect replay
    // registers on a given shard, never both.
    std::lock_guard lock(subsMutex_);
    std::uint64_t& slot = subSlot(sub->shardSubIds, shard.index);
    if (slot != 0) return;
    slot = kSubPending;
  }
  const auto shardSubId = callShard<std::uint64_t>(
      shard, [&](core::RemoteLocationClient& client) {
        return registerOn(client, shard.index, clusterId, sub);
      });
  std::unique_lock lock(subsMutex_);
  const bool live = subs_.contains(clusterId.value());
  subSlot(sub->shardSubIds, shard.index) = (shardSubId && live) ? *shardSubId : 0;
  if (shardSubId && !live) {
    // unsubscribe() won the race while registration was in flight; take the
    // orphan back down (best effort).
    lock.unlock();
    callShard<bool>(shard, [&](core::RemoteLocationClient& client) {
      return client.unsubscribe(util::SubscriptionId{*shardSubId});
    });
  }
}

void ClusterLocationService::replaySubscriptions(Shard& shard, core::RemoteLocationClient& client) {
  // Collect the subscriptions missing on this shard, then register each
  // directly on the fresh client (single attempt — a failure leaves the
  // slot empty for the next reconnect). Candidates are collected WITHOUT
  // claiming, coverage-filtered outside subsMutex_ (territoryCovers takes
  // spatialMutex_ and the two must not nest), then claimed one by one.
  const bool spatial = options_.partitioning == Partitioning::Spatial;
  std::vector<std::pair<util::SubscriptionId, std::shared_ptr<ClusterSub>>> candidates;
  {
    std::lock_guard lock(subsMutex_);
    for (auto& [id, sub] : subs_) {
      if (subSlot(sub->shardSubIds, shard.index) != 0) continue;
      candidates.emplace_back(util::SubscriptionId{id}, sub);
    }
  }
  std::vector<std::pair<util::SubscriptionId, std::shared_ptr<ClusterSub>>> missing;
  for (auto& [clusterId, sub] : candidates) {
    if (spatial && !territoryCovers(shard.token, sub->region)) continue;
    std::lock_guard lock(subsMutex_);
    std::uint64_t& slot = subSlot(sub->shardSubIds, shard.index);
    if (slot != 0) continue;  // a racing spill claimed it first
    slot = kSubPending;
    missing.emplace_back(clusterId, sub);
  }
  for (auto& [clusterId, sub] : missing) {
    std::uint64_t shardSubId = 0;
    try {
      shardSubId = registerOn(client, shard.index, clusterId, sub);
    } catch (const util::TransportError&) {
      // Fresh connection already gone; the next reconnect replays again.
    }
    std::lock_guard lock(subsMutex_);
    subSlot(sub->shardSubIds, shard.index) = subs_.contains(clusterId.value()) ? shardSubId : 0;
  }
}

bool ClusterLocationService::unsubscribe(util::SubscriptionId id) {
  std::shared_ptr<ClusterSub> sub;
  {
    std::lock_guard lock(subsMutex_);
    auto it = subs_.find(id.value());
    if (it == subs_.end()) return false;
    sub = it->second;
    subs_.erase(it);
  }
  auto shards = shardsSnapshot();
  for (const auto& shard : *shards) {
    std::uint64_t shardSubId;
    {
      std::lock_guard lock(subsMutex_);
      shardSubId = subSlot(sub->shardSubIds, shard->index);
    }
    if (shardSubId == 0 || shardSubId == kSubPending) continue;
    callShard<bool>(*shard, [&](core::RemoteLocationClient& client) {
      return client.unsubscribe(util::SubscriptionId{shardSubId});
    });
  }
  return true;
}

ClusterLocationService::Stats ClusterLocationService::stats() const {
  Stats stats;
  auto shards = shardsSnapshot();
  stats.shards.reserve(shards->size());
  for (const auto& shard : *shards) {
    ShardStats s;
    {
      std::lock_guard lock(shard->connectMutex);
      s.announced = shard->endpoint.has_value();
    }
    s.down = shard->health.down();
    s.calls = shard->health.calls();
    s.failures = shard->health.failures();
    s.timeouts = shard->health.timeouts();
    s.retries = shard->health.retries();
    s.reconnects = shard->health.reconnects();
    stats.shards.push_back(s);
  }
  stats.scatterGathers = scatterGathers_.load(std::memory_order_relaxed);
  stats.degradedQueries = degradedQueries_.load(std::memory_order_relaxed);
  stats.failedRoutedCalls = failedRoutedCalls_.load(std::memory_order_relaxed);
  stats.droppedIngestReadings = droppedIngestReadings_.load(std::memory_order_relaxed);
  stats.targetedRegionQueries = targetedRegionQueries_.load(std::memory_order_relaxed);
  stats.regionShardsQueried = regionShardsQueried_.load(std::memory_order_relaxed);
  stats.objectMigrations = objectMigrations_.load(std::memory_order_relaxed);
  stats.territorySplits = territorySplits_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mw::cluster
