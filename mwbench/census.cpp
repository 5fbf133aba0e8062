// census: one in-process LocationService over a four-floor building holding
// 4,000 people tracked by two sensors each. Reads run beside writes: every
// round moves a few people with a small ingestBatch, then polls room
// populations, asks probabilityInRegion and locates. The region population
// cache and the fusion cache (revalidation in O(changed)) and the striped
// reading store do the work; no ORB and no cluster sit on the path. A change
// that speeds reads at the cost of ingest, or the reverse, shows here.
#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/middlewhere.hpp"
#include "sim/blueprint.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mwbench {
namespace {

constexpr int kObjects = 4000;
constexpr int kFloors = 4;
constexpr int kRoundsPerEpoch = 160;
constexpr int kMovesPerRound = 128;  ///< people moved by each round's ingestBatch
constexpr int kPollsPerRound = 8;
constexpr int kProbesPerRound = 16;
constexpr int kLocatesPerRound = 16;
constexpr int kTraceMoves = 8192;
constexpr int kLonghandRooms = 4;  ///< cached-vs-longhand comparisons per epoch
constexpr double kUwbRadius = 0.5;
constexpr double kBadgeRadius = 3.0;
constexpr double kBadgeOffset = 1.0;  ///< badge fix scatter; stays inside its radius
constexpr double kMargin = 4.5;       ///< keeps both evidence boxes inside one room
constexpr double kPollProbability = 0.5;
const char* const kUwb = "uwb";
const char* const kBadge = "badge";

struct Move {
  int object = 0;
  int room = 0;
  geo::Point2 where;
  geo::Point2 badgeAt;
};

struct Input {
  sim::Blueprint building;
  std::vector<const sim::BlueprintRoom*> rooms;
  std::vector<Move> initial;  ///< one per object
  std::vector<Move> moves;    ///< replayed kMovesPerRound at a time
  std::vector<int> pollRooms;
};

Move randomMove(util::Rng& rng, const std::vector<const sim::BlueprintRoom*>& rooms, int object) {
  Move m;
  m.object = object;
  m.room = static_cast<int>(rng.uniformInt(0, static_cast<std::int64_t>(rooms.size()) - 1));
  const geo::Rect& r = rooms[static_cast<std::size_t>(m.room)]->rect;
  m.where = {rng.uniform(r.lo().x + kMargin, r.hi().x - kMargin),
             rng.uniform(r.lo().y + kMargin, r.hi().y - kMargin)};
  m.badgeAt = m.where + geo::Point2{rng.uniform(-kBadgeOffset, kBadgeOffset),
                                    rng.uniform(-kBadgeOffset, kBadgeOffset)};
  return m;
}

Input makeInput(std::uint64_t seed) {
  Input in;
  in.building = sim::generateBlueprint(
      {.building = "CEN", .floors = kFloors, .roomsPerSide = 8});
  in.rooms = in.building.properRooms();
  util::Rng rng(seed);
  for (int o = 0; o < kObjects; ++o) in.initial.push_back(randomMove(rng, in.rooms, o));
  // Each round moves kMovesPerRound distinct people.
  for (int round = 0; round < kTraceMoves / kMovesPerRound; ++round) {
    std::set<int> picked;
    while (static_cast<int>(picked.size()) < kMovesPerRound) {
      picked.insert(static_cast<int>(rng.uniformInt(0, kObjects - 1)));
    }
    for (int object : picked) in.moves.push_back(randomMove(rng, in.rooms, object));
  }
  for (int p = 0; p < kTraceMoves / 4; ++p) {
    in.pollRooms.push_back(
        static_cast<int>(rng.uniformInt(0, static_cast<std::int64_t>(in.rooms.size()) - 1)));
  }
  return in;
}

util::MobileObjectId objectId(int object) {
  std::string id = "c";  // not "c" + ...: GCC 12 warns falsely (-Wrestrict)
  id += std::to_string(object);
  return util::MobileObjectId{id};
}

/// A move as the two readings the deployment emits: the UWB fix and the
/// badge reader's coarser one.
void readingsFor(const util::Clock& clock, const Move& m, std::vector<db::SensorReading>& out) {
  db::SensorReading uwb;
  uwb.sensorId = util::SensorId{kUwb};
  uwb.sensorType = "Ubisense";
  uwb.mobileObjectId = objectId(m.object);
  uwb.location = m.where;
  uwb.detectionRadius = kUwbRadius;
  uwb.detectionTime = clock.now();
  db::SensorReading badge = uwb;
  badge.sensorId = util::SensorId{kBadge};
  badge.sensorType = "RF";
  badge.location = m.badgeAt;
  badge.detectionRadius = kBadgeRadius;
  out.push_back(std::move(uwb));
  out.push_back(std::move(badge));
}

void registerSensors(db::SpatialDatabase& database) {
  db::SensorMeta uwb;
  uwb.sensorId = util::SensorId{kUwb};
  uwb.sensorType = "Ubisense";
  uwb.errorSpec = quality::ubisenseSpec(1.0);
  uwb.scaleMisidentifyByArea = true;
  uwb.quality.ttl = util::sec(30);
  database.registerSensor(uwb);
  db::SensorMeta badge;
  badge.sensorId = util::SensorId{kBadge};
  badge.sensorType = "RF";
  badge.errorSpec = quality::rfidBadgeSpec(1.0);
  badge.scaleMisidentifyByArea = true;
  badge.quality.ttl = util::sec(60);
  database.registerSensor(badge);
}

/// Ground truth from the generated moves: each person's two evidence boxes.
struct Truth {
  std::vector<Move> at;

  [[nodiscard]] bool whollyInside(int object, const geo::Rect& region) const {
    const Move& m = at[static_cast<std::size_t>(object)];
    return region.contains(geo::Rect::centeredSquare(m.where, kUwbRadius)) &&
           region.contains(geo::Rect::centeredSquare(m.badgeAt, kBadgeRadius));
  }
  [[nodiscard]] bool whollyOutside(int object, const geo::Rect& region) const {
    const Move& m = at[static_cast<std::size_t>(object)];
    return !region.intersects(geo::Rect::centeredSquare(m.where, kUwbRadius)) &&
           !region.intersects(geo::Rect::centeredSquare(m.badgeAt, kBadgeRadius));
  }
  /// Every person wholly inside is reported, none wholly outside is.
  [[nodiscard]] bool membershipHolds(
      const std::vector<std::pair<util::MobileObjectId, double>>& members,
      const geo::Rect& region) const {
    std::vector<bool> reported(at.size(), false);
    for (const auto& [id, p] : members) {
      const int object = std::stoi(id.str().substr(1));
      if (object < 0 || object >= static_cast<int>(at.size())) return false;
      reported[static_cast<std::size_t>(object)] = true;
    }
    for (int o = 0; o < static_cast<int>(at.size()); ++o) {
      if (whollyInside(o, region) && !reported[static_cast<std::size_t>(o)]) return false;
      if (whollyOutside(o, region) && reported[static_cast<std::size_t>(o)]) return false;
    }
    return true;
  }
};

/// Room-entry notifications, delivered on the ingest workers.
struct Entries {
  std::mutex mutex;
  std::vector<std::pair<std::string, geo::Rect>> seen;
  std::vector<SteadyClock::time_point> at;

  void onNotify(const core::Notification& n) {
    const auto now = SteadyClock::now();
    std::lock_guard lock(mutex);
    seen.emplace_back(n.object.str(), n.region);
    at.push_back(now);
  }
  void clear() {
    std::lock_guard lock(mutex);
    seen.clear();
    at.clear();
  }
};

}  // namespace

void runCensus(const Args& args, Report& report, Tracer& tracer) {
  report.input("objects", std::to_string(kObjects) + " (UWB + badge each)");
  report.input("building", std::to_string(kFloors) + " floors, 64 rooms, 64 entry rules");
  report.input("trace_moves", std::to_string(kTraceMoves));
  report.input("round", "ingestBatch of " + std::to_string(kMovesPerRound) + " moves (" +
                            std::to_string(2 * kMovesPerRound) + " readings) + " +
                            std::to_string(kPollsPerRound) + " region polls + " +
                            std::to_string(kProbesPerRound) + " probabilityInRegion + " +
                            std::to_string(kLocatesPerRound) + " locates");
  report.input("rounds_per_epoch", std::to_string(kRoundsPerEpoch));

  LayerTotals totals;

  runEpochs(report, args.seconds, 3, [&](int epoch) {
    const auto setupStart = SteadyClock::now();
    const Input in = makeInput(epochSeed(args.seed, epoch));
    totals.traceGenS.add(secondsSince(setupStart));

    const auto stackStart = SteadyClock::now();
    Entries entries;  // outlives the service that calls into it
    util::VirtualClock clock;
    core::Middlewhere mw(clock, in.building.universe, in.building.frames());
    in.building.populate(mw.database());
    registerSensors(mw.database());
    core::LocationService& service = mw.locationService();
    for (const auto* room : in.rooms) {
      service.subscribe({room->rect, std::nullopt, kPollProbability, std::nullopt, true,
                         [&](const core::Notification& n) { entries.onNotify(n); }});
    }

    Truth truth{in.initial};
    std::vector<db::SensorReading> batch;
    for (const Move& m : in.initial) readingsFor(clock, m, batch);
    service.ingestBatch(batch);
    for (const auto* room : in.rooms) {
      static_cast<void>(service.objectsInRegion(room->rect, kPollProbability));
    }
    entries.clear();
    totals.stackStartS.add(secondsSince(stackStart));
    report.setupS.add(secondsSince(setupStart));

    // The traced run's replica, built and warmed outside the set-up time.
    std::unique_ptr<LayerProbe> probe;
    std::unique_ptr<core::RemoteLocationClient> pingClient;
    if (tracer.enabled()) {
      probe = std::make_unique<LayerProbe>(tracer, clock, in.building.universe,
                                           in.building.frames(), [&](db::SpatialDatabase& d) {
                                             in.building.populate(d);
                                             registerSensors(d);
                                           });
      for (const auto* room : in.rooms) probe->addRule(room->rect, std::nullopt);
      // The ORB floor on this stack: an in-process connection to the
      // service's own (otherwise unused) endpoint.
      pingClient = mw.connectLocal();
      for (const auto& r : batch) probe->ingest(r, 0);
    }

    std::size_t nextMove = 0;
    std::size_t nextPoll = 0;
    for (int round = 0; round < kRoundsPerEpoch; ++round) {
      auto roundSpan = tracer.span("census.round", tracer.newRequest());
      if (pingClient) totals.ping(tracer, *pingClient);

      // Writes: one small batch moving kMovesPerRound people.
      std::vector<Move> moved;
      batch.clear();
      for (int i = 0; i < kMovesPerRound; ++i) {
        const Move& m = in.moves[nextMove++ % in.moves.size()];
        moved.push_back(m);
        readingsFor(clock, m, batch);
      }
      const std::uint64_t ingestReq = tracer.newRequest();
      bool ingestOk = true;
      const auto t0 = SteadyClock::now();
      try {
        auto span = tracer.span("core.ingest_batch", ingestReq);
        service.ingestBatch(batch);
      } catch (const std::exception&) {
        ingestOk = false;
      }
      const auto t1 = SteadyClock::now();
      report.ingestRate.add(static_cast<double>(batch.size()) /
                            std::chrono::duration<double>(t1 - t0).count());
      report.check(ingestOk, "census: ingestBatch threw");

      // Entry notifications: exactly one per person who changed room, for
      // the room they entered.
      std::set<std::pair<std::string, int>> expected;
      for (const Move& m : moved) {
        if (truth.at[static_cast<std::size_t>(m.object)].room != m.room) {
          expected.emplace(objectId(m.object).str(), m.room);
        }
        truth.at[static_cast<std::size_t>(m.object)] = m;
      }
      {
        std::lock_guard lock(entries.mutex);
        std::set<std::pair<std::string, int>> seen;
        bool ok = entries.seen.size() == expected.size();
        for (std::size_t i = 0; i < entries.seen.size(); ++i) {
          const auto& [object, region] = entries.seen[i];
          const auto room = std::find_if(in.rooms.begin(), in.rooms.end(),
                                         [&](const auto* r) { return r->rect == region; });
          seen.emplace(object, static_cast<int>(room - in.rooms.begin()));
          report.notifyUs.add(microsBetween(t0, entries.at[i]));
          tracer.record("census.notify", ingestReq, t0, entries.at[i]);
        }
        ok = ok && seen == expected;
        report.check(ok, "census: room-entry notifications differ from the moves");
        entries.seen.clear();
        entries.at.clear();
      }
      if (probe) {
        for (const auto& r : batch) probe->ingest(r, ingestReq);
      }

      // Region population polls.
      for (int p = 0; p < kPollsPerRound; ++p) {
        const geo::Rect room =
            in.rooms[static_cast<std::size_t>(in.pollRooms[nextPoll++ % in.pollRooms.size()])]
                ->rect;
        const std::uint64_t req = tracer.newRequest();
        bool ok = false;
        try {
          const auto q0 = SteadyClock::now();
          std::vector<std::pair<util::MobileObjectId, double>> members;
          {
            auto span = tracer.span("core.objects_in_region", req);
            members = service.objectsInRegion(room, kPollProbability);
          }
          report.regionUs.add(microsBetween(q0, SteadyClock::now()));
          ok = truth.membershipHolds(members, room);
        } catch (const std::exception&) {
          ok = false;
        }
        report.check(ok, "census: objectsInRegion disagrees with the generated positions");
        if (probe) probe->search(room, req);
      }

      // probabilityInRegion: alternately the person's own room and another.
      for (int p = 0; p < kProbesPerRound; ++p) {
        const Move& m = moved[static_cast<std::size_t>(p) % moved.size()];
        const int room = p % 2 == 0 ? m.room : (m.room + 1 + p) % static_cast<int>(in.rooms.size());
        const geo::Rect& rect = in.rooms[static_cast<std::size_t>(room)]->rect;
        bool ok = false;
        try {
          auto span = tracer.span("core.probability_in_region", tracer.newRequest());
          const double prob = service.probabilityInRegion(objectId(m.object), rect);
          if (truth.whollyInside(m.object, rect)) {
            ok = prob >= kPollProbability;
          } else if (truth.whollyOutside(m.object, rect)) {
            ok = prob < kPollProbability;
          } else {
            ok = prob >= 0 && prob <= 1;
          }
        } catch (const std::exception&) {
          ok = false;
        }
        report.check(ok, "census: probabilityInRegion disagrees with the generated positions");
      }

      // Object queries on the people just moved.
      for (int l = 0; l < kLocatesPerRound; ++l) {
        const Move& m = moved[static_cast<std::size_t>(l) % moved.size()];
        const std::uint64_t req = tracer.newRequest();
        bool ok = false;
        try {
          const auto q0 = SteadyClock::now();
          std::optional<fusion::LocationEstimate> est;
          {
            auto span = tracer.span("core.locate", req);
            est = service.locateObject(objectId(m.object));
          }
          report.locateUs.add(microsBetween(q0, SteadyClock::now()));
          ok = est && est->region.contains(m.where);
        } catch (const std::exception&) {
          ok = false;
        }
        report.check(ok, "census: located region misses the true point");
        if (probe) probe->fuse(objectId(m.object), req);
      }
    }

    if (report.rssMiB == 0) report.rssMiB = peakRssMiB();
    totals.threads = std::max(totals.threads, processThreads());
    totals.addService(service);
    // Cached polls against a longhand recompute with both caches dropped:
    // probabilityInRegion for every person.
    for (int k = 0; k < kLonghandRooms; ++k) {
      const geo::Rect& room =
          in.rooms[static_cast<std::size_t>(in.pollRooms[static_cast<std::size_t>(k)])]->rect;
      bool ok = false;
      try {
        const auto cached = service.objectsInRegion(room, kPollProbability);
        service.invalidateFusionCache();
        std::vector<std::pair<std::string, double>> longhand;
        for (int o = 0; o < kObjects; ++o) {
          const double p = service.probabilityInRegion(objectId(o), room);
          if (p >= kPollProbability) longhand.emplace_back(objectId(o).str(), p);
        }
        std::vector<std::pair<std::string, double>> fromCache;
        for (const auto& [id, p] : cached) fromCache.emplace_back(id.str(), p);
        std::sort(longhand.begin(), longhand.end());
        std::sort(fromCache.begin(), fromCache.end());
        ok = longhand.size() == fromCache.size();
        for (std::size_t i = 0; ok && i < longhand.size(); ++i) {
          ok = longhand[i].first == fromCache[i].first &&
               std::abs(longhand[i].second - fromCache[i].second) <= 1e-12;
        }
      } catch (const std::exception&) {
        ok = false;
      }
      report.check(ok, "census: cached region poll differs from the longhand recompute");
    }

    totals.addServer(mw.rpcServer());
    if (probe) probe->report(report.layer);
    return true;
  });

  if (tracer.enabled()) totals.report(report.layer);
}

}  // namespace mwbench
