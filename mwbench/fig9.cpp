// fig9: the paper's Fig. 9 stack. One building; the Location Service sits
// behind the MicroOrb on TCP loopback; two adapter clients push single
// readings with blocking ingest; an application client holds 10^4
// programmed triggers, of which one is live, and issues remote locate and
// objectsInRegion calls. The per-call remote path (transport, reactor,
// dispatcher lane hop, fusion per call, trigger match under 10^4 rules)
// does almost all the work; no cluster is involved.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/middlewhere.hpp"
#include "sim/blueprint.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mwbench {
namespace {

constexpr int kObjects = 256;
constexpr int kTriggers = 10000;
constexpr int kTraceUpdates = 4096;
constexpr int kRoundsPerEpoch = 250;
constexpr int kUpdatesPerRound = 32;
constexpr int kLocatesPerRound = 16;
constexpr int kPollsPerRound = 8;
constexpr double kRadius = 0.5;       ///< Ubisense detection radius, ft
constexpr double kMargin = 1.5;       ///< keeps every evidence box inside one room
constexpr double kPollProbability = 0.5;
const char* const kSensor = "ubi-1";

struct Update {
  int object = 0;
  geo::Point2 where;
};

/// The seeded input: the building, each object's first position, and the
/// update, locate and poll sequences the rounds replay.
struct Input {
  sim::Blueprint building;
  std::vector<const sim::BlueprintRoom*> rooms;
  std::vector<geo::Point2> initial;
  std::vector<Update> updates;
  std::vector<int> pollRooms;
};

geo::Point2 pointInRoom(util::Rng& rng, const geo::Rect& room) {
  return {rng.uniform(room.lo().x + kMargin, room.hi().x - kMargin),
          rng.uniform(room.lo().y + kMargin, room.hi().y - kMargin)};
}

Input makeInput(std::uint64_t seed) {
  Input in;
  in.building = sim::generateBlueprint({.building = "SC", .floors = 1, .roomsPerSide = 8});
  in.rooms = in.building.properRooms();
  util::Rng rng(seed);
  auto randomRoom = [&] {
    return in.rooms[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(in.rooms.size()) - 1))];
  };
  for (int o = 0; o < kObjects; ++o) in.initial.push_back(pointInRoom(rng, randomRoom()->rect));
  for (int u = 0; u < kTraceUpdates; ++u) {
    const int object = static_cast<int>(rng.uniformInt(0, kObjects - 1));
    in.updates.push_back({object, pointInRoom(rng, randomRoom()->rect)});
  }
  for (int p = 0; p < kTraceUpdates / 4; ++p) {
    in.pollRooms.push_back(
        static_cast<int>(rng.uniformInt(0, static_cast<std::int64_t>(in.rooms.size()) - 1)));
  }
  return in;
}

util::MobileObjectId objectId(int object) {
  std::string id = "p";  // not "p" + ...: GCC 12 warns falsely (-Wrestrict)
  id += std::to_string(object);
  return util::MobileObjectId{id};
}

db::SensorReading readingAt(const util::Clock& clock, int object, geo::Point2 where) {
  db::SensorReading r;
  r.sensorId = util::SensorId{kSensor};
  r.sensorType = "Ubisense";
  r.mobileObjectId = objectId(object);
  r.location = where;
  r.detectionRadius = kRadius;
  r.detectionTime = clock.now();
  return r;
}

void registerSensor(db::SpatialDatabase& database) {
  db::SensorMeta ubi;
  ubi.sensorId = util::SensorId{kSensor};
  ubi.sensorType = "Ubisense";
  ubi.errorSpec = quality::ubisenseSpec(1.0);
  ubi.scaleMisidentifyByArea = true;
  ubi.quality.ttl = util::sec(30);
  database.registerSensor(ubi);
}

/// The 9,999 idle triggers: distinct slivers in the corridor, which no
/// evidence box ever touches (every reading sits kMargin inside a room).
std::vector<geo::Rect> sliverRegions(const sim::Blueprint& building) {
  geo::Rect corridor;
  for (const auto& room : building.rooms) {
    if (room.isCorridor) corridor = room.rect;
  }
  std::vector<geo::Rect> out;
  for (int t = 1; t < kTriggers; ++t) {
    const double x = corridor.lo().x + 1.0 + 0.0137 * t;
    const double y = corridor.lo().y + 1.0 + 0.5 * (t % 13);
    out.push_back(geo::Rect::fromOrigin({x, y}, 0.5, 0.5));
  }
  return out;
}

/// The live trigger's deliveries, observed on the application client's
/// event thread.
struct LiveTrigger {
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t fired = 0;
  std::string lastObject;
  SteadyClock::time_point lastAt;

  void onNotify(const core::Notification& n) {
    const auto now = SteadyClock::now();
    {
      std::lock_guard lock(mutex);
      ++fired;
      lastObject = n.object.str();
      lastAt = now;
    }
    cv.notify_all();
  }
  /// Waits for the `target`-th delivery; false after two seconds without it.
  bool await(std::uint64_t target, SteadyClock::time_point& at, std::string& object) {
    std::unique_lock lock(mutex);
    if (!cv.wait_for(lock, std::chrono::seconds(2), [&] { return fired >= target; })) {
      return false;
    }
    at = lastAt;
    object = lastObject;
    return true;
  }
  std::uint64_t count() {
    std::lock_guard lock(mutex);
    return fired;
  }
};

/// Membership check against the generated positions: every object whose
/// evidence box lies wholly inside `region` must be reported, and none whose
/// box lies wholly outside it.
bool membershipHolds(const std::vector<std::pair<util::MobileObjectId, double>>& members,
                     const std::vector<geo::Point2>& truth, const geo::Rect& region) {
  std::vector<bool> reported(truth.size(), false);
  for (const auto& [id, p] : members) {
    const int object = std::stoi(id.str().substr(1));
    if (object < 0 || object >= static_cast<int>(truth.size())) return false;
    reported[static_cast<std::size_t>(object)] = true;
  }
  for (std::size_t o = 0; o < truth.size(); ++o) {
    const geo::Rect box = geo::Rect::centeredSquare(truth[o], kRadius);
    if (region.contains(box) && !reported[o]) return false;
    if (!region.intersects(box) && reported[o]) return false;
  }
  return true;
}

}  // namespace

void runFig9(const Args& args, Report& report, Tracer& tracer) {
  report.input("objects", std::to_string(kObjects));
  report.input("triggers", std::to_string(kTriggers) + " (1 live)");
  report.input("trace_updates", std::to_string(kTraceUpdates));
  report.input("round", std::to_string(kUpdatesPerRound) + " updates + " +
                            std::to_string(kLocatesPerRound) + " locates + " +
                            std::to_string(kPollsPerRound) + " region polls");
  report.input("rounds_per_epoch", std::to_string(kRoundsPerEpoch));

  LayerTotals totals;

  runEpochs(report, args.seconds, 3, [&](int epoch) {
    const auto setupStart = SteadyClock::now();
    const Input in = makeInput(epochSeed(args.seed, epoch));
    totals.traceGenS.add(secondsSince(setupStart));

    const auto stackStart = SteadyClock::now();
    // Declared before the clients, so they outlive every delivery.
    LiveTrigger live;
    std::atomic<std::uint64_t> sliverFires{0};
    util::VirtualClock clock;
    core::Middlewhere mw(clock, in.building.universe, in.building.frames());
    in.building.populate(mw.database());
    registerSensor(mw.database());
    const std::uint16_t port = mw.listen();
    auto app = core::Middlewhere::connectRemote("127.0.0.1", port);
    std::vector<std::unique_ptr<core::RemoteLocationClient>> adapters;
    adapters.push_back(core::Middlewhere::connectRemote("127.0.0.1", port));
    adapters.push_back(core::Middlewhere::connectRemote("127.0.0.1", port));

    app->subscribe(in.building.universe, std::nullopt, 0.1,
                   [&](const core::Notification& n) { live.onNotify(n); });
    const std::vector<geo::Rect> slivers = sliverRegions(in.building);
    for (const geo::Rect& sliver : slivers) {
      app->subscribe(sliver, std::nullopt, 0.99, [&](const core::Notification&) {
        sliverFires.fetch_add(1, std::memory_order_relaxed);
      });
    }

    // Warm-up: every object's first reading, then one of each query.
    std::vector<geo::Point2> truth = in.initial;
    std::uint64_t expected = 0;
    for (int o = 0; o < kObjects; ++o) {
      const db::SensorReading r = readingAt(clock, o, truth[static_cast<std::size_t>(o)]);
      adapters[static_cast<std::size_t>(o) % adapters.size()]->ingest(r);
      SteadyClock::time_point at;
      std::string who;
      live.await(++expected, at, who);
    }
    static_cast<void>(app->locate(objectId(0)));
    static_cast<void>(app->objectsInRegion(in.rooms.front()->rect, kPollProbability));
    totals.stackStartS.add(secondsSince(stackStart));
    report.setupS.add(secondsSince(setupStart));

    // The replica the traced run times layer calls on: same world, same
    // rules, same readings; built and warmed outside the set-up time.
    std::unique_ptr<LayerProbe> probe;
    if (tracer.enabled()) {
      probe = std::make_unique<LayerProbe>(tracer, clock, in.building.universe,
                                           in.building.frames(), [&](db::SpatialDatabase& d) {
                                             in.building.populate(d);
                                             registerSensor(d);
                                           });
      probe->addRule(in.building.universe, std::nullopt);
      for (const geo::Rect& sliver : slivers) probe->addRule(sliver, std::nullopt);
      for (int o = 0; o < kObjects; ++o) {
        probe->ingest(readingAt(clock, o, in.initial[static_cast<std::size_t>(o)]), 0);
      }
    }

    std::size_t nextUpdate = 0;
    std::size_t nextPoll = 0;
    for (int round = 0; round < kRoundsPerEpoch; ++round) {
      auto roundSpan = tracer.span("fig9.round", tracer.newRequest());
      if (tracer.enabled()) totals.ping(tracer, *app);
      // Updates: blocking adapter ingest, then the live trigger's delivery.
      std::vector<int> touched;
      const auto blockStart = SteadyClock::now();
      for (int u = 0; u < kUpdatesPerRound; ++u) {
        const Update& up = in.updates[nextUpdate++ % in.updates.size()];
        const db::SensorReading r = readingAt(clock, up.object, up.where);
        const std::uint64_t req = tracer.newRequest();
        bool ok = false;
        try {
          // The notification reaches the application before the adapter's
          // ack returns, so the two are sibling spans of one request.
          const auto t0 = SteadyClock::now();
          {
            auto call = tracer.span("orb.ingest", req);
            adapters[static_cast<std::size_t>(u) % adapters.size()]->ingest(r);
          }
          SteadyClock::time_point at;
          std::string who;
          if (live.await(++expected, at, who)) {
            tracer.record("fig9.notify", req, t0, at);
            report.notifyUs.add(microsBetween(t0, at));
            ok = who == r.mobileObjectId.str();
          }
        } catch (const std::exception&) {
          ok = false;
        }
        report.check(ok, "fig9: live trigger did not deliver the update");
        truth[static_cast<std::size_t>(up.object)] = up.where;
        touched.push_back(up.object);
        if (probe) {
          probe->ingest(r, req);
          probe->fuse(r.mobileObjectId, req);
        }
      }
      report.ingestRate.add(kUpdatesPerRound / secondsSince(blockStart));

      // Object queries on the objects just moved.
      for (int l = 0; l < kLocatesPerRound; ++l) {
        const int object = touched[static_cast<std::size_t>(l) % touched.size()];
        const std::uint64_t req = tracer.newRequest();
        bool ok = false;
        try {
          const auto t0 = SteadyClock::now();
          std::optional<fusion::LocationEstimate> est;
          {
            auto span = tracer.span("orb.locate", req);
            est = app->locate(objectId(object));
          }
          report.locateUs.add(microsBetween(t0, SteadyClock::now()));
          ok = est && est->region.contains(truth[static_cast<std::size_t>(object)]);
        } catch (const std::exception&) {
          ok = false;
        }
        report.check(ok, "fig9: located region misses the true point");
      }

      // Region population queries over the rooms.
      for (int p = 0; p < kPollsPerRound; ++p) {
        const geo::Rect room =
            in.rooms[static_cast<std::size_t>(in.pollRooms[nextPoll++ % in.pollRooms.size()])]
                ->rect;
        const std::uint64_t req = tracer.newRequest();
        bool ok = false;
        try {
          const auto t0 = SteadyClock::now();
          std::vector<std::pair<util::MobileObjectId, double>> members;
          {
            auto span = tracer.span("orb.objects_in_region", req);
            members = app->objectsInRegion(room, kPollProbability);
          }
          report.regionUs.add(microsBetween(t0, SteadyClock::now()));
          ok = membershipHolds(members, truth, room);
        } catch (const std::exception&) {
          ok = false;
        }
        report.check(ok, "fig9: objectsInRegion disagrees with the generated positions");
        if (probe) probe->search(room, req);
      }
    }

    if (report.rssMiB == 0) report.rssMiB = peakRssMiB();
    totals.threads = std::max(totals.threads, processThreads());

    // Once per epoch: the live trigger fired exactly once per update (no
    // late duplicates), and no idle trigger ever fired.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    report.check(live.count() == expected, "fig9: live trigger fired more than once per update");
    report.check(sliverFires.load() == 0, "fig9: an idle trigger fired");

    totals.addService(mw.locationService());
    totals.addServer(mw.rpcServer());
    if (probe) probe->report(report.layer);
    return true;
  });

  if (tracer.enabled()) totals.report(report.layer);
}

}  // namespace mwbench
