// Region polling ("who is in this region?") against the region population
// cache: a steady-state poll where 1 of N tracked people moved between polls
// must cost O(changed objects) — one re-fusion plus N cheap epoch checks —
// not O(N) re-fusions. BM_RegionPollCached vs BM_RegionPollUncached is the
// cache's speedup; the label carries the measured re-fusions per poll so the
// O(changed) claim is visible in the numbers, not just the wall clock.
// BM_RegionPollStoreSize holds one room's population fixed while the store
// around it grows, so what candidate discovery pays per stored object shows
// as the slope across its rows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/location_service.hpp"
#include "sim/blueprint.hpp"
#include "util/rng.hpp"

using namespace mw;

namespace {

constexpr int kSensorsPerPerson = 2;

struct Fixture {
  util::VirtualClock clock;
  sim::Blueprint bp;
  std::unique_ptr<db::SpatialDatabase> database;
  std::unique_ptr<core::LocationService> service;
  geo::Rect region;

  explicit Fixture(int people) : bp(sim::generateBlueprint({.floors = 2, .roomsPerSide = 8})) {
    database = std::make_unique<db::SpatialDatabase>(clock, bp.universe, bp.frames());
    bp.populate(*database);
    service = std::make_unique<core::LocationService>(clock, *database);
    service->connectivity() = bp.connectivity();
    region = bp.universe;  // every tracked person is a member

    util::Rng rng{99};
    for (int s = 0; s < kSensorsPerPerson; ++s) {
      db::SensorMeta meta;
      meta.sensorId = util::SensorId{"ubi-" + std::to_string(s)};
      meta.sensorType = "Ubisense";
      meta.errorSpec = quality::ubisenseSpec(1.0);
      meta.scaleMisidentifyByArea = true;
      meta.quality.ttl = util::minutes(10);
      database->registerSensor(meta);
    }
    for (int p = 0; p < people; ++p) {
      geo::Point2 where{rng.uniform(10, bp.universe.hi().x - 10),
                       rng.uniform(10, bp.universe.hi().y - 10)};
      move(p, where);
    }
  }

  void move(int person, geo::Point2 where) {
    for (int s = 0; s < kSensorsPerPerson; ++s) {
      db::SensorReading r;
      r.sensorId = util::SensorId{"ubi-" + std::to_string(s)};
      r.sensorType = "Ubisense";
      r.mobileObjectId = util::MobileObjectId{"p" + std::to_string(person)};
      r.location = where;
      r.detectionRadius = 0.5 + s;
      r.detectionTime = clock.now();
      service->ingest(r);
    }
  }
};

}  // namespace

// Steady-state poll: person p0 moves between polls, everyone else is
// unchanged. The cached poll revalidates N member epochs and re-fuses only
// p0 — the per-poll fusion count in the label must stay at 1 regardless of N.
static void BM_RegionPollCached(benchmark::State& state) {
  const int people = static_cast<int>(state.range(0));
  Fixture f(people);
  (void)f.service->objectsInRegion(f.region, 0.2);  // warm both cache levels
  f.service->resetRegionCacheCounters();
  f.service->resetFusionCacheCounters();
  double x = 11.0;
  for (auto _ : state) {
    f.move(0, {x, 12.0});
    x = x < 40.0 ? x + 1.0 : 11.0;
    benchmark::DoNotOptimize(f.service->objectsInRegion(f.region, 0.2));
  }
  const double polls = static_cast<double>(state.iterations());
  const double refusedPerPoll =
      static_cast<double>(f.service->regionCacheRevalidations()) / polls;
  state.counters["refused_per_poll"] = refusedPerPoll;
  state.counters["hit_rate"] =
      static_cast<double>(f.service->regionCacheHits()) / polls;
  state.SetLabel(std::to_string(people) + " people, 1 moved (cached)");
}
BENCHMARK(BM_RegionPollCached)->Arg(16)->Arg(64)->Arg(256);

// The same poll with both cache levels flushed every iteration: candidate
// discovery plus N full fusions per poll. Cached/uncached at the same N is
// the region cache's speedup; its growth with N is the O(N) vs O(changed)
// separation.
static void BM_RegionPollUncached(benchmark::State& state) {
  const int people = static_cast<int>(state.range(0));
  Fixture f(people);
  double x = 11.0;
  for (auto _ : state) {
    f.move(0, {x, 12.0});
    x = x < 40.0 ? x + 1.0 : 11.0;
    f.service->invalidateFusionCache();  // flushes the region cache too
    benchmark::DoNotOptimize(f.service->objectsInRegion(f.region, 0.2));
  }
  state.SetLabel(std::to_string(people) + " people, 1 moved (uncached)");
}
BENCHMARK(BM_RegionPollUncached)->Arg(16)->Arg(64)->Arg(256);

// Pure repoll with nothing changed at all: the floor of the cached path —
// one catalog read, one evidence-column scan, N epoch checks, zero fusions.
static void BM_RegionPollQuiescent(benchmark::State& state) {
  const int people = static_cast<int>(state.range(0));
  Fixture f(people);
  (void)f.service->objectsInRegion(f.region, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.service->objectsInRegion(f.region, 0.2));
  }
  state.SetLabel(std::to_string(people) + " people, unchanged");
}
BENCHMARK(BM_RegionPollQuiescent)->Arg(16)->Arg(64)->Arg(256);

// Discovery against store size: 32 people stay in one room while 10^3..10^5
// other objects sit elsewhere in the building. Nothing moves, so the cached
// poll re-fuses nothing and costs one catalog read, the evidence-column
// scan over every stored box, and 32 epoch checks.
static void BM_RegionPollStoreSize(benchmark::State& state) {
  constexpr int kRoomPopulation = 32;
  const int stored = static_cast<int>(state.range(0));
  // One fixture per row: google-benchmark re-enters this function while it
  // sizes the iteration count, and 10^5 objects take a while to ingest.
  static std::unique_ptr<Fixture> f;
  static int built = -1;
  if (built != stored) {
    f.reset();
    f = std::make_unique<Fixture>(0);
    const sim::BlueprintRoom& room =
        *std::find_if(f->bp.rooms.begin(), f->bp.rooms.end(),
                      [](const sim::BlueprintRoom& r) { return !r.isCorridor; });
    f->region = room.rect;
    util::Rng rng{7};
    for (int p = 0; p < kRoomPopulation; ++p) {
      f->move(p, {rng.uniform(room.rect.lo().x + 2, room.rect.hi().x - 2),
                  rng.uniform(room.rect.lo().y + 2, room.rect.hi().y - 2)});
    }
    const geo::Rect keepOut = room.rect.inflated(3);
    const geo::Rect& u = f->bp.universe;
    for (int o = 0; o < stored - kRoomPopulation;) {
      const geo::Point2 where{rng.uniform(u.lo().x + 1, u.hi().x - 1),
                              rng.uniform(u.lo().y + 1, u.hi().y - 1)};
      if (keepOut.contains(where)) continue;
      db::SensorReading r;
      r.sensorId = util::SensorId{"ubi-0"};
      r.sensorType = "Ubisense";
      r.mobileObjectId = util::MobileObjectId{"bg" + std::to_string(o++)};
      r.location = where;
      r.detectionRadius = 0.5;
      r.detectionTime = f->clock.now();
      f->database->insertReading(r);
    }
    built = stored;
  }
  const auto members = f->service->objectsInRegion(f->region, 0.2).size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->service->objectsInRegion(f->region, 0.2));
  }
  state.counters["members"] = static_cast<double>(members);
  state.counters["store_objects"] =
      static_cast<double>(f->database->knownMobileObjects().size());
  state.SetLabel(std::to_string(kRoomPopulation) + " in the room, " + std::to_string(stored) +
                 " stored");
}
BENCHMARK(BM_RegionPollStoreSize)->Arg(1000)->Arg(10000)->Arg(100000);

// The host's core count and CPU model go into the JSON context: absolute
// times are only comparable between runs on the same kind of host.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("hardware_concurrency",
                              std::to_string(std::thread::hardware_concurrency()));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      benchmark::AddCustomContext("cpu_model", line.substr(line.find(':') + 2));
      break;
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
