// Sharded batch ingest: throughput of LocationService::ingestBatch at
// 1/2/4/8 shards, with and without live subscriptions. One shard is the
// sequential baseline; scaling beyond it depends on the host's core count —
// recorded in the JSON context as "hardware_concurrency" so per-host curves
// are interpretable. Shards append to the reading store's stripes without a
// database-wide lock; the per-iteration counters report how often they still
// met on a per-object writer lock.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/location_service.hpp"
#include "sim/blueprint.hpp"
#include "util/rng.hpp"

using namespace mw;

namespace {

struct Fixture {
  util::VirtualClock clock;
  sim::Blueprint bp;
  std::unique_ptr<db::SpatialDatabase> database;
  std::unique_ptr<core::LocationService> service;

  explicit Fixture(int sensors = 2)
      : bp(sim::generateBlueprint({.floors = 2, .roomsPerSide = 8})) {
    database = std::make_unique<db::SpatialDatabase>(clock, bp.universe, bp.frames());
    bp.populate(*database);
    service = std::make_unique<core::LocationService>(clock, *database);
    for (int s = 0; s < sensors; ++s) {
      db::SensorMeta meta;
      meta.sensorId = util::SensorId{"ubi-" + std::to_string(s)};
      meta.sensorType = "Ubisense";
      meta.errorSpec = quality::ubisenseSpec(1.0);
      meta.scaleMisidentifyByArea = true;
      meta.quality.ttl = util::minutes(10);
      database->registerSensor(meta);
    }
  }

  /// One reading per (person, sensor), people scattered over the universe.
  std::vector<db::SensorReading> makeBatch(int people, int sensors) {
    util::Rng rng{7};
    std::vector<db::SensorReading> batch;
    batch.reserve(static_cast<std::size_t>(people) * sensors);
    for (int p = 0; p < people; ++p) {
      geo::Point2 where{rng.uniform(10, bp.universe.hi().x - 10),
                        rng.uniform(10, bp.universe.hi().y - 10)};
      for (int s = 0; s < sensors; ++s) {
        db::SensorReading r;
        r.sensorId = util::SensorId{"ubi-" + std::to_string(s)};
        r.sensorType = "Ubisense";
        r.mobileObjectId = util::MobileObjectId{"p" + std::to_string(p)};
        r.location = {where.x + rng.gaussian(0, 0.2), where.y + rng.gaussian(0, 0.2)};
        r.detectionRadius = 0.5 + s;
        r.detectionTime = clock.now();
        batch.push_back(std::move(r));
      }
    }
    return batch;
  }
};

}  // namespace

// Pure storage path: no subscriptions, so each ingest is an insert + trigger
// scan only (no fusion).
static void BM_IngestBatch(benchmark::State& state) {
  Fixture f;
  f.service->setIngestShards(static_cast<std::size_t>(state.range(0)));
  std::vector<db::SensorReading> batch = f.makeBatch(64, 2);
  for (auto _ : state) {
    for (auto& r : batch) r.detectionTime = f.clock.now();
    f.service->ingestBatch(batch);
    f.clock.advance(util::msec(100));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
  state.counters["writer_contentions"] =
      static_cast<double>(f.service->ingestWriterContentions());
  state.counters["snapshot_retries"] = static_cast<double>(f.service->ingestSnapshotRetries());
  state.SetLabel(std::to_string(state.range(0)) + " shards");
}
BENCHMARK(BM_IngestBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// With live subscriptions each reading that touches a subscribed region pays
// a fused evaluation — the dominant per-reading cost, and the one the shards
// parallelize.
static void BM_IngestBatchWithSubscriptions(benchmark::State& state) {
  Fixture f;
  f.service->setIngestShards(static_cast<std::size_t>(state.range(0)));
  // A wall-to-wall subscription: every reading triggers an evaluation.
  f.service->subscribe({f.bp.universe, std::nullopt, 0.01, std::nullopt, false,
                        [](const core::Notification&) {}});
  std::vector<db::SensorReading> batch = f.makeBatch(64, 2);
  for (auto _ : state) {
    for (auto& r : batch) r.detectionTime = f.clock.now();
    f.service->ingestBatch(batch);
    f.clock.advance(util::msec(100));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
  state.counters["writer_contentions"] =
      static_cast<double>(f.service->ingestWriterContentions());
  state.counters["snapshot_retries"] = static_cast<double>(f.service->ingestSnapshotRetries());
  state.SetLabel(std::to_string(state.range(0)) + " shards, 1 region sub");
}
BENCHMARK(BM_IngestBatchWithSubscriptions)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Sequential loop over the same batch for an apples-to-apples baseline
// against BM_IngestBatch (shards=1 goes through the same code path minus the
// pool hop).
static void BM_IngestSequentialLoop(benchmark::State& state) {
  Fixture f;
  std::vector<db::SensorReading> batch = f.makeBatch(64, 2);
  for (auto _ : state) {
    for (auto& r : batch) {
      r.detectionTime = f.clock.now();
      f.service->ingest(r);
    }
    f.clock.advance(util::msec(100));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_IngestSequentialLoop)->UseRealTime();

// Ingest beside region scans: a poller thread scans the whole store's
// evidence boxes in a loop (the candidate discovery of a region poll or a
// density recount) while four shards ingest batches that move every person.
// A box-moving append writes its stripe's evidence-box column under the
// column lock, so it can wait for a scan of that stripe in progress; Arg(0)
// is the same ingest with no poller. 4,000 more people stay put in the store
// so each scan has a census-sized population to cover.
static void BM_IngestBatchBesideRegionScans(benchmark::State& state) {
  Fixture f;
  f.service->setIngestShards(4);
  std::vector<db::SensorReading> crowd = f.makeBatch(4000, 1);
  for (auto& r : crowd) r.mobileObjectId = util::MobileObjectId{"c" + r.mobileObjectId.str()};
  f.service->ingestBatch(crowd);
  std::vector<db::SensorReading> batch = f.makeBatch(64, 2);
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> scans{0};
  std::thread poller;
  if (state.range(0) > 0) {
    poller = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        benchmark::DoNotOptimize(f.database->mobileObjectsIntersecting(f.bp.universe));
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  double step = 0.5;
  for (auto _ : state) {
    for (auto& r : batch) {
      r.detectionTime = f.clock.now();
      r.location.x += step;  // every append moves its object's box
    }
    step = -step;
    f.service->ingestBatch(batch);
    f.clock.advance(util::msec(100));
  }
  stop.store(true, std::memory_order_relaxed);
  if (poller.joinable()) poller.join();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
  state.counters["scans"] = static_cast<double>(scans.load());
  state.SetLabel(state.range(0) > 0 ? "4 shards, 1 poller" : "4 shards, no poller");
}
BENCHMARK(BM_IngestBatchBesideRegionScans)->Arg(0)->Arg(1)->UseRealTime();

// Custom main: stamp the host's core count into the JSON context so the
// shard-scaling curve in BENCH_ingest.json is interpretable per host (a
// 1-core runner cannot show >1x scaling no matter what the store does).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("hardware_concurrency",
                              std::to_string(std::thread::hardware_concurrency()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
