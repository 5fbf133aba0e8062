// city: a citysim city with 10^5 seeded agents behind an in-process spatial
// cluster of four ShardHosts. Each round feeds the pre-generated trace
// through ClusterLocationService::ingestBatch in fixed-size batches, runs
// routed locates and territory-targeted objectsInRegion polls over the
// streets and plazas, while a density rule watches the event venue. The
// cluster router, territory routing, boundary-crossing migrations, the
// ShardHost ingest tap and a city-sized working set do most of the work;
// batching amortises the per-call ORB cost that dominates fig9.
//
// Every boundary crossing opens a migration session that is never retired
// (see README.md), so the process gains about two threads per migration.
// Each epoch therefore runs on a fresh cluster, and the workload stops at a
// thread ceiling instead of exhausting the machine.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "citysim/city.hpp"
#include "citysim/population.hpp"
#include "cluster/cluster_location_service.hpp"
#include "cluster/shard_host.hpp"
#include "core/middlewhere.hpp"
#include "core/remote_registry.hpp"
#include "workloads.hpp"

namespace mwbench {
namespace {

constexpr std::size_t kAgents = 100000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kBatch = 256;
constexpr int kBatchesPerRound = 4;
constexpr int kLocatesPerRound = 32;
constexpr int kPollsPerRound = 8;
constexpr int kTicks = 4;  ///< simulated seconds of trace; the first is the warm-up
/// Rounds per epoch: every epoch attempts the same operations, whatever the
/// seed. Three ticks give 13-14 rounds' worth of readings.
constexpr std::size_t kRounds = 12;
constexpr std::size_t kThreadCeiling = 768;
constexpr std::size_t kSampledObjects = 64;  ///< cluster-vs-oracle locate comparisons
constexpr double kMinProbability = 0.35;     ///< GPS-only members count (see bench_city)
constexpr std::size_t kAlarmLimit = 32;

/// The seeded input: the city, the venue, and the behavioural trace split
/// into the warm-up tick and the replayed rounds.
struct Input {
  citysim::CityBlueprint city;
  geo::Rect venue;
  std::vector<geo::Rect> watched;  ///< streets and plazas
  std::vector<db::SensorReading> warmup;
  std::vector<db::SensorReading> trace;  ///< whole batches only
};

citysim::CityBlueprint makeCity() {
  citysim::CityConfig cityConfig;
  cityConfig.rows = 2;
  cityConfig.cols = 2;
  return citysim::generateCity(cityConfig);
}

Input makeInput(std::uint64_t seed, util::VirtualClock& clock) {
  Input in;
  in.city = makeCity();
  const citysim::OutdoorRegion* venue = in.city.outdoorNamed("plaza-0-1");
  if (venue == nullptr) throw std::runtime_error("city: venue plaza missing");
  in.venue = venue->rect;
  for (const auto& region : in.city.outdoors) in.watched.push_back(region.rect);

  citysim::PopulationConfig pop;
  pop.seed = seed;
  pop.commuters = kAgents * 4 / 10;
  pop.crowd = kAgents * 3 / 10;
  pop.vehicles = kAgents * 2 / 10;
  pop.staff = kAgents - pop.commuters - pop.crowd - pop.vehicles;
  pop.sampleFraction = 0.05;
  citysim::Population population(in.city, pop);
  population.announceEvent(in.venue);
  std::vector<db::SensorReading> tick;
  for (int t = 0; t < kTicks; ++t) {
    clock.advance(util::sec(1));
    tick.clear();
    population.step(clock.now(), util::sec(1), tick);
    auto& into = t == 0 ? in.warmup : in.trace;
    into.insert(into.end(), tick.begin(), tick.end());
  }
  if (in.trace.size() < kRounds * kBatch * kBatchesPerRound) {
    throw std::runtime_error("city: the trace is shorter than " + std::to_string(kRounds) +
                             " rounds");
  }
  in.trace.resize(kRounds * kBatch * kBatchesPerRound);
  return in;
}

void setupWorld(const citysim::CityBlueprint& city, db::SpatialDatabase& database) {
  city.populate(database);
  citysim::CitySensors::registerAll(database);
}

/// The density rule's deliveries, on the router's event threads. Ingest
/// stamps each object of a batch; a delivery naming the object closes one
/// ingest-to-alarm sample.
struct Density {
  std::mutex mutex;
  std::unordered_map<std::string, SteadyClock::time_point> sent;
  std::vector<double> latencyUs;
  std::size_t lastCount = 0;
  std::size_t delivered = 0;

  void stamp(std::span<const db::SensorReading> batch, SteadyClock::time_point when) {
    std::lock_guard lock(mutex);
    for (const auto& r : batch) sent[r.mobileObjectId.str()] = when;
  }
  void onNotify(const core::DensityNotification& n) {
    const auto now = SteadyClock::now();
    std::lock_guard lock(mutex);
    lastCount = n.count;
    ++delivered;
    auto it = sent.find(n.object.str());
    if (it == sent.end()) return;
    latencyUs.push_back(microsBetween(it->second, now));
    sent.erase(it);
  }
};

/// One epoch's cluster: registry, shard hosts and router.
struct Cluster {
  core::RegistryServer registry;
  std::vector<std::unique_ptr<cluster::ShardHost>> hosts;
  std::unique_ptr<cluster::ClusterLocationService> router;

  Cluster(const util::Clock& clock, const citysim::CityBlueprint& city) {
    for (std::size_t i = 0; i < kShards; ++i) {
      cluster::ShardHost::Options opts;
      opts.spaceToken = "s";  // not "s" + ...: GCC 12 warns falsely (-Wrestrict)
      opts.spaceToken += std::to_string(i);
      auto host = std::make_unique<cluster::ShardHost>(clock, city.universe, city.name,
                                                       "127.0.0.1", registry.port(), opts);
      city.installFrames(host->core().database().frames());
      setupWorld(city, host->core().database());
      host->start();
      hosts.push_back(std::move(host));
    }
    cluster::ClusterLocationService::Options routerOpts;
    routerOpts.partitioning = cluster::ClusterLocationService::Partitioning::Spatial;
    routerOpts.universe = city.universe;
    routerOpts.regionSlack = 16;  // GPS detection radius is the widest evidence
    router = std::make_unique<cluster::ClusterLocationService>("127.0.0.1", registry.port(),
                                                               routerOpts);
  }
  ~Cluster() {
    router.reset();
    hosts.clear();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
};

bool sameEstimate(const std::optional<fusion::LocationEstimate>& a,
                  const std::optional<fusion::LocationEstimate>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->region == b->region && std::abs(a->probability - b->probability) <= 1e-12;
}

bool sameMembers(std::vector<std::pair<util::MobileObjectId, double>> a,
                 std::vector<std::pair<util::MobileObjectId, double>> b) {
  auto byId = [](const auto& x, const auto& y) { return x.first.str() < y.first.str(); };
  std::sort(a.begin(), a.end(), byId);
  std::sort(b.begin(), b.end(), byId);
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || std::abs(a[i].second - b[i].second) > 1e-12) return false;
  }
  return true;
}

/// A seed-independent script that exposes the cluster's density drift: a
/// shard that loses an object to a boundary-crossing migration drops it
/// without recounting its density rules, so its stale count stays in the
/// router's total. On a fresh cluster over the same city, one object walks
/// across the first territory border west to east of the universe's
/// centre, inside a rule's region that straddles the border: one reading on
/// the west side, one just across (applied at the old home, then migrated),
/// one more on the east side (counted by the new home). Returns whether
/// the last density count equals the region's population.
bool densityDriftProbe(const citysim::CityBlueprint& city, std::size_t& lastCount,
                       std::size_t& population) {
  util::VirtualClock clock;
  Density density;
  Cluster probe(clock, city);
  cluster::ClusterLocationService& router = *probe.router;
  const cluster::TerritoryMap territory = router.territorySnapshot();
  const geo::Point2 centre = city.universe.center();
  const std::string& westOwner = territory.ownerForPoint({city.universe.lo().x, centre.y});
  double border = city.universe.lo().x;
  while (border < city.universe.hi().x &&
         territory.ownerForPoint({border, centre.y}) == westOwner) {
    border += 1;
  }
  if (border >= city.universe.hi().x) throw std::runtime_error("city: probe found no border");
  const geo::Rect region = geo::Rect::centeredSquare({border, centre.y}, 60);
  router.subscribeDensity(region, kMinProbability, kAlarmLimit,
                          [&](const core::DensityNotification& n) { density.onNotify(n); });
  for (double x : {border - 20, border + 20, border + 25}) {
    clock.advance(util::msec(100));
    db::SensorReading r;
    r.globPrefix = city.name;
    r.mobileObjectId = util::MobileObjectId{"probe-walker"};
    r.sensorId = util::SensorId{citysim::CitySensors::kGpsId};
    r.sensorType = "GPS";
    r.location = {x, centre.y};
    r.detectionRadius = 15;
    r.detectionTime = clock.now();
    router.ingestBatch(std::span(&r, 1));
  }
  // Deliveries are asynchronous: wait for the two counts the walk should
  // (1) and does (1, then 2) produce, or until the count matches.
  for (int attempt = 0; attempt < 200; ++attempt) {
    population = router.objectsInRegion(region, kMinProbability).size();
    {
      std::lock_guard lock(density.mutex);
      lastCount = density.lastCount;
      if (density.delivered >= 2 || (density.delivered >= 1 && lastCount == population)) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return lastCount == population;
}

}  // namespace

void runCity(const Args& args, Report& report, Tracer& tracer) {
  LayerTotals totals;
  bool describedInput = false;
  bool ceilingHit = false;

  runEpochs(report, args.seconds, 3, [&](int epoch) {
    const auto setupStart = SteadyClock::now();
    util::VirtualClock clock;
    const Input in = makeInput(epochSeed(args.seed, epoch), clock);
    const double traceGenS = secondsSince(setupStart);
    totals.traceGenS.add(traceGenS);
    const std::uint64_t epochOps = kRounds * (kBatchesPerRound + kLocatesPerRound + kPollsPerRound) +
                                   1 + kSampledObjects + in.watched.size() + 1;
    const std::uint64_t attemptedBefore = report.attempted;
    if (!describedInput) {
      describedInput = true;
      report.input("agents", std::to_string(kAgents) + " (40% commuters, 30% crowd, 20% "
                                                       "vehicles, 10% staff; 5% sampled/tick)");
      report.input("shards", std::to_string(kShards) + " spatial ShardHosts, thread ceiling " +
                                 std::to_string(kThreadCeiling));
      report.input("trace_readings", std::to_string(in.trace.size()) + " + " +
                                         std::to_string(in.warmup.size()) +
                                         " warm-up (epoch 0)");
      report.input("round", std::to_string(kBatchesPerRound) + " ingestBatch x " +
                                std::to_string(kBatch) + " readings + " +
                                std::to_string(kLocatesPerRound) + " locates + " +
                                std::to_string(kPollsPerRound) + " region polls");
      report.input("rounds_per_epoch", std::to_string(kRounds));
    }

    // The single in-process service fed the same readings: the reference
    // the cluster's answers must equal, and the replica the traced run
    // times layer calls on. Built outside the set-up time; untraced runs
    // build it after the rounds, so that rss_mb leaves it out.
    std::optional<LayerProbe> oracle;
    auto buildOracle = [&] {
      oracle.emplace(tracer, clock, in.city.universe, in.city.frames(),
                     [&](db::SpatialDatabase& d) { setupWorld(in.city, d); });
    };
    if (tracer.enabled()) {
      buildOracle();
      oracle->addDensityRule(in.venue, kMinProbability, kAlarmLimit);
    }

    const auto stackStart = SteadyClock::now();
    Density density;  // outlives the router that calls into it
    std::optional<Cluster> stack;
    stack.emplace(clock, in.city);
    cluster::ClusterLocationService& router = *stack->router;
    router.subscribeDensity(in.venue, kMinProbability, kAlarmLimit,
                            [&](const core::DensityNotification& n) { density.onNotify(n); });
    const cluster::TerritoryMap territory = router.territorySnapshot();
    std::unique_ptr<core::RemoteLocationClient> pingClient;
    if (tracer.enabled()) {
      pingClient = core::Middlewhere::connectRemote("127.0.0.1", stack->hosts.front()->port());
    }
    for (std::size_t i = 0; i < in.warmup.size(); i += kBatch) {
      router.ingestBatch(std::span(in.warmup).subspan(i, std::min(kBatch, in.warmup.size() - i)));
    }
    static_cast<void>(router.objectsInRegion(in.venue, kMinProbability));
    totals.stackStartS.add(secondsSince(stackStart));
    report.setupS.add(traceGenS + secondsSince(stackStart));
    if (oracle) oracle->service().ingestBatch(in.warmup);

    std::size_t fed = 0;  // trace readings ingested this epoch
    for (std::size_t round = 0; round < kRounds && !ceilingHit; ++round) {
      auto roundSpan = tracer.span("city.round", tracer.newRequest());
      if (pingClient) totals.ping(tracer, *pingClient);
      std::vector<util::MobileObjectId> touched;
      double ingestSeconds = 0;
      for (int b = 0; b < kBatchesPerRound; ++b) {
        const auto batch = std::span(in.trace).subspan(fed, kBatch);
        fed += kBatch;
        const std::uint64_t req = tracer.newRequest();
        bool ok = true;
        density.stamp(batch, SteadyClock::now());
        const auto t0 = SteadyClock::now();
        try {
          auto span = tracer.span("cluster.ingest_batch", req);
          router.ingestBatch(batch);
        } catch (const std::exception&) {
          ok = false;
        }
        ingestSeconds += secondsSince(t0);
        report.check(ok, "city: ingestBatch threw");
        for (std::size_t i = 0; i < batch.size(); i += kBatch / 4) {
          touched.push_back(batch[i].mobileObjectId);
        }
        if (tracer.enabled()) {
          // Replica feed, alternating the two direct paths: the batch's
          // per-shard sub-batches into LocationService::ingestBatch, or its
          // readings one by one into LocationService::ingest.
          if ((fed / kBatch) % 2 == 0) {
            std::map<std::string, std::vector<db::SensorReading>> parts;
            for (const auto& r : batch) {
              parts[territory.ownerForPoint(r.rect().center())].push_back(r);
            }
            for (const auto& [owner, part] : parts) {
              auto span = tracer.span("cluster.shard_ingest_batch", req);
              oracle->service().ingestBatch(part);
            }
            for (const auto& r : batch) oracle->insertOnly(r, req);
          } else {
            for (const auto& r : batch) oracle->ingest(r, req);
          }
        }
        if (processThreads() >= kThreadCeiling) {
          ceilingHit = true;
          break;
        }
      }
      if (ceilingHit) break;
      report.ingestRate.add(static_cast<double>(kBatch * kBatchesPerRound) / ingestSeconds);

      for (int l = 0; l < kLocatesPerRound; ++l) {
        const util::MobileObjectId& object = touched[static_cast<std::size_t>(l) % touched.size()];
        const std::uint64_t req = tracer.newRequest();
        bool ok = false;
        try {
          const auto t0 = SteadyClock::now();
          std::optional<fusion::LocationEstimate> est;
          {
            auto span = tracer.span("cluster.locate", req);
            est = router.locate(object);
          }
          report.locateUs.add(microsBetween(t0, SteadyClock::now()));
          ok = est.has_value() && est->probability > 0 && est->probability <= 1;
        } catch (const std::exception&) {
          ok = false;
        }
        report.check(ok, "city: routed locate lost an ingested object");
        if (tracer.enabled()) oracle->fuse(object, req);
      }

      for (int p = 0; p < kPollsPerRound; ++p) {
        const geo::Rect& region = in.watched[(round * kPollsPerRound + p) % in.watched.size()];
        const std::uint64_t req = tracer.newRequest();
        bool ok = false;
        try {
          const auto t0 = SteadyClock::now();
          std::vector<std::pair<util::MobileObjectId, double>> members;
          {
            auto span = tracer.span("cluster.objects_in_region", req);
            members = router.objectsInRegion(region, kMinProbability);
          }
          report.regionUs.add(microsBetween(t0, SteadyClock::now()));
          ok = std::all_of(members.begin(), members.end(), [](const auto& m) {
            return m.second >= kMinProbability && m.second <= 1;
          });
        } catch (const std::exception&) {
          ok = false;
        }
        report.check(ok, "city: region poll returned an out-of-range member");
        if (tracer.enabled()) oracle->search(region, req);
      }
    }

    if (report.rssMiB == 0) report.rssMiB = peakRssMiB();
    const auto stats = router.stats();
    totals.threads = std::max(totals.threads, processThreads());
    totals.migrations = stats.objectMigrations;
    totals.shardsPerRegionQuery = stats.targetedRegionQueries == 0
                                      ? 0
                                      : static_cast<double>(stats.regionShardsQueried) /
                                            static_cast<double>(stats.targetedRegionQueries);
    if (tracer.enabled()) oracle->report(report.layer);
    if (ceilingHit) {
      // The rest of this epoch's operations, and its end checks, were not run.
      report.abandon(epochOps - (report.attempted - attemptedBefore),
                     "city: thread ceiling reached after " + std::to_string(totals.migrations) +
                         " migrations; remaining operations not run");
      return false;
    }
    {
      std::lock_guard lock(density.mutex);
      for (double us : density.latencyUs) report.notifyUs.add(us);
    }

    // The density rule's last count should settle on the venue's
    // population. Migrations leave stale shard counts behind (README.md,
    // known faults), but how many depends on the seed and on timing, so the
    // comparison is printed here; densityDriftProbe counts the fault.
    std::size_t population = 0;
    std::size_t lastCount = 0;
    for (int attempt = 0; attempt < 50; ++attempt) {
      population = router.objectsInRegion(in.venue, kMinProbability).size();
      {
        std::lock_guard lock(density.mutex);
        lastCount = density.lastCount;
      }
      if (lastCount == population) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::printf("# city epoch density_last_count=%zu venue_population=%zu\n", lastCount,
                population);
    report.check(stats.droppedIngestReadings == 0, "city: the cluster dropped readings");

    // The cluster's answers equal the single in-process service's.
    if (!oracle) {
      buildOracle();
      oracle->service().ingestBatch(in.warmup);
      oracle->service().ingestBatch(std::span(in.trace).first(fed));
    }
    for (std::size_t k = 0; k < kSampledObjects; ++k) {
      const util::MobileObjectId& object = in.trace[k * (fed / kSampledObjects)].mobileObjectId;
      bool ok = false;
      try {
        ok = sameEstimate(router.locate(object), oracle->service().locateObject(object));
      } catch (const std::exception&) {
        ok = false;
      }
      report.check(ok, "city: cluster locate differs from the single service");
    }
    for (const geo::Rect& region : in.watched) {
      bool ok = false;
      try {
        ok = sameMembers(router.objectsInRegion(region, kMinProbability),
                         oracle->service().objectsInRegion(region, kMinProbability));
      } catch (const std::exception&) {
        ok = false;
      }
      report.check(ok, "city: cluster region poll differs from the single service");
    }

    for (const auto& host : stack->hosts) {
      totals.addService(host->core().locationService());
      totals.addServer(host->core().rpcServer());
    }
    stack.reset();

    std::size_t probeCount = 0;
    std::size_t probePopulation = 0;
    const bool probeOk = densityDriftProbe(in.city, probeCount, probePopulation);
    report.checkKnownFault(probeOk, "city: density count " + std::to_string(probeCount) +
                                        " after a border crossing, region population " +
                                        std::to_string(probePopulation));
    return true;
  });

  if (tracer.enabled()) totals.report(report.layer);
  std::printf("# city migrations_per_epoch=%llu peak_threads=%zu ceiling=%zu\n",
              static_cast<unsigned long long>(totals.migrations), totals.threads, kThreadCeiling);
}

}  // namespace mwbench
