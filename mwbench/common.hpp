// Shared machinery of the repository benchmark: command line, samples,
// operation accounting, the span tracer, the per-layer replica probe and the
// process/host readings every workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/location_service.hpp"
#include "core/remote.hpp"
#include "cq/trigger_network.hpp"
#include "orb/rpc.hpp"
#include "spatialdb/database.hpp"
#include "util/clock.hpp"

namespace mwbench {

using namespace mw;
using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}
[[nodiscard]] inline double microsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Raw samples; quantiles are read after the run (no histogram bucketing,
/// so medians carry every digit).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double sum() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// Nearest-rank median of the samples in the [from, to) index ranges; 0
  /// when empty.
  [[nodiscard]] double medianOf(
      const std::vector<std::pair<std::size_t, std::size_t>>& ranges) const;

 private:
  std::vector<double> values_;
};

/// Everything one run reports: operation accounting, the end-to-end samples
/// and the per-layer values the traced mode adds.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Of `failed`, the operations that fail every time because of a known
  /// fault of the program, on inputs that do not depend on the seed. They
  /// count as failed but leave the run correct.
  std::uint64_t knownFaultFailed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  Samples setupS;
  Samples notifyUs;
  Samples locateUs;
  Samples regionUs;
  Samples ingestRate;  ///< readings/s of each round's ingest part
  /// Peak resident set at the end of the first epoch's rounds, before the
  /// checks: later epochs rebuild the same stack, and what the allocator
  /// keeps across those rebuilds would make the figure depend on how many
  /// epochs fit in the run.
  double rssMiB = 0;

  /// Where each epoch's samples end, and the share of host CPU time stolen
  /// by other guests during it.
  struct EpochEnd {
    std::size_t setup = 0, notify = 0, locate = 0, region = 0, ingest = 0;
    double stealPct = 0;
  };
  std::vector<EpochEnd> epochs;

  std::map<std::string, double> layer;           ///< per-layer metrics (traced runs)
  std::vector<std::pair<std::string, std::string>> inputs;  ///< input make-up lines

  /// Counts one operation; returns `ok`. A failed one keeps its message.
  bool check(bool ok, const std::string& what);
  /// Counts one operation that exposes a known fault of the program (see
  /// README.md); a failure is counted in `failed` and `knownFaultFailed`.
  bool checkKnownFault(bool ok, const std::string& what);
  /// Counts `n` operations that were not run because the workload stopped.
  void abandon(std::uint64_t n, const std::string& why);
  void input(std::string key, std::string value) {
    inputs.emplace_back(std::move(key), std::move(value));
  }
};

/// In-memory span recorder. Spans are recorded from the benchmark's own
/// code around calls into one layer's public functions; a span closes on
/// the thread that opened it, so nesting is a stack.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint64_t newRequest() noexcept { return ++lastRequest_; }

  class Scope {
   public:
    Scope(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Scope(Scope&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() { end(); }
    /// Closes the span now.
    void end() { endAt(SteadyClock::now()); }
    /// Closes the span at an instant observed elsewhere (a callback's
    /// arrival time).
    void endAt(SteadyClock::time_point when);

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Opens a span as a child of the innermost open span. A no-op scope when
  /// tracing is off.
  [[nodiscard]] Scope span(std::string_view name, std::uint64_t request);
  /// Records a closed span whose bounds were observed elsewhere (a call's
  /// start and a callback's arrival), as a child of the innermost open span.
  void record(std::string_view name, std::uint64_t request, SteadyClock::time_point start,
              SteadyClock::time_point end);

  struct Summary {
    std::size_t count = 0;
    double medianUs = 0;
    double medianSelfUs = 0;
    double p99Us = 0;
  };
  /// Per span name: count, median duration, median self time (duration
  /// minus the time its child spans cover) and p99 duration.
  [[nodiscard]] std::map<std::string, Summary> summarize() const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
    SteadyClock::time_point start;
    SteadyClock::time_point end;
  };
  std::uint32_t nameId(std::string_view name);

  bool enabled_;
  std::uint64_t lastRequest_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  SteadyClock::time_point origin_ = SteadyClock::now();
};

/// Sets up the world of a replica stack: frames are passed separately,
/// this populates the database and registers the sensors.
using WorldSetup = std::function<void(db::SpatialDatabase&)>;

/// A replica of a workload's service stack, used by traced runs to time one
/// layer's public calls without disturbing the measured stack: an
/// in-process LocationService, a bare SpatialDatabase and a standalone
/// trigger network, all built over the same world and standing rules and
/// fed the same readings.
class LayerProbe {
 public:
  LayerProbe(Tracer& tracer, const util::Clock& clock, geo::Rect universe,
             const glob::FrameTree& frames, const WorldSetup& setup);

  /// Installs a standing rule on the replica service and the network.
  void addRule(const geo::Rect& region, const std::optional<std::string>& subject);
  void addDensityRule(const geo::Rect& region, double minProbability, std::size_t limit);

  /// core.ingest on the replica service, spatialdb.insert on the bare
  /// database and cq.match of the stored box against the network.
  void ingest(const db::SensorReading& reading, std::uint64_t request);
  /// The bare database and network only (the caller feeds the replica
  /// service another way).
  void insertOnly(const db::SensorReading& reading, std::uint64_t request);
  /// fusion.fuse on the replica service's inputs for the object, uncached.
  void fuse(const util::MobileObjectId& object, std::uint64_t request);
  /// spatialdb.evidence_search on the bare database.
  void search(const geo::Rect& region, std::uint64_t request);

  [[nodiscard]] core::LocationService& service() noexcept { return *service_; }
  /// Adds core.ingest_us, spatialdb.*, fusion.* and cq.* to `layer`.
  void report(std::map<std::string, double>& layer) const;

 private:
  Tracer& tracer_;
  db::SpatialDatabase serviceDb_;
  std::unique_ptr<core::LocationService> service_;
  db::SpatialDatabase bareDb_;
  cq::TriggerNetwork network_;
  cq::ProductionId nextProduction_ = 1;
  std::vector<cq::ProductionId> matched_;
  Samples readingsPerFuse_;
  Samples candidates_;
};

/// Peak resident set (VmHWM) of this process, MiB.
[[nodiscard]] double peakRssMiB();
/// Threads of this process now.
[[nodiscard]] std::size_t processThreads();
/// The host line every run prints: nproc, CPU model, compiler, build type.
[[nodiscard]] std::string hostLine();

/// Host-wide CPU time from /proc/stat, in ticks: all of it, and the part
/// stolen by other guests of the hypervisor. A run whose figures stray can
/// be told apart by the steal share it saw.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks cpuTicks();

/// The per-layer figures a workload gathers over its epochs from the
/// measured stack itself; the replica's come from LayerProbe.
struct LayerTotals {
  Samples traceGenS;
  Samples stackStartS;
  Samples pingUs;
  std::uint64_t fusionHits = 0;
  std::uint64_t fusionMisses = 0;
  std::uint64_t regionHits = 0;
  std::uint64_t regionMisses = 0;
  std::uint64_t revalidations = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t inlined = 0;
  std::size_t threads = 0;  ///< the most seen at the end of an epoch's rounds
  std::uint64_t migrations = 0;
  double shardsPerRegionQuery = 1;  ///< one service answers unless a cluster routes

  /// Times one orb.ping round trip on `client`.
  void ping(Tracer& tracer, core::RemoteLocationClient& client);
  /// Adds a measured service's cache counters; several (shards) add up.
  void addService(const core::LocationService& service);
  void addServer(const orb::RpcServer& server);
  /// Writes orb.*, core.*_ratio/_per_poll, cluster.* and setup.* metrics.
  void report(std::map<std::string, double>& layer) const;
};

/// The input seed of one epoch. Each epoch replays its own input drawn from
/// the run's seed, so a run's figures average over several inputs rather
/// than resting on one.
[[nodiscard]] inline std::uint64_t epochSeed(std::uint64_t seed, int epoch) {
  return seed * 1000003u + static_cast<std::uint64_t>(epoch);
}

/// Runs `epoch` (one set-up plus a fixed amount of work) until the run's
/// time is spent: at least `minEpochs`, and no further epoch once the next
/// one would likely end past `seconds`. Returns the epochs run.
int runEpochs(Report& report, double seconds, int minEpochs,
              const std::function<bool(int)>& epoch);

}  // namespace mwbench
