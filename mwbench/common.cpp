#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <sched.h>

#ifndef MWBENCH_BUILD_TYPE
#define MWBENCH_BUILD_TYPE "unknown"
#endif

namespace mwbench {

double Samples::sum() const {
  double total = 0;
  for (double v : values_) total += v;
  return total;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * static_cast<double>(sorted.size())), 1.0,
                 static_cast<double>(sorted.size())));
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   sorted.end());
  return sorted[rank - 1];
}

double Samples::medianOf(const std::vector<std::pair<std::size_t, std::size_t>>& ranges) const {
  Samples part;
  for (const auto& [from, to] : ranges) {
    part.values_.insert(part.values_.end(), values_.begin() + static_cast<std::ptrdiff_t>(from),
                        values_.begin() + static_cast<std::ptrdiff_t>(to));
  }
  return part.median();
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  return ok;
}

bool Report::checkKnownFault(bool ok, const std::string& what) {
  if (!ok) ++knownFaultFailed;
  return check(ok, "known fault: " + what);
}

void Report::abandon(std::uint64_t n, const std::string& why) {
  attempted += n;
  failed += n;
  if (n > 0 && failures.size() < 8) failures.push_back(why);
}

// --- tracer ------------------------------------------------------------------

std::uint32_t Tracer::nameId(std::string_view name) {
  auto it = std::find(names_.begin(), names_.end(), name);
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  if (it == names_.end()) names_.emplace_back(name);
  return id;
}

void Tracer::record(std::string_view name, std::uint64_t request, SteadyClock::time_point start,
                    SteadyClock::time_point end) {
  if (!enabled_) return;
  Span s;
  s.name = nameId(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start = start;
  s.end = end;
  spans_.push_back(s);
}

Tracer::Scope Tracer::span(std::string_view name, std::uint64_t request) {
  if (!enabled_) return Scope(nullptr, 0);
  Span s;
  s.name = nameId(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start = SteadyClock::now();
  s.end = s.start;
  spans_.push_back(s);
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return Scope(this, spans_.size() - 1);
}

void Tracer::Scope::endAt(SteadyClock::time_point when) {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end = when;
  // Scopes close innermost first; pop this one wherever it sits.
  auto& open = tracer_->open_;
  auto it = std::find(open.rbegin(), open.rend(), static_cast<std::int32_t>(index_));
  if (it != open.rend()) open.erase(std::next(it).base());
  tracer_ = nullptr;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  // Child time is the union of the children's intervals: sibling spans of
  // one request may overlap (a notification arrives while its ingest call
  // is still out).
  std::vector<std::vector<std::pair<SteadyClock::time_point, SteadyClock::time_point>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::vector<double> childUs(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    SteadyClock::time_point coveredTo = spans_[i].start;
    for (const auto& [start, end] : intervals) {
      const auto from = std::max(start, coveredTo);
      if (end > from) {
        childUs[i] += microsBetween(from, end);
        coveredTo = end;
      }
    }
  }
  std::vector<Samples> duration(names_.size());
  std::vector<Samples> self(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double us = microsBetween(spans_[i].start, spans_[i].end);
    duration[spans_[i].name].add(us);
    self[spans_[i].name].add(us - childUs[i]);
  }
  std::map<std::string, Summary> out;
  for (std::size_t n = 0; n < names_.size(); ++n) {
    out[names_[n]] = Summary{duration[n].size(), duration[n].median(), self[n].median(),
                             duration[n].quantile(0.99)};
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "mwbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,\"parent\":%d,"
                  "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                  i, names_[s.name].c_str(), static_cast<unsigned long long>(s.request), s.parent,
                  static_cast<long long>(std::chrono::nanoseconds(s.start - origin_).count()),
                  static_cast<long long>(std::chrono::nanoseconds(s.end - origin_).count()));
    out << line;
  }
}

// --- layer probe ---------------------------------------------------------------

LayerProbe::LayerProbe(Tracer& tracer, const util::Clock& clock, geo::Rect universe,
                       const glob::FrameTree& frames, const WorldSetup& setup)
    : tracer_(tracer), serviceDb_(clock, universe, frames), bareDb_(clock, universe, frames) {
  setup(serviceDb_);
  setup(bareDb_);
  service_ = std::make_unique<core::LocationService>(clock, serviceDb_);
}

void LayerProbe::addRule(const geo::Rect& region, const std::optional<std::string>& subject) {
  core::Subscription sub;
  sub.region = region;
  if (subject) sub.subject = util::MobileObjectId{*subject};
  sub.threshold = 0.1;
  sub.callback = [](const core::Notification&) {};
  service_->subscribe(std::move(sub));
  network_.installProduction(nextProduction_++, region, subject);
}

void LayerProbe::addDensityRule(const geo::Rect& region, double minProbability,
                                std::size_t limit) {
  service_->subscribeDensity(
      {region, minProbability, limit, [](const core::DensityNotification&) {}});
  const cq::ProductionId id = nextProduction_++;
  network_.installProduction(id, region, std::nullopt);
  network_.makeCounting(id, limit);
}

void LayerProbe::ingest(const db::SensorReading& reading, std::uint64_t request) {
  {
    auto span = tracer_.span("core.ingest", request);
    service_->ingest(reading);
  }
  insertOnly(reading, request);
}

void LayerProbe::insertOnly(const db::SensorReading& reading, std::uint64_t request) {
  db::SensorReading stored;
  {
    auto span = tracer_.span("spatialdb.insert", request);
    stored = bareDb_.insertReading(reading);
  }
  {
    auto span = tracer_.span("cq.match", request);
    network_.match(stored.rect(), stored.mobileObjectId.str(), matched_);
  }
  candidates_.add(static_cast<double>(matched_.size()));
}

void LayerProbe::fuse(const util::MobileObjectId& object, std::uint64_t request) {
  const fusion::FusionInputs inputs = service_->fusionInputsFor(object);
  readingsPerFuse_.add(static_cast<double>(inputs.size()));
  auto span = tracer_.span("fusion.fuse", request);
  static_cast<void>(service_->engine().fuse(inputs));
}

void LayerProbe::search(const geo::Rect& region, std::uint64_t request) {
  auto span = tracer_.span("spatialdb.evidence_search", request);
  static_cast<void>(bareDb_.mobileObjectsIntersecting(region));
}

void LayerProbe::report(std::map<std::string, double>& layer) const {
  const auto spans = tracer_.summarize();
  auto median = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.medianUs;
  };
  layer["core.ingest_us"] = median("core.ingest");
  layer["spatialdb.insert_us"] = median("spatialdb.insert");
  layer["spatialdb.evidence_search_us"] = median("spatialdb.evidence_search");
  layer["fusion.fuse_us"] = median("fusion.fuse");
  layer["cq.match_us"] = median("cq.match");
  layer["fusion.readings_per_fuse"] =
      readingsPerFuse_.size() == 0 ? 0 : readingsPerFuse_.sum() / readingsPerFuse_.size();
  layer["cq.candidates_per_update"] =
      candidates_.size() == 0 ? 0 : candidates_.sum() / candidates_.size();
}

// --- process and host ----------------------------------------------------------

namespace {

/// A "Key:   value kB" field of /proc/self/status, as a number.
double statusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::strtod(line.c_str() + prefix.size(), nullptr);
  }
  return 0;
}

}  // namespace

double peakRssMiB() { return statusField("VmHWM") / 1024.0; }

std::size_t processThreads() { return static_cast<std::size_t>(statusField("Threads")); }

std::string hostLine() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
  std::ostringstream os;
  os << "nproc=" << nproc << " cpu=\"" << cpu << "\" compiler=\"" << __VERSION__
     << "\" build_type=" << MWBENCH_BUILD_TYPE;
  return os.str();
}

CpuTicks cpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

void LayerTotals::ping(Tracer& tracer, core::RemoteLocationClient& client) {
  const auto t0 = SteadyClock::now();
  auto span = tracer.span("orb.ping", tracer.newRequest());
  client.ping();
  span.end();
  pingUs.add(microsBetween(t0, SteadyClock::now()));
}

void LayerTotals::addService(const core::LocationService& service) {
  fusionHits += service.fusionCacheHits();
  fusionMisses += service.fusionCacheMisses();
  regionHits += service.regionCacheHits();
  regionMisses += service.regionCacheMisses();
  revalidations += service.regionCacheRevalidations();
}

void LayerTotals::addServer(const orb::RpcServer& server) {
  const auto stats = server.stats();
  dispatched += stats.dispatchedRequests;
  inlined += stats.inlineRequests;
}

void LayerTotals::report(std::map<std::string, double>& layer) const {
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  layer["core.fusion_cache_hit_ratio"] = ratio(fusionHits, fusionHits + fusionMisses);
  layer["core.region_cache_hit_ratio"] = ratio(regionHits, regionHits + regionMisses);
  layer["core.region_revalidations_per_poll"] = ratio(revalidations, regionHits + regionMisses);
  layer["orb.ping_us"] = pingUs.median();
  layer["orb.dispatched"] = static_cast<double>(dispatched);
  layer["orb.inline"] = static_cast<double>(inlined);
  layer["cluster.migrations"] = static_cast<double>(migrations);
  layer["cluster.process_threads"] = static_cast<double>(threads);
  layer["cluster.shards_per_region_query"] = shardsPerRegionQuery;
  layer["setup.trace_gen_s"] = traceGenS.median();
  layer["setup.stack_start_s"] = stackStartS.median();
}

int runEpochs(Report& report, double seconds, int minEpochs,
              const std::function<bool(int)>& epoch) {
  const auto start = SteadyClock::now();
  double longest = 0;
  int epochs = 0;
  while (true) {
    const auto began = SteadyClock::now();
    const CpuTicks before = cpuTicks();
    const bool keepGoing = epoch(epochs);
    const CpuTicks after = cpuTicks();
    Report::EpochEnd end;
    end.setup = report.setupS.size();
    end.notify = report.notifyUs.size();
    end.locate = report.locateUs.size();
    end.region = report.regionUs.size();
    end.ingest = report.ingestRate.size();
    end.stealPct = after.total == before.total
                       ? 0.0
                       : 100.0 * static_cast<double>(after.steal - before.steal) /
                             static_cast<double>(after.total - before.total);
    report.epochs.push_back(end);
    ++epochs;
    longest = std::max(longest, secondsSince(began));
    if (!keepGoing) break;
    if (epochs >= minEpochs && secondsSince(start) + longest > seconds) break;
  }
  return epochs;
}

}  // namespace mwbench
