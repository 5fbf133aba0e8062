// The repository benchmark's executable:
//
//   mwbench --workload fig9|city|census --seed N --seconds S --trace 0|1
//
// Prints the host, the workload's input make-up, p99s with their sample
// counts and (traced) the span summary as '#' lines, then, as the last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer metrics and
// write every span to .bench_build/spans/<workload>-<seed>.jsonl.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/logging.hpp"
#include "workloads.hpp"

using namespace mwbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mwbench: %s\nusage: mwbench --workload fig9|city|census --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("flags take one value each");
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

void metric(std::string& json, bool& first, const std::string& name, double value,
            const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), std::isfinite(value) ? value : 0.0, unit);
  json += buf;
  first = false;
}

const char* layerUnit(const std::string& name) {
  auto endsWith = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (endsWith("_us")) return "us";
  if (endsWith("_s")) return "s";
  if (endsWith("_ratio") || endsWith("_per_poll") || endsWith("_per_fuse") ||
      endsWith("_per_update") || endsWith("_per_region_query")) {
    return "ratio";
  }
  return "count";
}

/// Median of one metric's samples over the given epochs.
double medianOver(const Report& report, const std::vector<std::size_t>& epochs,
                  const Samples& samples, std::size_t Report::EpochEnd::*end) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t e : epochs) {
    ranges.emplace_back(e == 0 ? 0 : report.epochs[e - 1].*end, report.epochs[e].*end);
  }
  return samples.medianOf(ranges);
}

/// The half of the run's epochs (rounded up) that lost the least host CPU
/// to other guests of the hypervisor. Stolen time slows every thread of the
/// stack it lands on, comes in bursts of seconds and varies from epoch to
/// epoch, so the end-to-end medians are taken over these epochs only.
std::vector<std::size_t> quietEpochs(const Report& report) {
  std::vector<std::size_t> order(report.epochs.size());
  for (std::size_t e = 0; e < order.size(); ++e) order[e] = e;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return report.epochs[a].stealPct < report.epochs[b].stealPct;
  });
  order.resize((order.size() + 1) / 2);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  // The program logs shard joins and migrations at Info; keep stdout for
  // the benchmark's own lines.
  mw::util::Logger::instance().setLevel(mw::util::LogLevel::Warn);

  std::printf("# host %s\n", hostLine().c_str());
  std::printf("# workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);

  Report report;
  Tracer tracer(args.trace);
  const CpuTicks ticksBefore = cpuTicks();
  try {
    if (args.workload == "fig9") {
      runFig9(args, report, tracer);
    } else if (args.workload == "city") {
      runCity(args, report, tracer);
    } else if (args.workload == "census") {
      runCensus(args, report, tracer);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mwbench: workload %s aborted: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  const CpuTicks ticksAfter = cpuTicks();
  const auto totalTicks = ticksAfter.total - ticksBefore.total;
  std::printf("# host cpu_steal_pct=%.2f over the run\n",
              totalTicks == 0 ? 0.0
                              : 100.0 * static_cast<double>(ticksAfter.steal - ticksBefore.steal) /
                                    static_cast<double>(totalTicks));
  for (const auto& [key, value] : report.inputs) {
    std::printf("# input %s = %s\n", key.c_str(), value.c_str());
  }
  std::printf("# samples notify=%zu locate=%zu region=%zu setups=%zu\n", report.notifyUs.size(),
              report.locateUs.size(), report.regionUs.size(), report.setupS.size());
  std::printf("# p99_us notify=%.1f (n=%zu) locate=%.1f (n=%zu) region=%.1f (n=%zu)\n",
              report.notifyUs.quantile(0.99), report.notifyUs.size(),
              report.locateUs.quantile(0.99), report.locateUs.size(),
              report.regionUs.quantile(0.99), report.regionUs.size());
  const std::vector<std::size_t> quiet = quietEpochs(report);
  for (std::size_t e = 0; e < report.epochs.size(); ++e) {
    const std::vector<std::size_t> one{e};
    std::printf("# epoch %zu steal_pct=%.2f%s setup_s=%.4f ingest_rate=%.1f notify_p50_us=%.3f "
                "locate_p50_us=%.3f region_p50_us=%.3f\n",
                e, report.epochs[e].stealPct,
                std::binary_search(quiet.begin(), quiet.end(), e) ? " quiet" : "",
                medianOver(report, one, report.setupS, &Report::EpochEnd::setup),
                medianOver(report, one, report.ingestRate, &Report::EpochEnd::ingest),
                medianOver(report, one, report.notifyUs, &Report::EpochEnd::notify),
                medianOver(report, one, report.locateUs, &Report::EpochEnd::locate),
                medianOver(report, one, report.regionUs, &Report::EpochEnd::region));
  }
  for (const std::string& failure : report.failures) {
    std::printf("# failed %s\n", failure.c_str());
  }

  const double ingestRate =
      medianOver(report, quiet, report.ingestRate, &Report::EpochEnd::ingest);
  const double notifyUs = medianOver(report, quiet, report.notifyUs, &Report::EpochEnd::notify);
  const double locateUs = medianOver(report, quiet, report.locateUs, &Report::EpochEnd::locate);
  const double regionUs = medianOver(report, quiet, report.regionUs, &Report::EpochEnd::region);
  std::string json = "{";
  bool first = true;
  if (!args.trace) {
    metric(json, first, "setup_s",
           medianOver(report, quiet, report.setupS, &Report::EpochEnd::setup), "s");
    metric(json, first, "ingest_rate", ingestRate, "readings/s");
    metric(json, first, "notify_p50_us", notifyUs, "us");
    metric(json, first, "locate_p50_us", locateUs, "us");
    metric(json, first, "region_p50_us", regionUs, "us");
    metric(json, first, "rss_mb", report.rssMiB, "MiB");
  } else {
    // End-to-end figures of the traced run itself: set against an untraced
    // run they give the tracing overhead.
    std::printf("# traced_e2e notify_p50_us=%.3f locate_p50_us=%.3f region_p50_us=%.3f "
                "ingest_rate=%.1f\n",
                notifyUs, locateUs, regionUs, ingestRate);
    for (const auto& [name, s] : tracer.summarize()) {
      std::printf("# span %-32s n=%-8zu p50_us=%-10.3f self_p50_us=%-10.3f p99_us=%.3f\n",
                  name.c_str(), s.count, s.medianUs, s.medianSelfUs, s.p99Us);
    }
    for (const auto& [name, value] : report.layer) {
      metric(json, first, name, value, layerUnit(name));
    }
    const std::filesystem::path dir = ".bench_build/spans";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        (dir / (args.workload + "-" + std::to_string(args.seed) + ".jsonl")).string();
    tracer.write(path);
    std::printf("# spans written to %s\n", path.c_str());
  }
  json += "}";

  // Operations failed by a known fault are counted, but do not make the
  // run's other answers wrong.
  const bool correct = report.failed == report.knownFaultFailed;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), json.c_str());
  return 0;
}
