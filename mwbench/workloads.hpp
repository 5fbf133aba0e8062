// The benchmark's workloads. Each runs epochs of (set-up, a fixed amount of
// closed-loop work, checks, teardown) until the run's time is spent, and
// fills the report with its samples, operation counts and, when tracing,
// its per-layer metrics.
#pragma once

#include "common.hpp"

namespace mwbench {

void runFig9(const Args& args, Report& report, Tracer& tracer);
void runCity(const Args& args, Report& report, Tracer& tracer);
void runCensus(const Args& args, Report& report, Tracer& tracer);

}  // namespace mwbench
