// The three workloads and the traced layer probes they share.
#pragma once

#include <string>

#include "common.h"
#include "core/simulation.h"

namespace perfbench {

/// Number of long-range steps the frozen-state comparisons and the layer
/// probes repeat; medians over these are reported.
inline constexpr int kProbeReps = 3;

/// Traced run of one simulation: warm to the end of the schedule, then time
/// each layer's public entry points on that state (see README.md for the
/// list). With `io_dir` non-empty the checkpoint, gio and FOF probes run
/// too, writing their files there. Fills the per-layer metrics of `res`.
void traced_simulation(const hacc::core::SimulationConfig& cfg, int ranks,
                       const std::string& io_dir, Result& res,
                       SpanLog& spans);

void run_treepm_clustered(const Args& args, Result& res, SpanLog& spans);
void run_pm_dominated(const Args& args, Result& res, SpanLog& spans);
void run_campaign_serve(const Args& args, Result& res, SpanLog& spans);

}  // namespace perfbench
