// perfbench: run one benchmark workload and write its result file.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out RESULT.json --work-dir DIR [--trace-out TRACE.json]
//             [--wrong-reference]
//
// perfbench/run.py is the entry point; it sets OMP_NUM_THREADS per
// workload, runs the host probe, checks the result file against
// perfbench/reference.json and prints the metrics line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--wrong-reference") {
      a.wrong_reference = true;
      continue;
    }
    if (k == "--evicting-cache") {
      a.evicting_cache = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty() || a.out.empty() || a.work_dir.empty())
    usage("--workload, --out and --work-dir are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Result res;
  const bool write_trace = args.trace && !args.trace_out.empty();
  perfbench::SpanLog spans(write_trace);
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "treepm_clustered")
      perfbench::run_treepm_clustered(args, res, spans);
    else if (args.workload == "pm_dominated")
      perfbench::run_pm_dominated(args, res, spans);
    else if (args.workload == "campaign_serve")
      perfbench::run_campaign_serve(args, res, spans);
    else
      usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    res.check("workload completes", false, e.what());
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  // The process peak, unless the workload reported a median of its own.
  res.metrics.emplace("peak_rss_mb", perfbench::peak_rss_mb());
  res.write_json(args.out);
  if (write_trace) spans.write_chrome(args.trace_out);
  return 0;
}
