// Shared pieces of the benchmark binary: arguments, order statistics, the
// result file the runner reads, the benchmark's own span log (obs::Tracer
// rings written as a Chrome trace), and the barrier-separated probe timer of
// the traced runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "comm/comm.h"
#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;        ///< result JSON path
  std::string work_dir;   ///< scratch directory for files the workload writes
  std::string trace_out;  ///< Chrome trace of the benchmark's spans (traced)
  /// Perturb every stored or derived reference, so each correctness check
  /// must fail (used to show the checks can fail).
  bool wrong_reference = false;
  /// campaign_serve: serve from a cache below the halo catalog's bytes.
  bool evicting_cache = false;
};

/// Cores this process may run on (its affinity mask, as nproc reports).
int available_cores();

/// Restart the kernel's peak resident-set count (VmHWM) from the current
/// resident set, so warm-up never sets the peak. No-op where unsupported.
void reset_peak_rss();

/// Peak resident set since the last reset_peak_rss(), in MiB.
double peak_rss_mb();

/// Monotonic seconds since the process epoch of util::now_ns, the clock the
/// program's tracer stamps its events with.
double now_s();

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Deterministic uniform doubles in [0, 1) from a seeded 64-bit engine (the
/// engine's output sequence is fixed by the standard, unlike distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  double uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::uint64_t below(std::uint64_t n) { return engine_() % n; }
  /// Standard normal (Box-Muller).
  double gaussian();

 private:
  std::mt19937_64 engine_;
};

/// What one workload run reports; written as JSON for perfbench/run.py.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks;
  std::map<std::string, double> metrics;
  /// Named sequences the runner checks against perfbench/reference.json.
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, std::string> info;

  void check(const std::string& name, bool ok, const std::string& detail);
  bool correct() const;
  void write_json(const std::string& path) const;
};

/// The benchmark's own spans, recorded in one obs::Tracer per rank plus one
/// for the driver thread (pid kMaxRanks in the trace) and written at the end
/// as one Chrome trace_event array (readable by scripts/trace_summary.py).
/// Only a traced run records; otherwise add() is a no-op.
class SpanLog {
 public:
  static constexpr int kMaxRanks = 8;
  static constexpr int kDriver = -1;  ///< `rank` of driver-thread spans

  explicit SpanLog(bool record);
  void add(const std::string& name, int rank, double t0_s, double dur_s);
  void write_chrome(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<hacc::obs::Tracer>> tracers_;  // ranks, driver
};

/// Busy and waiting seconds of one probed call, per rank.
struct CallSample {
  double busy = 0;
  double wait = 0;
};

/// Per-rank samples of every probed call, keyed by call name. Each rank
/// writes only its own slot, so rank threads never share a vector.
class ProbeLog {
 public:
  explicit ProbeLog(int ranks) : per_rank_(static_cast<std::size_t>(ranks)) {}
  void add(int rank, const std::string& name, CallSample s) {
    per_rank_[static_cast<std::size_t>(rank)][name].push_back(s);
  }
  /// Median over repetitions of the mean-over-ranks busy time.
  double busy(const std::string& name) const;
  /// Median over repetitions of the mean-over-ranks post-call wait.
  double wait(const std::string& name) const;
  /// Median over repetitions of max/mean busy across ranks.
  double imbalance(const std::string& name) const;

 private:
  std::vector<std::map<std::string, std::vector<CallSample>>> per_rank_;
};

/// Time `fn` on this rank, then wait in a barrier, so busy time and the
/// wait for the slowest rank are recorded apart. Collective.
template <typename F>
void probe(hacc::comm::Comm& c, ProbeLog& log, SpanLog& spans,
           const std::string& name, F&& fn) {
  const double t0 = now_s();
  fn();
  const double t1 = now_s();
  c.barrier();
  const double t2 = now_s();
  log.add(c.rank(), name, CallSample{t1 - t0, t2 - t1});
  spans.add(name, c.rank(), t0, t1 - t0);
  spans.add("comm.wait", c.rank(), t1, t2 - t1);
}

std::string fmt(const char* format, double v);

}  // namespace perfbench
