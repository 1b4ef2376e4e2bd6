#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <malloc.h>
#include <sched.h>
#include <stdexcept>
#include <thread>

#include "obs/json.h"
#include "util/names.h"
#include "util/telemetry.h"

namespace perfbench {

int available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void reset_peak_rss() {
  malloc_trim(0);  // hand back what warm-up freed, so it cannot set the peak
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0;
}

double now_s() { return static_cast<double>(hacc::util::now_ns()) * 1e-9; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double Rng::gaussian() {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

namespace {

std::string json_string(const std::string& s) {
  return "\"" + hacc::obs::json_escape(s) + "\"";
}

// Not obs::json_number: a result keeps every digit (%.17g, where that one
// writes %.9g), and a metric that is not finite must read as null so the
// runner rejects it, where that one writes 0.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks.push_back(Check{name, ok, detail});
}

bool Result::correct() const {
  if (checks.empty()) return false;
  for (const auto& c : checks)
    if (!c.ok) return false;
  return true;
}

void Result::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "{\n  \"correct\": " << (correct() ? "true" : "false")
    << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
    << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i)
    f << (i ? "," : "") << "\n    {\"name\": " << json_string(checks[i].name)
      << ", \"ok\": " << (checks[i].ok ? "true" : "false")
      << ", \"detail\": " << json_string(checks[i].detail) << "}";
  f << "\n  ],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    f << (first ? "" : ",") << "\n    " << json_string(k) << ": "
      << json_number(v);
    first = false;
  }
  f << "\n  },\n  \"series\": {";
  first = true;
  for (const auto& [k, v] : series) {
    f << (first ? "" : ",") << "\n    " << json_string(k) << ": [";
    for (std::size_t i = 0; i < v.size(); ++i)
      f << (i ? ", " : "") << json_number(v[i]);
    f << "]";
    first = false;
  }
  f << "\n  },\n  \"info\": {";
  first = true;
  for (const auto& [k, v] : info) {
    f << (first ? "" : ",") << "\n    " << json_string(k) << ": "
      << json_string(v);
    first = false;
  }
  f << "\n  }\n}\n";
  if (!f) throw std::runtime_error("write failed: " + path);
}

SpanLog::SpanLog(bool record) {
  if (!record) return;
  for (int i = 0; i <= kMaxRanks; ++i) {
    tracers_.push_back(std::make_unique<hacc::obs::Tracer>(1 << 14));
    tracers_.back()->set_enabled(true);
  }
}

void SpanLog::add(const std::string& name, int rank, double t0_s,
                  double dur_s) {
  if (tracers_.empty()) return;
  if (rank < kDriver || rank >= kMaxRanks)
    throw std::out_of_range("SpanLog: rank " + std::to_string(rank));
  hacc::obs::Tracer& t = *tracers_[rank == kDriver ? kMaxRanks : rank];
  t.complete(hacc::intern_name(name), static_cast<std::uint64_t>(t0_s * 1e9),
             static_cast<std::uint64_t>(dur_s * 1e9));
}

void SpanLog::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "[";
  const char* sep = "\n";
  for (std::size_t pid = 0; pid < tracers_.size(); ++pid) {
    const hacc::obs::Tracer& t = *tracers_[pid];
    const std::string events = t.events_json(static_cast<int>(pid));
    if (events.empty()) continue;
    if (t.dropped() > 0)
      std::fprintf(stderr, "perfbench: trace of pid %zu dropped %llu spans\n",
                   pid, static_cast<unsigned long long>(t.dropped()));
    f << sep << events;
    sep = ",\n";
  }
  f << "\n]\n";
  if (!f) throw std::runtime_error("write failed: " + path);
}

namespace {

// Each repetition's per-rank values of one call: reps x ranks.
template <typename F>
std::vector<double> per_rep(
    const std::vector<std::map<std::string, std::vector<CallSample>>>& ranks,
    const std::string& name, F&& reduce) {
  std::vector<double> out;
  std::size_t reps = 0;
  for (const auto& r : ranks) {
    const auto it = r.find(name);
    if (it == r.end()) return out;
    reps = reps == 0 ? it->second.size() : std::min(reps, it->second.size());
  }
  for (std::size_t i = 0; i < reps; ++i) {
    std::vector<CallSample> row;
    for (const auto& r : ranks) row.push_back(r.at(name)[i]);
    out.push_back(reduce(row));
  }
  return out;
}

}  // namespace

double ProbeLog::busy(const std::string& name) const {
  return median(per_rep(per_rank_, name, [](const std::vector<CallSample>& r) {
    double s = 0;
    for (const auto& c : r) s += c.busy;
    return s / static_cast<double>(r.size());
  }));
}

double ProbeLog::wait(const std::string& name) const {
  return median(per_rep(per_rank_, name, [](const std::vector<CallSample>& r) {
    double s = 0;
    for (const auto& c : r) s += c.wait;
    return s / static_cast<double>(r.size());
  }));
}

double ProbeLog::imbalance(const std::string& name) const {
  return median(per_rep(per_rank_, name, [](const std::vector<CallSample>& r) {
    double s = 0, mx = 0;
    for (const auto& c : r) {
      s += c.busy;
      mx = std::max(mx, c.busy);
    }
    return s > 0 ? mx * static_cast<double>(r.size()) / s : 1.0;
  }));
}

}  // namespace perfbench
