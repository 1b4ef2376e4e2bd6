// Wall-clock stopwatch for drivers and benches.
//
// Per-phase accounting inside the simulation is obs::PhaseScope (obs/obs.h),
// which feeds the phase counters, the ledger and the trace from one clock
// read; Timer is the plain stopwatch for code that just wants elapsed
// seconds.
#pragma once

#include <chrono>

namespace hacc {

/// Simple wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  /// Seconds since construction or last reset().
  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hacc
