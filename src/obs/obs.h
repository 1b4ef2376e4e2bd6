// Thread binding: how instrumented code finds the current rank's tracer
// and counters.
//
// The obs sinks are *owned* by whoever observes (Simulation owns one
// tracer + counter set per rank; tests own their own) and *found* by
// instrumented code through thread-locals: comm::Comm, the FFT, the tree
// kernels etc. call obs::add_counter()/TraceScope, which resolve to the
// sinks bound to the calling thread, or to nothing — allocation-free and
// branch-cheap — when no Binding is live. This keeps the comm and solver
// layers free of any plumbing through constructors, and makes every
// library usable untraced (tests, benches) at zero cost.
//
// Phase time has one representation: a PhaseScope adds its nanoseconds to
// the bound counters' phase.<x>.ns slot and emits the same interval as the
// trace span <x>. The ledger differences those slots per step and /metrics
// exports them, so trace, ledger and scrape agree on every phase.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/telemetry.h"

namespace hacc::obs {

class CostMap;

/// The calling thread's bound tracer/counters/cost map, or nullptr.
Tracer* tracer() noexcept;
Counters* counters() noexcept;
CostMap* cost_map() noexcept;

/// RAII: binds `tracer`/`counters`/`cost_map` (any may be null) to the
/// calling thread; restores the previous binding on destruction. Bindings
/// nest. Note the binding is per-thread: OpenMP workers spawned inside a
/// bound region do NOT inherit it — kernels that attribute cost capture
/// obs::cost_map() on the rank thread before entering the parallel region.
class Binding {
 public:
  Binding(Tracer* tracer, Counters* counters,
          CostMap* cost_map = nullptr) noexcept;
  ~Binding();
  Binding(const Binding&) = delete;
  Binding& operator=(const Binding&) = delete;

 private:
  Tracer* prev_tracer_;
  Counters* prev_counters_;
  CostMap* prev_cost_;
};

/// Trace-only RAII span through the thread-bound tracer; a no-op (and
/// allocation-free) when none is bound or tracing is disabled.
class TraceScope {
 public:
  explicit TraceScope(NameId name) noexcept
      : t_(tracer()), name_(name), t0_ns_(0) {
    if (t_ != nullptr && t_->enabled())
      t0_ns_ = util::now_ns();
    else
      t_ = nullptr;
  }
  ~TraceScope() {
    if (t_ != nullptr) t_->complete(name_, t0_ns_, util::now_ns() - t0_ns_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* t_;
  NameId name_;
  std::uint64_t t0_ns_;
};

/// A named phase: the span name `<x>` and its counter slot `phase.<x>.ns`.
struct Phase {
  NameId span;
  NameId ns;
};

/// Intern phase `name` (both ids); idempotent. Hot call sites cache the
/// result in a static, as with counter_id().
Phase phase(std::string_view name);
/// The phase <x> of a counter named phase.<x>.ns, or nullopt for any other
/// counter name.
std::optional<std::string_view> phase_of(std::string_view counter_name);

/// RAII phase timer: on close, adds the elapsed nanoseconds to the bound
/// counters' phase.<x>.ns slot (a relaxed atomic add) and, when the bound
/// tracer is enabled, records the same interval as span <x>. The sinks are
/// captured at open. Allocation-free; a pair of clock reads when unbound.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase) noexcept
      : phase_(phase),
        counters_(counters()),
        tracer_(tracer()),
        t0_ns_(util::now_ns()) {}
  ~PhaseScope() {
    const std::uint64_t dur_ns = util::now_ns() - t0_ns_;
    if (counters_ != nullptr) counters_->add(phase_.ns, dur_ns);
    if (tracer_ != nullptr && tracer_->enabled())
      tracer_->complete(phase_.span, t0_ns_, dur_ns);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Phase phase_;
  Counters* counters_;
  Tracer* tracer_;
  std::uint64_t t0_ns_;
};

/// Bump a counter / set a gauge on the thread-bound Counters (no-op when
/// none is bound).
inline void add_counter(NameId id, std::uint64_t delta) noexcept {
  if (Counters* c = counters()) c->add(id, delta);
}
inline void set_gauge(NameId id, std::uint64_t value) noexcept {
  if (Counters* c = counters()) c->set(id, value);
}
/// Record an instant event on the thread-bound tracer.
inline void instant(NameId name) {
  if (Tracer* t = tracer()) t->instant(name);
}

/// Peak resident set size of this process in bytes (0 if unavailable).
std::uint64_t peak_rss_bytes();

}  // namespace hacc::obs
