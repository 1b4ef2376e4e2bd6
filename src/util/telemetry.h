// The process-wide trace clock.
//
// Every trace timestamp and phase duration is read from this clock, so
// spans, phase counters and benchmark probes measure against one epoch.
#pragma once

#include <cstdint>

namespace hacc::util {

/// Monotonic nanoseconds since a process-wide epoch (steady clock). All
/// ranks of the SimMPI machine share the epoch, so trace timestamps are
/// directly comparable across ranks.
std::uint64_t now_ns() noexcept;

}  // namespace hacc::util
