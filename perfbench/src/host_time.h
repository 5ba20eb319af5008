// Host time of a measured phase, normalised for machine-speed drift.
//
// Shared and virtual machines change speed by tens of percent within
// seconds. The measured phase therefore runs in slices, and a fixed
// reference computation (the benchmark's own code, so no change to the
// simulator ever changes it, and register-only, so the simulator's cache
// footprint does not either) is timed before, between and after them.
// Each slice's host time is scaled by the reference's nominal time over
// the mean of the two reference times around it. Slicing the run does
// not change the simulation: RunUntil at an arrival-window boundary runs
// the same events in the same order.

#ifndef DPDPU_PERFBENCH_HOST_TIME_H_
#define DPDPU_PERFBENCH_HOST_TIME_H_

#include <cstdint>

#include "sim/simulator.h"

namespace perfbench {

/// The reference's host time, in seconds, on the 4-vCPU x86-64 virtual
/// machine the benchmark was written on when that machine ran fast.
/// Normalised host times are expressed at this speed.
inline constexpr double kReferenceNominalS = 0.010;

/// Runs the reference once and returns its host time in seconds. It is
/// an integer hash loop that lives in registers: the simulator's caches
/// and memory footprint cannot change its speed, only the machine can.
double TimeReference();

struct HostTime {
  double raw_s = 0;         // host seconds spent simulating
  double normalised_s = 0;  // the same, at the reference's nominal speed
  /// kReferenceNominalS over the mean reference time: normalises other
  /// host times taken in the same episode (set-up).
  double scale = 1;
};

/// Runs `sim` in equal slices of simulated time up to `arrivals_end`,
/// then drains it, with a `span_name` span around each slice.
HostTime RunMeasured(dpdpu::sim::Simulator& sim,
                     dpdpu::sim::SimTime arrivals_end, uint32_t span_name);

}  // namespace perfbench

#endif  // DPDPU_PERFBENCH_HOST_TIME_H_
