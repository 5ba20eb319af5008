// CPU models: a CpuSpec converts reference cycles to virtual time, and a
// CpuCluster is a pool of identical cores executing submitted work FIFO.

#ifndef DPDPU_HW_CPU_H_
#define DPDPU_HW_CPU_H_

#include <cstdint>
#include <string>

#include "common/function.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace dpdpu::hw {

/// Describes a CPU: clock rate and an IPC factor relative to a 1.0-IPC
/// reference core. A job of C reference cycles takes C / (clock_hz * ipc)
/// seconds on one core.
struct CpuSpec {
  std::string name;
  uint32_t cores = 1;
  double clock_hz = 3.0e9;
  double ipc = 1.0;

  double effective_hz() const { return clock_hz * ipc; }
};

/// A pool of identical cores with a shared FIFO run queue.
class CpuCluster {
 public:
  CpuCluster(sim::Simulator* sim, CpuSpec spec)
      : spec_(std::move(spec)),
        resource_(sim, spec_.name, spec_.cores),
        sim_(sim) {}

  const CpuSpec& spec() const { return spec_; }
  sim::Simulator* simulator() const { return sim_; }

  /// Virtual time for `ref_cycles` of work on one core of this cluster.
  sim::SimTime CyclesToTime(uint64_t ref_cycles) const {
    return static_cast<sim::SimTime>(double(ref_cycles) /
                                         spec_.effective_hz() * 1e9 +
                                     0.5);
  }

  /// Virtual time for `bytes` at `cycles_per_byte` plus a fixed overhead.
  sim::SimTime WorkTime(uint64_t bytes, double cycles_per_byte,
                        uint64_t fixed_cycles = 0) const {
    return CyclesToTime(
        fixed_cycles +
        static_cast<uint64_t>(double(bytes) * cycles_per_byte + 0.5));
  }

  /// Runs `ref_cycles` of work on the next free core, then `done` (may
  /// be empty: the work only occupies the core).
  void Execute(uint64_t ref_cycles, UniqueFunction<void()> done = {}) {
    resource_.Submit(CyclesToTime(ref_cycles), std::move(done));
  }

  /// Runs work specified directly as virtual time (e.g. precomputed).
  void ExecuteFor(sim::SimTime t, UniqueFunction<void()> done = {}) {
    resource_.Submit(t, std::move(done));
  }

  /// Busy-core equivalent over [0, elapsed]: the paper's "CPU cores
  /// consumed" metric (Figures 2 and 3).
  double CoresConsumed(sim::SimTime elapsed) const {
    return resource_.BusyServerEquivalent(elapsed);
  }

  sim::Resource& resource() { return resource_; }
  const sim::Resource& resource() const { return resource_; }

 private:
  CpuSpec spec_;
  sim::Resource resource_;
  sim::Simulator* sim_;
};

}  // namespace dpdpu::hw

#endif  // DPDPU_HW_CPU_H_
