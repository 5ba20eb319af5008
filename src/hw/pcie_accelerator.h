// PCIe-attached datacenter accelerators (paper Section 5, last open
// challenge: "DPDPU CE can be further augmented when additional common
// data center accelerators such as FPGAs and GPUs are connected via
// PCIe... it makes sense to fuse multiple DP kernels inside the
// accelerator to minimize execution latency").
//
// Unlike the fixed-function DPU ASICs, a PCIe accelerator executes *any*
// DP kernel: its speed is modeled as a reference-cycle rate (a kernel of
// C cycles/byte streams at rate/C bytes per second), plus a kernel-launch
// latency. Data must cross the PCIe switch in and out.

#ifndef DPDPU_HW_PCIE_ACCELERATOR_H_
#define DPDPU_HW_PCIE_ACCELERATOR_H_

#include <cstdint>
#include <string>

#include "common/function.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace dpdpu::hw {

struct PcieAcceleratorSpec {
  std::string name = "gpu";
  /// Reference-cycle retire rate across the device (e.g. a GPU retiring
  /// 200 G reference cycles/s runs a 52 cyc/B kernel at ~3.8 GB/s).
  double ref_cycles_per_sec = 200e9;
  /// Kernel launch latency.
  uint64_t launch_ns = 25'000;
  /// Concurrent kernel contexts.
  uint32_t max_concurrency = 16;
  uint64_t memory_bytes = 16ull << 30;
};

class PcieAccelerator {
 public:
  PcieAccelerator(sim::Simulator* sim, PcieAcceleratorSpec spec)
      : spec_(std::move(spec)),
        contexts_(sim, spec_.name, spec_.max_concurrency) {}

  const PcieAcceleratorSpec& spec() const { return spec_; }

  /// On-device time for a job of `bytes` at `cycles_per_byte` (excluding
  /// the PCIe transfers, which the caller models on the shared switch).
  sim::SimTime JobTime(uint64_t bytes, double cycles_per_byte) const {
    return spec_.launch_ns +
           static_cast<sim::SimTime>(double(bytes) * cycles_per_byte /
                                         spec_.ref_cycles_per_sec * 1e9 +
                                     0.5);
  }

  void SubmitJob(uint64_t bytes, double cycles_per_byte,
                 UniqueFunction<void()> done) {
    contexts_.Submit(JobTime(bytes, cycles_per_byte), std::move(done));
  }

  uint64_t jobs_completed() const { return contexts_.jobs_completed(); }
  double Utilization(sim::SimTime elapsed) const {
    return contexts_.Utilization(elapsed);
  }

 private:
  PcieAcceleratorSpec spec_;
  sim::Resource contexts_;
};

}  // namespace dpdpu::hw

#endif  // DPDPU_HW_PCIE_ACCELERATOR_H_
