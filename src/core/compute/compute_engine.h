// The DPDPU Compute Engine (paper Section 5): executes stored procedures
// on DPU CPU cores and DP kernels on ASICs / DPU CPUs / host CPUs, with
// specified or scheduled execution, model-based placement, and
// multi-tenant admission control on the accelerators.

#ifndef DPDPU_CORE_COMPUTE_COMPUTE_ENGINE_H_
#define DPDPU_CORE_COMPUTE_COMPUTE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/function.h"
#include "common/result.h"
#include "core/compute/dp_kernel.h"
#include "core/compute/scheduler.h"
#include "core/compute/sproc.h"
#include "core/compute/work_item.h"
#include "hw/machine.h"

namespace dpdpu::ce {

using SprocFn = UniqueFunction<void(SprocContext&)>;

struct ComputeEngineOptions {
  PlacementPolicy policy = PlacementPolicy::kModelBased;
  AdmissionQueue::Discipline asic_admission =
      AdmissionQueue::Discipline::kFcfs;
  uint64_t drr_quantum_bytes = 64 * 1024;
  /// iPipe-style sproc co-scheduling (Section 5: "schedule not only
  /// sprocs between DPU and host CPUs..."): when the DPU run queue
  /// exceeds the threshold, new sproc invocations migrate to host cores.
  bool sproc_migration = false;
  size_t sproc_migration_queue_threshold = 16;
};

struct TargetStats {
  uint64_t jobs = 0;
  uint64_t bytes = 0;
};

class ComputeEngine {
 public:
  ComputeEngine(hw::Server* server, KernelRegistry registry,
                ComputeEngineOptions options = {});

  ComputeEngine(const ComputeEngine&) = delete;
  ComputeEngine& operator=(const ComputeEngine&) = delete;

  hw::Server& server() { return *server_; }
  const KernelRegistry& registry() const { return registry_; }

  /// "The user can query what DP kernels are available."
  std::vector<std::string> AvailableKernels() const {
    return registry_.List();
  }

  /// Registers an application-defined DP kernel.
  Status RegisterKernel(DpKernel kernel) {
    return registry_.Register(std::move(kernel));
  }

  /// True when `target` can execute `kernel` on this server — the Fig 6
  /// "if the accelerator is currently unavailable" probe.
  bool TargetAvailable(const std::string& kernel, ExecTarget target) const;

  /// Invokes a DP kernel. With a specified target that this hardware
  /// lacks, fails with Unavailable (the None return in Fig 6, prompting
  /// the caller to fall back to dpu_cpu). With kAuto, the engine
  /// schedules the kernel and the returned work item reports where it
  /// ran.
  Result<WorkItemPtr> Invoke(const std::string& kernel, Buffer input,
                             KernelParams params = {},
                             InvokeOptions options = {});

  /// One step of a fused kernel chain.
  struct FusedStep {
    std::string kernel;
    KernelParams params;
  };

  /// Fuses a chain of DP kernels into one placement (Section 5: "it
  /// makes sense to fuse multiple DP kernels inside the accelerator to
  /// minimize execution latency"): one data movement in and out, the
  /// chain's combined compute executed on the device. Valid targets:
  /// kPcieAccel, kHostCpu, kDpuCpu (or kAuto to pick among them); the
  /// fixed-function DPU ASICs cannot fuse across engines.
  Result<WorkItemPtr> InvokeFused(const std::vector<FusedStep>& steps,
                                  Buffer input, InvokeOptions options = {});

  // --- Stored procedures --------------------------------------------------

  /// Registers a sproc ("precompiled into a shared library" in the real
  /// system; a bound callable here).
  Status RegisterSproc(const std::string& name, SprocFn fn);

  /// Invokes a sproc on a DPU CPU core (dispatch cost charged there).
  Status InvokeSproc(const std::string& name);

  std::vector<std::string> Sprocs() const;

  // --- Introspection -------------------------------------------------------

  const PlacementModel& placement() const { return placement_; }
  const TargetStats& target_stats(ExecTarget target) const;
  uint64_t sprocs_invoked() const { return sprocs_invoked_; }
  uint64_t sprocs_migrated_to_host() const { return sprocs_migrated_; }

  /// Companion engines handed to sprocs (SprocContext::network() and
  /// storage()); set by the runtime Platform.
  void SetEngineContext(ne::NetworkEngine* network,
                        se::StorageEngine* storage) {
    sproc_context_.SetEngines(network, storage);
  }

 private:
  void Dispatch(const DpKernel& kernel, ExecTarget target, Buffer input,
                KernelParams params, WorkItemPtr item);
  void RunOnAsic(const DpKernel& kernel, Buffer input, KernelParams params,
                 WorkItemPtr item, uint32_t tenant);
  void StartAsicJob(const DpKernel& kernel, hw::Accelerator* asic,
                    Buffer input, KernelParams params, WorkItemPtr item);
  void PumpAsicQueue(hw::AcceleratorKind kind);
  void Finish(const DpKernel& kernel, ExecTarget target, Buffer input,
              KernelParams params, WorkItemPtr item);

  hw::Server* server_;
  KernelRegistry registry_;
  ComputeEngineOptions options_;
  PlacementModel placement_;
  std::map<std::string, SprocFn> sprocs_;
  // Per-accelerator admission (the in-flight count enforces hardware
  // concurrency; the queue applies FCFS or DRR).
  struct AsicState {
    uint32_t in_flight = 0;
    std::unique_ptr<AdmissionQueue> queue;
  };
  std::map<hw::AcceleratorKind, AsicState> asic_state_;
  // Engine-owned context handed to every sproc: it outlives any async
  // continuation a sproc schedules, so sproc bodies may capture it by
  // reference.
  SprocContext sproc_context_{this};
  std::map<ExecTarget, TargetStats> stats_;
  uint64_t sprocs_invoked_ = 0;
  uint64_t sprocs_migrated_ = 0;
};

}  // namespace dpdpu::ce

#endif  // DPDPU_CORE_COMPUTE_COMPUTE_ENGINE_H_
