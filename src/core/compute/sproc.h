// Stored procedures (paper Section 5): "users write stored procedures to
// express tasks in the compute engine." A sproc body runs on a DPU CPU
// core and composes DP kernels with Network/Storage Engine operations
// through this context (the Figure 6 programming model, in callback
// style).

#ifndef DPDPU_CORE_COMPUTE_SPROC_H_
#define DPDPU_CORE_COMPUTE_SPROC_H_

#include <string>

#include "common/result.h"
#include "core/compute/dp_kernel.h"
#include "core/compute/work_item.h"

namespace dpdpu::ne {
class NetworkEngine;
}  // namespace dpdpu::ne
namespace dpdpu::se {
class StorageEngine;
}  // namespace dpdpu::se

namespace dpdpu::ce {

class ComputeEngine;

/// Execution context handed to a sproc body.
class SprocContext {
 public:
  explicit SprocContext(ComputeEngine* engine) : engine_(engine) {}

  ComputeEngine& compute() { return *engine_; }

  /// The companion engines, when the sproc runs under a full Platform
  /// (nullptr in compute-only deployments).
  ne::NetworkEngine* network() { return network_; }
  se::StorageEngine* storage() { return storage_; }
  void SetEngines(ne::NetworkEngine* network, se::StorageEngine* storage) {
    network_ = network;
    storage_ = storage;
  }

  /// Fig 6's `ce.get_dpk(...)` + invocation in one call: dispatches a DP
  /// kernel, returning the in-progress work item (or Unavailable for a
  /// specified target this DPU lacks).
  Result<WorkItemPtr> InvokeKernel(const std::string& kernel, Buffer input,
                                   KernelParams params = {},
                                   InvokeOptions options = {});

 private:
  ComputeEngine* engine_;
  ne::NetworkEngine* network_ = nullptr;
  se::StorageEngine* storage_ = nullptr;
};

}  // namespace dpdpu::ce

#endif  // DPDPU_CORE_COMPUTE_SPROC_H_
