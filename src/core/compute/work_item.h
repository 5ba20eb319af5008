// WorkItem: the asynchronous handle returned by Compute Engine kernel
// invocations — the paper's "the call always returns a valid work item in
// progress" (Section 5).

#ifndef DPDPU_CORE_COMPUTE_WORK_ITEM_H_
#define DPDPU_CORE_COMPUTE_WORK_ITEM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/buffer.h"
#include "common/function.h"
#include "common/result.h"
#include "sim/simulator.h"

namespace dpdpu::ce {

/// Where a kernel or sproc executes. kAuto requests scheduled execution;
/// the others are the paper's "specified execution".
enum class ExecTarget : uint8_t {
  kAuto,
  kDpuAsic,
  kDpuCpu,
  kHostCpu,
  /// PCIe-attached GPU/FPGA-class accelerator (Section 5 extension).
  kPcieAccel,
};

std::string_view ExecTargetName(ExecTarget target);

/// Per-invocation options for DP kernel dispatch.
struct InvokeOptions {
  /// kAuto = scheduled execution; anything else = specified execution.
  ExecTarget target = ExecTarget::kAuto;
  uint32_t tenant = 0;
};

class WorkItem {
 public:
  bool done() const { return done_; }

  /// Valid once done().
  const Result<Buffer>& result() const { return result_; }

  /// Where the kernel actually ran — the CE "informs the decision to the
  /// application" (Section 4).
  ExecTarget executed_on() const { return executed_on_; }

  sim::SimTime submitted_at() const { return submitted_at_; }
  sim::SimTime completed_at() const { return completed_at_; }
  sim::SimTime latency() const { return completed_at_ - submitted_at_; }

  /// Registers a continuation; fires immediately when already done.
  void OnComplete(UniqueFunction<void(WorkItem&)> fn) {
    if (done_) {
      fn(*this);
    } else {
      continuations_.push_back(std::move(fn));
    }
  }

  /// Completion entry point for the engine.
  void Complete(Result<Buffer> result, ExecTarget ran_on,
                sim::SimTime completed_at) {
    result_ = std::move(result);
    executed_on_ = ran_on;
    completed_at_ = completed_at;
    done_ = true;
    std::vector<UniqueFunction<void(WorkItem&)>> continuations =
        std::move(continuations_);
    for (auto& fn : continuations) fn(*this);
  }

  void set_submitted_at(sim::SimTime t) { submitted_at_ = t; }

 private:
  bool done_ = false;
  Result<Buffer> result_{Status::Internal("work item not complete")};
  ExecTarget executed_on_ = ExecTarget::kAuto;
  sim::SimTime submitted_at_ = 0;
  sim::SimTime completed_at_ = 0;
  std::vector<UniqueFunction<void(WorkItem&)>> continuations_;
};

using WorkItemPtr = std::shared_ptr<WorkItem>;

}  // namespace dpdpu::ce

#endif  // DPDPU_CORE_COMPUTE_WORK_ITEM_H_
