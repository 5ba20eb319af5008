#include "core/compute/scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "hw/calibration.h"

namespace dpdpu::ce {

std::string_view ExecTargetName(ExecTarget target) {
  switch (target) {
    case ExecTarget::kAuto:
      return "auto";
    case ExecTarget::kDpuAsic:
      return "dpu_asic";
    case ExecTarget::kDpuCpu:
      return "dpu_cpu";
    case ExecTarget::kHostCpu:
      return "host_cpu";
    case ExecTarget::kPcieAccel:
      return "pcie_accel";
  }
  return "?";
}

bool PlacementModel::Available(const DpKernel& kernel,
                               ExecTarget target) const {
  switch (target) {
    case ExecTarget::kDpuAsic:
      return kernel.asic_kind.has_value() &&
             server_->accelerator(*kernel.asic_kind) != nullptr;
    case ExecTarget::kDpuCpu:
    case ExecTarget::kHostCpu:
      return true;
    case ExecTarget::kPcieAccel:
      return server_->pcie_accelerator() != nullptr;
    case ExecTarget::kAuto:
      return true;
  }
  return false;
}

sim::SimTime PlacementModel::ServiceTime(const DpKernel& kernel,
                                         size_t bytes,
                                         ExecTarget target) const {
  switch (target) {
    case ExecTarget::kDpuAsic: {
      if (!kernel.asic_kind.has_value()) return 0;
      hw::Accelerator* asic = server_->accelerator(*kernel.asic_kind);
      return asic == nullptr ? 0 : asic->JobTime(bytes);
    }
    case ExecTarget::kDpuCpu:
      return server_->dpu_cpu().WorkTime(bytes, kernel.cpu_cycles_per_byte,
                                         kernel.fixed_cycles);
    case ExecTarget::kHostCpu: {
      // Host execution pays the PCIe round trip for input and (estimated
      // same-size) output on top of the compute itself.
      sim::SimTime compute = server_->host_cpu().WorkTime(
          bytes, kernel.cpu_cycles_per_byte, kernel.fixed_cycles);
      sim::SimTime dma = 2 * (server_->pcie().TransferTime(bytes) +
                              server_->pcie().spec().latency_ns);
      return compute + dma;
    }
    case ExecTarget::kPcieAccel: {
      hw::PcieAccelerator* accel = server_->pcie_accelerator();
      if (accel == nullptr) return 0;
      // Kernel launch + streaming compute + the PCIe round trip.
      sim::SimTime dma = 2 * (server_->pcie().TransferTime(bytes) +
                              server_->pcie().spec().latency_ns);
      return accel->JobTime(bytes, kernel.cpu_cycles_per_byte) + dma;
    }
    case ExecTarget::kAuto:
      break;
  }
  return 0;
}

sim::SimTime PlacementModel::EstimateCompletion(const DpKernel& kernel,
                                                size_t bytes,
                                                ExecTarget target) const {
  sim::SimTime service = ServiceTime(kernel, bytes, target);
  uint32_t parallelism = 1;
  switch (target) {
    case ExecTarget::kDpuAsic:
      if (kernel.asic_kind.has_value()) {
        hw::Accelerator* asic = server_->accelerator(*kernel.asic_kind);
        if (asic != nullptr) parallelism = asic->spec().max_concurrency;
      }
      break;
    case ExecTarget::kDpuCpu:
      parallelism = server_->dpu_cpu().spec().cores;
      break;
    case ExecTarget::kHostCpu:
      parallelism = server_->host_cpu().spec().cores;
      break;
    case ExecTarget::kPcieAccel:
      if (server_->pcie_accelerator() != nullptr) {
        parallelism = server_->pcie_accelerator()->spec().max_concurrency;
      }
      break;
    case ExecTarget::kAuto:
      break;
  }
  return backlog(target) / std::max<uint32_t>(parallelism, 1) + service;
}

ExecTarget PlacementModel::Choose(const DpKernel& kernel, size_t bytes,
                                  PlacementPolicy policy) const {
  bool asic_ok = Available(kernel, ExecTarget::kDpuAsic);
  switch (policy) {
    case PlacementPolicy::kAsicFirst:
      return asic_ok ? ExecTarget::kDpuAsic : ExecTarget::kDpuCpu;
    case PlacementPolicy::kDpuCpuOnly:
      return ExecTarget::kDpuCpu;
    case PlacementPolicy::kModelBased: {
      ExecTarget best = ExecTarget::kDpuCpu;
      sim::SimTime best_eta = EstimateCompletion(kernel, bytes,
                                                 ExecTarget::kDpuCpu);
      for (ExecTarget t : {ExecTarget::kDpuAsic, ExecTarget::kHostCpu,
                           ExecTarget::kPcieAccel}) {
        if (!Available(kernel, t)) continue;
        if (t == ExecTarget::kDpuAsic && !asic_ok) continue;
        sim::SimTime eta = EstimateCompletion(kernel, bytes, t);
        if (eta < best_eta) {
          best_eta = eta;
          best = t;
        }
      }
      return best;
    }
  }
  return ExecTarget::kDpuCpu;
}

void PlacementModel::OnDispatch(ExecTarget target, sim::SimTime service) {
  backlog_[target] += service;
}

void PlacementModel::OnComplete(ExecTarget target, sim::SimTime service) {
  sim::SimTime& b = backlog_[target];
  b = service > b ? 0 : b - service;
}

sim::SimTime PlacementModel::backlog(ExecTarget target) const {
  auto it = backlog_.find(target);
  return it == backlog_.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// AdmissionQueue.
// ---------------------------------------------------------------------------

void AdmissionQueue::Push(uint32_t tenant, uint64_t weight_bytes,
                          UniqueFunction<void()> dispatch) {
  DPDPU_SIM_ACCESS(race_tag_, "ce::AdmissionQueue", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  ++size_;
  if (discipline_ == Discipline::kFcfs) {
    fifo_.push_back(Entry{weight_bytes, std::move(dispatch)});
  } else {
    tenants_[tenant].queue.push_back(Entry{weight_bytes,
                                           std::move(dispatch)});
  }
}

bool AdmissionQueue::Pop(UniqueFunction<void()>* out) {
  DPDPU_SIM_ACCESS(race_tag_, "ce::AdmissionQueue", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  if (size_ == 0) return false;
  if (discipline_ == Discipline::kFcfs) {
    *out = std::move(fifo_.front().dispatch);
    fifo_.pop_front();
    --size_;
    return true;
  }
  // DRR: advance the cursor over tenants with queued work; a tenant may
  // dispatch while it has deficit, which refills by one quantum per
  // visit. Weights are bytes, so large jobs consume proportional credit.
  // Each full sweep credits every backlogged tenant one quantum, so any
  // head-of-line job becomes dispatchable within weight/quantum sweeps.
  for (int sweep = 0; sweep < 100000; ++sweep) {
    auto it = tenants_.upper_bound(cursor_);
    for (size_t visited = 0; visited <= tenants_.size(); ++visited) {
      if (it == tenants_.end()) it = tenants_.begin();
      if (it == tenants_.end()) break;  // no tenants at all
      TenantState& state = it->second;
      if (!state.queue.empty()) {
        if (state.deficit < state.queue.front().weight) {
          state.deficit += quantum_;
        }
        if (state.deficit >= state.queue.front().weight) {
          state.deficit -= state.queue.front().weight;
          *out = std::move(state.queue.front().dispatch);
          state.queue.pop_front();
          --size_;
          cursor_ = it->first;
          return true;
        }
      } else {
        state.deficit = 0;  // idle tenants keep no credit
      }
      cursor_ = it->first;
      ++it;
    }
  }
  return false;
}

}  // namespace dpdpu::ce
