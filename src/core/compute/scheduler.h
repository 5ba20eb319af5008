// Compute Engine scheduling (paper Section 5 open challenges): placement
// of DP kernels across ASIC / DPU CPU / host CPU (specified vs scheduled
// execution), and multi-tenant admission to capacity-limited accelerators
// (FCFS vs deficit round robin, after iPipe).

#ifndef DPDPU_CORE_COMPUTE_SCHEDULER_H_
#define DPDPU_CORE_COMPUTE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/function.h"
#include "core/compute/dp_kernel.h"
#include "core/compute/work_item.h"
#include "hw/machine.h"
#include "sim/simrace.h"

namespace dpdpu::ce {

/// Placement policy for kAuto ("scheduled execution") invocations.
enum class PlacementPolicy : uint8_t {
  /// Prefer the ASIC whenever the DPU carries one, else DPU CPU.
  kAsicFirst,
  /// Never use accelerators (software-only baseline).
  kDpuCpuOnly,
  /// Estimate completion time (queue backlog + service time) on every
  /// target and pick the minimum.
  kModelBased,
};

/// Tracks per-target outstanding work and chooses placements.
class PlacementModel {
 public:
  explicit PlacementModel(hw::Server* server) : server_(server) {}

  /// Service time of (kernel, bytes) on `target`; 0 for unavailable.
  sim::SimTime ServiceTime(const DpKernel& kernel, size_t bytes,
                           ExecTarget target) const;

  /// True when `target` can run `kernel` on this server.
  bool Available(const DpKernel& kernel, ExecTarget target) const;

  /// Picks a concrete target for scheduled execution.
  ExecTarget Choose(const DpKernel& kernel, size_t bytes,
                    PlacementPolicy policy) const;

  /// Estimated completion delay: backlog ahead of the job plus its own
  /// service time.
  sim::SimTime EstimateCompletion(const DpKernel& kernel, size_t bytes,
                                  ExecTarget target) const;

  /// Backlog accounting, driven by the Compute Engine.
  void OnDispatch(ExecTarget target, sim::SimTime service);
  void OnComplete(ExecTarget target, sim::SimTime service);

  sim::SimTime backlog(ExecTarget target) const;

 private:
  hw::Server* server_;
  std::map<ExecTarget, sim::SimTime> backlog_;
};

/// Admission queue for a capacity-limited resource: FCFS or per-tenant
/// deficit round robin. Entries carry a byte weight (DRR deficit unit)
/// and a dispatch closure.
class AdmissionQueue {
 public:
  enum class Discipline : uint8_t { kFcfs, kDrr };

  explicit AdmissionQueue(Discipline discipline = Discipline::kFcfs,
                          uint64_t quantum_bytes = 64 * 1024)
      : discipline_(discipline), quantum_(quantum_bytes) {}

  void Push(uint32_t tenant, uint64_t weight_bytes,
            UniqueFunction<void()> dispatch);

  /// Pops the next admissible entry per the discipline. Returns false
  /// when empty.
  bool Pop(UniqueFunction<void()>* out);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  Discipline discipline() const { return discipline_; }
  void set_discipline(Discipline d) { discipline_ = d; }

 private:
  struct Entry {
    uint64_t weight;
    UniqueFunction<void()> dispatch;
  };
  struct TenantState {
    std::deque<Entry> queue;
    uint64_t deficit = 0;
  };

  Discipline discipline_;
  uint64_t quantum_;
  size_t size_ = 0;
  // FCFS path.
  std::deque<Entry> fifo_;
  // DRR path: round-robin cursor over tenants with queued work.
  std::map<uint32_t, TenantState> tenants_;
  uint32_t cursor_ = 0;
  /// Pushes arrive from NIC delivery events, pops from the engine pump;
  /// both are commutative — admission order among same-timestamp pushes
  /// is deterministic tiebreak territory, and the entries are
  /// independent dispatch closures.
  sim::RaceTag race_tag_;
};

}  // namespace dpdpu::ce

#endif  // DPDPU_CORE_COMPUTE_SCHEDULER_H_
