// Resource: a capacity-limited server pool with a FIFO queue, the building
// block for every modeled hardware unit (CPU cores, ASIC slots, NIC links,
// SSD channels). Tracks busy time so experiments can report "cores
// consumed" — the paper's Figures 2 and 3 metric — as busy-server
// equivalents.

#ifndef DPDPU_SIM_RESOURCE_H_
#define DPDPU_SIM_RESOURCE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/function.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "sim/simulator.h"

namespace dpdpu::sim {

/// FIFO multi-server queue. Submissions specify a service time; when one of
/// the `capacity` servers is free, the job occupies it for that long and
/// then the completion callback fires.
class Resource {
 public:
  Resource(Simulator* sim, std::string name, uint32_t capacity)
      : sim_(sim), name_(std::move(name)), capacity_(capacity) {
    DPDPU_CHECK(capacity_ > 0);
  }

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  const std::string& name() const { return name_; }
  uint32_t capacity() const { return capacity_; }
  uint32_t busy() const { return busy_; }
  size_t queue_length() const { return queue_.size(); }
  uint64_t jobs_completed() const { return jobs_completed_; }

  /// Total server-occupied virtual time, in ns. Divide by elapsed time for
  /// the busy-server-equivalent ("cores consumed").
  SimTime busy_time() const { return busy_time_; }

  /// Busy-server equivalent over the window [0, elapsed].
  double BusyServerEquivalent(SimTime elapsed) const {
    return elapsed == 0 ? 0.0 : double(busy_time_) / double(elapsed);
  }

  /// Mean utilization in [0, 1] over the window [0, elapsed].
  double Utilization(SimTime elapsed) const {
    return elapsed == 0 ? 0.0
                        : BusyServerEquivalent(elapsed) / double(capacity_);
  }

  /// Distribution of queueing delays (ns) experienced by jobs.
  const Histogram& wait_histogram() const { return wait_hist_; }

  /// Submits a job needing `service_time` ns of a server. `on_complete`
  /// (may be empty) runs at completion or, with a `latency`, is scheduled
  /// from the completion event to run `*latency` ns later (a link's
  /// propagation delay, even when zero).
  void Submit(SimTime service_time, UniqueFunction<void()> on_complete = {},
              std::optional<SimTime> latency = std::nullopt) {
    if (busy_ < capacity_) {
      StartJob(service_time, std::move(on_complete), latency, /*waited=*/0);
    } else {
      // Queued jobs carry the submitting event's identity so the later
      // grant (StartJob from FinishJob) is causally ordered after the
      // submission — the FIFO-grant happens-before edge for simrace.
      HbToken token;
      if (RaceChecker* rc = RaceChecker::Current()) token = rc->Publish();
      queue_.push_back(Pending{service_time, std::move(on_complete), latency,
                               sim_->now(), token});
    }
  }

 private:
  struct Pending {
    SimTime service_time;
    UniqueFunction<void()> on_complete;
    std::optional<SimTime> latency;
    SimTime enqueue_time;
    HbToken submit_token;  // submit happens-before grant
  };

  /// A running job's continuation, parked in a Resource-owned slot so the
  /// completion event's closure is just [this, slot] and fits inline.
  struct Slot {
    UniqueFunction<void()> on_complete;
    std::optional<SimTime> latency;
  };

  void StartJob(SimTime service_time, UniqueFunction<void()> on_complete,
                std::optional<SimTime> latency, SimTime waited) {
    ++busy_;
    busy_time_ += service_time;
    wait_hist_.Add(waited);
    if (free_slots_.empty()) {
      free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
      slots_.emplace_back();
    }
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = Slot{std::move(on_complete), latency};
    // The completion closure captures only `this` and the slot, so it
    // fits UniqueFunction's inline storage: no per-job allocation.
    static_assert(sizeof(Resource*) + sizeof(uint32_t) <=
                  UniqueFunction<void()>::kInlineSize);
    // Resources are long-lived members of the hardware models; every
    // model drains the simulator before destruction.
    // simlint:allow(R6): Resource outlives the drained event heap
    sim_->Schedule(service_time, [this, slot] { CompleteJob(slot); });
  }

  void CompleteJob(uint32_t slot) {
    // Take the continuation and free its slot before FinishJob, so a
    // grant from the queue can reuse the slot.
    UniqueFunction<void()> cb = std::move(slots_[slot].on_complete);
    std::optional<SimTime> latency = slots_[slot].latency;
    free_slots_.push_back(slot);
    FinishJob();
    if (!cb) return;
    if (latency.has_value()) {
      sim_->Schedule(*latency, std::move(cb));
    } else {
      cb();
    }
  }

  void FinishJob() {
    DPDPU_CHECK(busy_ > 0);
    --busy_;
    ++jobs_completed_;
    if (!queue_.empty() && busy_ < capacity_) {
      Pending p = std::move(queue_.front());
      queue_.pop_front();
      if (RaceChecker* rc = RaceChecker::Current()) rc->Consume(p.submit_token);
      StartJob(p.service_time, std::move(p.on_complete), p.latency,
               sim_->now() - p.enqueue_time);
    }
  }

  Simulator* sim_;
  std::string name_;
  uint32_t capacity_;
  uint32_t busy_ = 0;
  SimTime busy_time_ = 0;
  uint64_t jobs_completed_ = 0;
  std::deque<Pending> queue_;
  /// Continuations of running jobs; at most `capacity_` are in use.
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  // indices into slots_
  Histogram wait_hist_;
};

}  // namespace dpdpu::sim

#endif  // DPDPU_SIM_RESOURCE_H_
