// Cross-engine pipelines (paper Section 4): "one engine's output can be
// streamed to another engine without waiting for the completion of work
// in progress. This allows for constructing efficient asynchronous
// pipelines that overlap I/O and computation."
//
// Pipeline streams each item through all stages independently (maximal
// overlap); BatchPipeline inserts a barrier between stages (the
// non-streamed strawman the abl_pipeline benchmark compares against).

#ifndef DPDPU_CORE_RUNTIME_PIPELINE_H_
#define DPDPU_CORE_RUNTIME_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "common/function.h"
#include "common/result.h"
#include "sim/simrace.h"

namespace dpdpu::rt {

/// One asynchronous stage: consume an item, call `done` with the output
/// (possibly later, from a simulation event).
using StageFn =
    UniqueFunction<void(Buffer, UniqueFunction<void(Result<Buffer>)>)>;

/// Streamed pipeline: items progress independently through stages.
class Pipeline {
 public:
  using OutputFn = UniqueFunction<void(Result<Buffer>)>;

  Pipeline& AddStage(StageFn stage) {
    stages_.push_back(std::move(stage));
    return *this;
  }

  void OnOutput(OutputFn fn) { on_output_ = std::move(fn); }

  /// Injects an item at stage 0.
  void Push(Buffer item) {
    // Item counters commute: same-tick pushes/completions from different
    // stages' done-callbacks only permute increment order.
    DPDPU_SIM_ACCESS(race_tag_, "rt::Pipeline", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    ++in_flight_;
    Advance(std::move(item), 0);
  }

  uint64_t in_flight() const { return in_flight_; }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_; }

 private:
  void Advance(Buffer item, size_t stage) {
    DPDPU_SIM_ACCESS(race_tag_, "rt::Pipeline", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    if (stage == stages_.size()) {
      --in_flight_;
      ++completed_;
      if (on_output_) on_output_(std::move(item));
      return;
    }
    stages_[stage](std::move(item),
                   [this, stage](Result<Buffer> out) {
                     if (!out.ok()) {
                       DPDPU_SIM_ACCESS(race_tag_, "rt::Pipeline", /*key=*/0,
                                        sim::AccessKind::kCommutativeWrite);
                       --in_flight_;
                       ++failed_;
                       if (on_output_) on_output_(std::move(out));
                       return;
                     }
                     Advance(std::move(out).value(), stage + 1);
                   });
  }

  std::vector<StageFn> stages_;
  OutputFn on_output_;
  uint64_t in_flight_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_ = 0;
  /// Stage done-callbacks fire from arbitrary engine events; the item
  /// counters they bump are order-insensitive.
  sim::RaceTag race_tag_;
};

/// Barrier pipeline: stage N+1 starts only after stage N finished for
/// every item. Same stage functions, no overlap.
class BatchPipeline {
 public:
  using DoneFn = UniqueFunction<void(std::vector<Result<Buffer>>)>;

  BatchPipeline& AddStage(StageFn stage) {
    stages_.push_back(std::move(stage));
    return *this;
  }

  /// Runs the whole batch; `done` fires when the last stage drains.
  void Run(std::vector<Buffer> items, DoneFn done);

 private:
  void RunStage(size_t stage, std::vector<Buffer> items, DoneFn done);

  std::vector<StageFn> stages_;
};

}  // namespace dpdpu::rt

#endif  // DPDPU_CORE_RUNTIME_PIPELINE_H_
