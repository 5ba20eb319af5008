#include "core/runtime/pipeline.h"

#include <memory>

namespace dpdpu::rt {

void BatchPipeline::Run(std::vector<Buffer> items, DoneFn done) {
  RunStage(0, std::move(items), std::move(done));
}

void BatchPipeline::RunStage(size_t stage, std::vector<Buffer> items,
                             DoneFn done) {
  if (stage == stages_.size()) {
    std::vector<Result<Buffer>> out;
    out.reserve(items.size());
    for (Buffer& b : items) out.push_back(std::move(b));
    done(std::move(out));
    return;
  }
  // Issue the whole batch into this stage; the barrier completes when
  // every item returns.
  struct BatchState {
    std::vector<Result<Buffer>> results;
    size_t remaining;
    DoneFn done;
  };
  auto state = std::make_shared<BatchState>();
  size_t n = items.size();
  state->results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    state->results.push_back(Status::Internal("pending"));
  }
  state->remaining = n;
  if (n == 0) {
    done({});
    return;
  }
  state->done = std::move(done);
  for (size_t i = 0; i < n; ++i) {
    stages_[stage](std::move(items[i]),
                   [this, stage, state, i](Result<Buffer> out) {
                     state->results[i] = std::move(out);
                     if (--state->remaining > 0) return;
                     // Barrier reached: carry successes forward.
                     std::vector<Buffer> next;
                     next.reserve(state->results.size());
                     for (Result<Buffer>& r : state->results) {
                       if (r.ok()) next.push_back(std::move(r).value());
                     }
                     RunStage(stage + 1, std::move(next),
                              std::move(state->done));
                   });
  }
}

}  // namespace dpdpu::rt
