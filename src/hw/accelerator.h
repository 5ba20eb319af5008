// Hardware accelerator (ASIC) model: fixed setup latency + streaming
// throughput, with a bounded number of concurrent hardware contexts.
// Models the BlueField-2 compression / encryption / RegEx / deduplication
// engines described in the paper's Section 3.

#ifndef DPDPU_HW_ACCELERATOR_H_
#define DPDPU_HW_ACCELERATOR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/function.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace dpdpu::hw {

enum class AcceleratorKind : uint8_t {
  kCompression,
  kEncryption,
  kRegex,
  kDedup,
};

std::string_view AcceleratorKindName(AcceleratorKind kind);

struct AcceleratorSpec {
  AcceleratorKind kind{};
  double bytes_per_sec = 0;
  uint64_t setup_ns = 0;
  /// Number of jobs the engine can process concurrently; further jobs
  /// queue (Section 5 notes accelerator capacities "vary greatly").
  uint32_t max_concurrency = 0;
};

/// Capacity-limited ASIC. A job of B bytes occupies one hardware context
/// for setup_ns + B / bytes_per_sec.
class Accelerator {
 public:
  Accelerator(sim::Simulator* sim, AcceleratorSpec spec)
      : spec_(spec),
        resource_(sim, std::string(AcceleratorKindName(spec.kind)) + "_asic",
                  spec.max_concurrency) {}

  const AcceleratorSpec& spec() const { return spec_; }
  AcceleratorKind kind() const { return spec_.kind; }

  sim::SimTime JobTime(uint64_t bytes) const {
    return spec_.setup_ns +
           static_cast<sim::SimTime>(double(bytes) / spec_.bytes_per_sec *
                                         1e9 +
                                     0.5);
  }

  /// Submits a `bytes`-sized job; `done` fires at completion.
  void SubmitJob(uint64_t bytes, UniqueFunction<void()> done) {
    resource_.Submit(JobTime(bytes), std::move(done));
  }

  uint64_t jobs_completed() const { return resource_.jobs_completed(); }
  double Utilization(sim::SimTime elapsed) const {
    return resource_.Utilization(elapsed);
  }
  sim::Resource& resource() { return resource_; }

 private:
  AcceleratorSpec spec_;
  sim::Resource resource_;
};

}  // namespace dpdpu::hw

#endif  // DPDPU_HW_ACCELERATOR_H_
