// NVMe SSD model: per-op access latency, internal streaming bandwidth,
// and a bounded device queue depth (parallel flash channels).

#ifndef DPDPU_HW_SSD_H_
#define DPDPU_HW_SSD_H_

#include <cstdint>
#include <string>

#include "common/function.h"
#include "sim/resource.h"
#include "sim/simrace.h"
#include "sim/simulator.h"

namespace dpdpu::hw {

struct SsdSpec {
  uint64_t read_latency_ns = 80'000;
  uint64_t write_latency_ns = 20'000;
  uint32_t queue_depth = 96;
  double internal_bytes_per_sec = 7.0e9;
};

/// Device-side timing only; data content lives in fssub::BlockDevice.
class SsdDevice {
 public:
  SsdDevice(sim::Simulator* sim, std::string name, SsdSpec spec)
      : spec_(spec), channels_(sim, std::move(name), spec.queue_depth) {}

  const SsdSpec& spec() const { return spec_; }

  sim::SimTime OpTime(bool is_write, uint64_t bytes) const {
    uint64_t lat = is_write ? spec_.write_latency_ns : spec_.read_latency_ns;
    return lat + static_cast<sim::SimTime>(
                     double(bytes) / spec_.internal_bytes_per_sec * 1e9 + 0.5);
  }

  void SubmitRead(uint64_t bytes, UniqueFunction<void()> done) {
    // Op counters commute; queue-order fairness under same-tick submits
    // is the Resource's concern (its grants carry the HB edges).
    DPDPU_SIM_ACCESS(race_tag_, "SsdDevice", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    ++reads_;
    channels_.Submit(OpTime(false, bytes), std::move(done));
  }

  void SubmitWrite(uint64_t bytes, UniqueFunction<void()> done) {
    DPDPU_SIM_ACCESS(race_tag_, "SsdDevice", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    ++writes_;
    channels_.Submit(OpTime(true, bytes), std::move(done));
  }

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t ops_completed() const { return channels_.jobs_completed(); }
  double Utilization(sim::SimTime elapsed) const {
    return channels_.Utilization(elapsed);
  }

 private:
  SsdSpec spec_;
  sim::Resource channels_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  sim::RaceTag race_tag_;
};

}  // namespace dpdpu::hw

#endif  // DPDPU_HW_SSD_H_
