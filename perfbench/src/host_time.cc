#include "host_time.h"

#include <chrono>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSlices = 12;

volatile uint64_t sink;

}  // namespace

double TimeReference() {
  auto start = std::chrono::steady_clock::now();
  uint64_t h = 1;
  for (uint32_t i = 0; i < 1'600'000; ++i) {
    h = h * 0x9e3779b97f4a7c15ull + i;
    h ^= h >> 29;
    h += (h & 1) ? 3 : 7;
  }
  sink = h;
  return SecondsSince(start);
}

HostTime RunMeasured(dpdpu::sim::Simulator& sim,
                     dpdpu::sim::SimTime arrivals_end, uint32_t span_name) {
  const dpdpu::sim::SimTime begin = sim.now();
  HostTime host;
  double reference_sum = 0;
  double before = TimeReference();
  reference_sum += before;
  for (int k = 1; k <= kSlices; ++k) {
    auto start = std::chrono::steady_clock::now();
    {
      ScopedSpan span(span_name, 0);
      if (k < kSlices) {
        sim.RunUntil(begin + (arrivals_end - begin) * k / kSlices);
      } else {
        sim.Run();  // the last arrivals, then the drain
      }
    }
    double slice_s = SecondsSince(start);
    double after = TimeReference();
    reference_sum += after;
    host.raw_s += slice_s;
    host.normalised_s += slice_s * kReferenceNominalS / (0.5 * (before + after));
    before = after;
  }
  host.scale = kReferenceNominalS / (reference_sum / (kSlices + 1));
  return host;
}

}  // namespace perfbench
