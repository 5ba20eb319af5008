// The benchmark's workloads. Each call runs one episode: build the
// system and generate the inputs (set-up), run a warm-up phase, then a
// measured phase, then check the outputs. An episode's simulated
// results are a pure function of the seed; the benchmark repeats
// episodes to fill its run time and compares them.

#ifndef DPDPU_PERFBENCH_WORKLOADS_H_
#define DPDPU_PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace perfbench {

struct EpisodeOptions {
  uint64_t seed = 1;
  /// Record spans (the tracer is enabled for the measured phase only).
  bool traced = false;
  /// Run under simrace, the repository's happens-before race checker.
  bool race_check = true;
  /// Cross-check kernel outputs against direct kern calls after the
  /// measured phase (costly; later episodes compare to the first).
  bool verify_kernels = false;
};

struct Episode {
  // Host time, seconds.
  double setup_s = 0;    // system build + input generation
  double build_s = 0;    // system build alone (fleet or engine)
  double measure_s = 0;  // measured phase
  /// measure_s at the reference's nominal speed (see host_time.h), and
  /// the factor that normalises this episode's other host times.
  double measure_norm_s = 0;
  double scale = 1;
  uint64_t attempted = 0;  // ops due in the measured phase
  uint64_t failed = 0;
  /// Simulated results, exact for a seed: end-to-end sim_* values, the
  /// per-layer simulated counters, and sim.events.
  std::map<std::string, double> sim;
  /// Per-op results compared across episodes (e.g. regex match counts).
  std::vector<uint64_t> check_values;
  /// Output checks that failed; any entry fails the run.
  std::vector<std::string> errors;
};

Episode RunDdsRead(const EpisodeOptions& options);
Episode RunKvWrite(const EpisodeOptions& options);
Episode RunKvMixed(const EpisodeOptions& options);  // known-defect reproducer
Episode RunCeOffload(const EpisodeOptions& options);

// --- helpers shared by the workloads ------------------------------------

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}


/// Open-loop arrival times: exponential gaps (Poisson arrivals), with
/// the warm-up gaps and the measured gaps each rescaled so the warm-up
/// spans exactly warm_ops / rate and the measured phase exactly
/// measured_ops / rate. Rescaling keeps the burstiness but removes the
/// seed-to-seed drift of the window length.
inline std::vector<dpdpu::sim::SimTime> ArrivalTimes(uint64_t warm_ops,
                                                     uint64_t measured_ops,
                                                     double rate_per_s,
                                                     dpdpu::Pcg32& rng) {
  std::vector<double> gaps(warm_ops + measured_ops);
  for (double& g : gaps) g = rng.NextExponential(1.0);
  std::vector<dpdpu::sim::SimTime> times;
  times.reserve(gaps.size());
  double t = 0;
  auto emit = [&](size_t begin, size_t end, double span_ns) {
    double sum = 0;
    for (size_t i = begin; i < end; ++i) sum += gaps[i];
    double base = t;
    double acc = 0;
    for (size_t i = begin; i < end; ++i) {
      acc += gaps[i];
      times.push_back(dpdpu::sim::SimTime(base + acc / sum * span_ns));
    }
    t = base + span_ns;
  };
  emit(0, warm_ops, double(warm_ops) / rate_per_s * 1e9);
  emit(warm_ops, gaps.size(), double(measured_ops) / rate_per_s * 1e9);
  return times;
}

/// Start of the measured phase for ArrivalTimes(warm_ops, ...).
inline dpdpu::sim::SimTime MeasuredStart(uint64_t warm_ops,
                                         double rate_per_s) {
  return dpdpu::sim::SimTime(double(warm_ops) / rate_per_s * 1e9);
}

/// Simulated op latencies (ns) summarised into `sim`: sim_mean_us,
/// sim_p50_us, and sim_tail_us at sim_tail_pct over sim_tail_samples ops,
/// where the tail is the highest percentile with at least ten samples
/// beyond it.
inline void AddLatencyMetrics(std::vector<uint64_t> latencies_ns,
                              std::map<std::string, double>* sim) {
  std::sort(latencies_ns.begin(), latencies_ns.end());
  size_t n = latencies_ns.size();
  if (n == 0) return;
  size_t tail = n > 10 ? n - 11 : 0;
  double sum = 0;
  for (uint64_t l : latencies_ns) sum += double(l);
  (*sim)["sim_mean_us"] = sum / double(n) / 1e3;
  (*sim)["sim_p50_us"] = double(latencies_ns[(n - 1) / 2]) / 1e3;
  (*sim)["sim_tail_us"] = double(latencies_ns[tail]) / 1e3;
  (*sim)["sim_tail_pct"] = 100.0 * double(tail + 1) / double(n);
  (*sim)["sim_tail_samples"] = double(n);
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench

#endif  // DPDPU_PERFBENCH_WORKLOADS_H_
