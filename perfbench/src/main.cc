// dpdpu_perf: the repository benchmark.
//
//   dpdpu_perf --workload <dds_read|kv_write|ce_offload|kv_mixed>
//              --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Repeats episodes of one workload (set-up, warm-up, measured phase,
// output checks) until --seconds of host time have passed, then prints
// the metrics, one per line with unit and clock, and as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates plain,
// traced and race-checker-off episodes and reports the per-layer ones.
// Every episode of a run must reproduce the first one's simulated
// results exactly. Exit status is 0 only when every check passed.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

using WorkloadFn = Episode (*)(const EpisodeOptions&);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "dds_read") return RunDdsRead;
  if (name == "kv_write") return RunKvWrite;
  if (name == "kv_mixed") return RunKvMixed;
  if (name == "ce_offload") return RunCeOffload;
  return nullptr;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* clock;  // "host" or "sim"
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %.10g %s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

enum class Variant { kPlain, kTraced, kNoRace };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kPlain:
      return "plain";
    case Variant::kTraced:
      return "traced";
    case Variant::kNoRace:
      return "no-race-check";
  }
  return "?";
}

const char* const kKernels[] = {"compress", "decompress", "encrypt",
                                "decrypt", "regex_count"};

// Host-time layer figures of one traced episode, from its span totals,
// normalised to the reference speed by `scale`. Each layer's figure is
// an absolute cost of its own self time (per event, per op, or seconds),
// so a change to one layer moves only that layer's figure; a layer a
// workload never enters reads 0. The "share." entries (self time as a
// share of the measured phase) are printed as context, not reported.
std::map<std::string, double> ReadLayerTimes(const Episode& ep, double scale) {
  Tracer& tracer = Tracer::Get();
  std::map<std::string, double> v;
  const double ops = double(ep.attempted);
  auto self_ns = [&](const std::string& span) {
    return scale * double(tracer.totals(span).self_ns);
  };
  auto share = [&](const std::string& span) {
    v["share." + span] =
        Ratio(double(tracer.totals(span).self_ns), ep.measure_s * 1e9);
  };
  v["sim.host_ns_per_event"] =
      Ratio(self_ns("sim.run"), ep.sim.at("sim.events"));
  v["cluster.issue_ns_per_op"] = Ratio(self_ns("cluster.issue"), ops);
  v["ce.invoke_ns_per_op"] = Ratio(self_ns("ce.invoke"), ops);
  for (const char* span : {"sim.run", "cluster.issue", "ce.invoke"}) {
    share(span);
  }
  for (const char* k : kKernels) {
    std::string name = std::string("kern.") + k;
    Tracer::Totals t = tracer.totals(name);
    v[name + ".host_s"] = self_ns(name) / 1e9;
    v[name + ".mb_per_host_s"] =
        Ratio(double(t.bytes) / 1e6, scale * double(t.total_ns) / 1e9);
    share(name);
  }
  return v;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dpdpu_perf --workload <dds_read|kv_write|"
                 "ce_offload|kv_mixed> --seed <n> --seconds <s> "
                 "--trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  WorkloadFn run = FindWorkload(args.workload);
  if (run == nullptr) {
    std::fprintf(stderr, "dpdpu_perf: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  // Episode schedule: end-to-end runs repeat plain episodes; traced runs
  // cycle plain / traced / race-checker-off so each is measured under
  // the same conditions. At least three episodes, then until time is up.
  // Host times are reported normalised to the reference speed. Every
  // episode starts from the same heap: a fixed mmap threshold stops glibc
  // from raising it after the first episode frees its large blocks, and
  // the heap is trimmed after each episode, so each set-up pays the same
  // first touch of the block devices instead of a cost that falls from
  // episode to episode.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::vector<Variant> cycle = {Variant::kPlain};
  if (args.trace) cycle = {Variant::kPlain, Variant::kTraced, Variant::kNoRace};
  auto start = std::chrono::steady_clock::now();
  std::vector<Episode> episodes;
  std::vector<Variant> variants;
  std::vector<std::map<std::string, double>> layer_times;
  std::vector<std::string> errors;
  while (episodes.size() < 3 || SecondsSince(start) < args.seconds ||
         episodes.size() % cycle.size() != 0) {
    Variant variant = cycle[episodes.size() % cycle.size()];
    EpisodeOptions options;
    options.seed = args.seed;
    options.traced = variant == Variant::kTraced;
    options.race_check = variant != Variant::kNoRace;
    options.verify_kernels = episodes.empty();
    Tracer::Get().ResetTotals();
    Episode ep = run(options);
    malloc_trim(0);
    if (options.traced) {
      layer_times.push_back(ReadLayerTimes(ep, ep.scale));
      Tracer::Get().FreezeRecords();  // the written trace keeps one episode
    }
    std::printf("episode %zu (%s): setup %.3f s, measured %.3f s "
                "(normalised %.3f s), %llu ops, %.1f ops/host-s\n",
                episodes.size(), VariantName(variant), ep.setup_s,
                ep.measure_s, ep.measure_norm_s,
                (unsigned long long)ep.attempted,
                double(ep.attempted) / ep.measure_norm_s);
    for (const std::string& e : ep.errors) {
      errors.push_back("episode " + std::to_string(episodes.size()) + ": " + e);
    }
    if (!episodes.empty() && (ep.sim != episodes.front().sim ||
                              ep.check_values !=
                                  episodes.front().check_values)) {
      errors.push_back("episode " + std::to_string(episodes.size()) +
                       " (" + VariantName(variant) +
                       ") did not reproduce the first episode's simulated "
                       "results");
    }
    episodes.push_back(std::move(ep));
    variants.push_back(variant);
  }

  const Episode& first = episodes.front();
  // Median over one kind of episode of a host time.
  auto host_median = [&](Variant v, auto value) {
    std::vector<double> values;
    for (size_t i = 0; i < episodes.size(); ++i) {
      if (variants[i] == v) values.push_back(value(episodes[i]));
    }
    return Median(values);
  };
  auto raw = [](const Episode& e) { return e.measure_s; };
  auto normalised = [](const Episode& e) { return e.measure_norm_s; };
  const double ops = double(first.attempted);
  const double plain_s = host_median(Variant::kPlain, normalised);
  auto sim = [&first](const std::string& name) {
    auto it = first.sim.find(name);
    return it == first.sim.end() ? 0.0 : it->second;
  };

  std::printf("workload %s, seed %llu: %zu episodes in %.1f s\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              episodes.size(), SecondsSince(start));
  std::printf("simulated latency from due time over %.0f ops: mean %.4g us, "
              "p50 %.4g us, tail p%.2f %.4g us (the highest percentile with "
              ">= 10 samples beyond it)\n",
              sim("sim_tail_samples"), sim("sim_mean_us"), sim("sim_p50_us"),
              sim("sim_tail_pct"), sim("sim_tail_us"));
  std::printf("host time of the measured phase, median over plain "
              "episodes: %.4f s raw (%.1f ops/host-s), %.4f s normalised "
              "(%.1f ops/host-s)\n",
              host_median(Variant::kPlain, raw),
              ops / host_median(Variant::kPlain, raw), plain_s, ops / plain_s);
  std::printf("fail_frac %.6g (%llu failed of %llu attempted)\n",
              Ratio(double(first.failed), double(first.attempted)),
              (unsigned long long)first.failed,
              (unsigned long long)first.attempted);
  // Every simulated value, for exact comparison across runs and seeds.
  std::printf("SIM {");
  for (auto it = first.sim.begin(); it != first.sim.end(); ++it) {
    std::printf("%s\"%s\": %.17g", it == first.sim.begin() ? "" : ", ",
                it->first.c_str(), it->second);
  }
  std::printf("}\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"ops_per_host_s", ops / plain_s, "1/s", "host"},
        {"setup_s",
         host_median(Variant::kPlain,
                     [](const Episode& e) { return e.setup_s * e.scale; }),
         "s", "host"},
        {"peak_rss_mb", PeakRssMb(), "MB", "host"},
        {"sim_mean_us", sim("sim_mean_us"), "us", "sim"},
        {"sim_tail_us", sim("sim_tail_us"), "us", "sim"},
        {"sim_ops_per_s", sim("sim_ops_per_s"), "1/s", "sim"},
        {"sim_host_cores", sim("sim_host_cores"), "cores", "sim"},
        {"compress_ratio", sim("compress_ratio"), "ratio", "sim"},
    };
  } else {
    double norace_s = host_median(Variant::kNoRace, normalised);
    double traced_s = host_median(Variant::kTraced, normalised);
    auto layer = [&layer_times](const std::string& name) {
      std::vector<double> values;
      for (const auto& lt : layer_times) values.push_back(lt.at(name));
      return Median(values);
    };
    std::vector<double> builds;
    for (const Episode& e : episodes) builds.push_back(e.build_s * e.scale);
    metrics = {
        {"sim.events", sim("sim.events"), "count", "sim"},
        {"sim.host_ns_per_event", layer("sim.host_ns_per_event"), "ns", "host"},
        {"setup.build_s", Median(builds), "s", "host"},
        {"cluster.issue_ns_per_op", layer("cluster.issue_ns_per_op"), "ns",
         "host"},
        {"simrace.host_ns_per_op", (plain_s - norace_s) * 1e9 / ops, "ns",
         "host"},
        {"ce.invoke_ns_per_op", layer("ce.invoke_ns_per_op"), "ns", "host"},
    };
    for (const char* k : kKernels) {
      std::string base = std::string("kern.") + k;
      metrics.push_back({base + ".host_s", layer(base + ".host_s"), "s",
                         "host"});
      metrics.push_back({base + ".mb_per_host_s", layer(base + ".mb_per_host_s"),
                         "MB/s", "host"});
    }
    std::printf("self time as a share of the measured phase (median over "
                "traced episodes):");
    for (const auto& [name, value] : layer_times.front()) {
      if (name.rfind("share.", 0) == 0) {
        std::printf(" %s %.4f", name.c_str() + 6, layer(name));
      }
    }
    std::printf("; simrace %.4f\n", 1.0 - norace_s / plain_s);
    // Traced minus untraced ops_per_host_s, as a share of the untraced.
    metrics.push_back(
        {"trace.overhead_frac", 1.0 - plain_s / traced_s, "frac", "host"});
    struct SimLayer {
      const char* name;
      const char* unit;
    };
    const SimLayer sim_layers[] = {
        {"hw.host_cpu.busy_cores", "cores"},
        {"hw.dpu_cpu.busy_cores", "cores"},
        {"hw.dpu_cpu.wait_mean_us", "us"},
        {"hw.ssd.reads", "count"},
        {"hw.ssd.writes", "count"},
        {"hw.ssd.busy_frac", "frac"},
        {"hw.asic.compression.jobs", "count"},
        {"hw.asic.compression.busy_frac", "frac"},
        {"hw.asic.encryption.jobs", "count"},
        {"hw.asic.encryption.busy_frac", "frac"},
        {"hw.asic.regex.jobs", "count"},
        {"hw.asic.regex.busy_frac", "frac"},
        {"hw.asic.dedup.jobs", "count"},
        {"hw.asic.dedup.busy_frac", "frac"},
        {"netsub.fabric_bytes", "bytes"},
        {"netsub.packets_delivered", "count"},
        {"netsub.packets_dropped", "count"},
        {"fssub.dpu_cache.hit_ratio", "frac"},
        {"fssub.dpu_cache.lookups", "count"},
        {"fssub.dpu_cache.evictions", "count"},
        {"se.director.host_frac", "frac"},
        {"se.director.routed", "count"},
        {"se.file_service.reads", "count"},
        {"se.file_service.writes", "count"},
        {"se.file_service.cache_hit_reads", "count"},
        {"ce.jobs.dpu_asic", "count"},
        {"ce.jobs.dpu_cpu", "count"},
        {"ce.jobs.host_cpu", "count"},
        {"ce.bytes.dpu_asic", "bytes"},
        {"ce.bytes.dpu_cpu", "bytes"},
        {"ce.bytes.host_cpu", "bytes"},
        {"cluster.resteers", "count"},
        {"cluster.write_retries", "count"},
        {"cluster.consistency.commits", "count"},
        {"cluster.read_repairs", "count"},
    };
    for (const SimLayer& l : sim_layers) {
      metrics.push_back({l.name, sim(l.name), l.unit, "sim"});
    }
  }

  if (!args.trace_out.empty() &&
      !Tracer::Get().WriteChromeTrace(args.trace_out)) {
    errors.push_back("cannot write " + args.trace_out);
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  bool correct = errors.empty();
  PrintResult(correct, first.attempted, first.failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
