// Simulated per-layer counters, read through the public stats accessors
// of the hardware model (hw), the Compute Engine (ce), the storage
// engine (se) and its DPU page cache (fssub). A snapshot is taken at the
// start and at the end of the measured phase; the metrics are the
// differences, summed over the serving nodes.

#ifndef DPDPU_PERFBENCH_LAYER_METRICS_H_
#define DPDPU_PERFBENCH_LAYER_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/compute/compute_engine.h"
#include "core/storage/storage_engine.h"
#include "hw/machine.h"
#include "workloads.h"

namespace perfbench {

inline constexpr dpdpu::hw::AcceleratorKind kAsicKinds[] = {
    dpdpu::hw::AcceleratorKind::kCompression,
    dpdpu::hw::AcceleratorKind::kEncryption,
    dpdpu::hw::AcceleratorKind::kRegex,
    dpdpu::hw::AcceleratorKind::kDedup,
};

inline constexpr dpdpu::ce::ExecTarget kCeTargets[] = {
    dpdpu::ce::ExecTarget::kDpuAsic,
    dpdpu::ce::ExecTarget::kDpuCpu,
    dpdpu::ce::ExecTarget::kHostCpu,
};

/// One serving node: its hardware, its Compute Engine and, on storage
/// servers, its storage engine.
struct Node {
  dpdpu::hw::Server* server = nullptr;
  const dpdpu::ce::ComputeEngine* compute = nullptr;
  dpdpu::se::StorageEngine* storage = nullptr;
};

/// Cumulative counters of the serving nodes, summed.
struct LayerCounters {
  double now_ns = 0;
  std::map<std::string, double> sums;

  static LayerCounters Read(const std::vector<Node>& nodes) {
    LayerCounters c;
    auto& s = c.sums;
    for (const Node& node : nodes) {
      dpdpu::hw::Server& server = *node.server;
      c.now_ns = double(server.simulator()->now());
      for (dpdpu::hw::AcceleratorKind kind : kAsicKinds) {
        dpdpu::hw::Accelerator* asic = server.accelerator(kind);
        if (asic == nullptr) continue;
        std::string prefix =
            "hw.asic." + std::string(dpdpu::hw::AcceleratorKindName(kind));
        s[prefix + ".jobs"] += double(asic->jobs_completed());
        s[prefix + ".busy_ns"] += double(asic->resource().busy_time());
        s[prefix + ".capacity"] += double(asic->resource().capacity());
      }
      dpdpu::hw::SsdDevice& ssd = server.ssd();
      s["hw.ssd.reads"] += double(ssd.reads());
      s["hw.ssd.writes"] += double(ssd.writes());
      // Busy channel-ns, recovered from the cumulative utilization.
      s["hw.ssd.busy_ns"] += ssd.Utilization(server.simulator()->now()) *
                             c.now_ns * double(ssd.spec().queue_depth);
      s["hw.ssd.capacity"] += double(ssd.spec().queue_depth);
      if (node.compute != nullptr) {
        for (dpdpu::ce::ExecTarget target : kCeTargets) {
          const dpdpu::ce::TargetStats& ts =
              node.compute->target_stats(target);
          std::string name(dpdpu::ce::ExecTargetName(target));
          s["ce.jobs." + name] += double(ts.jobs);
          s["ce.bytes." + name] += double(ts.bytes);
        }
      }
      if (node.storage != nullptr) {
        dpdpu::se::FileService& files = node.storage->file_service();
        const dpdpu::fssub::PageCacheStats& cache = files.cache_stats();
        s["fssub.dpu_cache.hits"] += double(cache.hits);
        s["fssub.dpu_cache.misses"] += double(cache.misses);
        s["fssub.dpu_cache.evictions"] += double(cache.evictions);
        s["se.file_service.reads"] += double(files.stats().reads);
        s["se.file_service.writes"] += double(files.stats().writes);
        s["se.file_service.cache_hit_reads"] +=
            double(files.stats().cache_hit_reads);
        s["se.director.to_dpu"] +=
            double(node.storage->director().routed_to_dpu());
        s["se.director.to_host"] +=
            double(node.storage->director().routed_to_host());
      }
    }
    return c;
  }

  double Get(const std::string& name) const {
    auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  }
};

/// Stores the per-layer hw/ce/se/fssub metrics of the window between two
/// snapshots into `sim`.
inline void AddLayerMetrics(const std::vector<Node>& nodes,
                            const LayerCounters& before,
                            const LayerCounters& after,
                            std::map<std::string, double>* sim) {
  auto delta = [&](const std::string& name) {
    return after.Get(name) - before.Get(name);
  };
  double window = after.now_ns - before.now_ns;
  for (dpdpu::hw::AcceleratorKind kind : kAsicKinds) {
    std::string prefix =
        "hw.asic." + std::string(dpdpu::hw::AcceleratorKindName(kind));
    (*sim)[prefix + ".jobs"] = delta(prefix + ".jobs");
    (*sim)[prefix + ".busy_frac"] =
        Ratio(delta(prefix + ".busy_ns"), window * after.Get(prefix + ".capacity"));
  }
  (*sim)["hw.ssd.reads"] = delta("hw.ssd.reads");
  (*sim)["hw.ssd.writes"] = delta("hw.ssd.writes");
  (*sim)["hw.ssd.busy_frac"] =
      Ratio(delta("hw.ssd.busy_ns"), window * after.Get("hw.ssd.capacity"));
  for (dpdpu::ce::ExecTarget target : kCeTargets) {
    std::string name(dpdpu::ce::ExecTargetName(target));
    (*sim)["ce.jobs." + name] = delta("ce.jobs." + name);
    (*sim)["ce.bytes." + name] = delta("ce.bytes." + name);
  }
  double hits = delta("fssub.dpu_cache.hits");
  double lookups = hits + delta("fssub.dpu_cache.misses");
  (*sim)["fssub.dpu_cache.lookups"] = lookups;
  (*sim)["fssub.dpu_cache.hit_ratio"] = Ratio(hits, lookups);
  (*sim)["fssub.dpu_cache.evictions"] = delta("fssub.dpu_cache.evictions");
  (*sim)["se.file_service.reads"] = delta("se.file_service.reads");
  (*sim)["se.file_service.writes"] = delta("se.file_service.writes");
  (*sim)["se.file_service.cache_hit_reads"] =
      delta("se.file_service.cache_hit_reads");
  double to_host = delta("se.director.to_host");
  double routed = to_host + delta("se.director.to_dpu");
  (*sim)["se.director.routed"] = routed;
  (*sim)["se.director.host_frac"] = Ratio(to_host, routed);

  // Mean queueing delay of DPU-core work over the whole episode (the
  // Resource histogram cannot be windowed from outside; its percentiles
  // are bucketed, the mean is exact).
  dpdpu::Histogram dpu_wait;
  for (const Node& node : nodes) {
    dpu_wait.Merge(node.server->dpu_cpu().resource().wait_histogram());
  }
  (*sim)["hw.dpu_cpu.wait_mean_us"] = dpu_wait.Mean() / 1e3;
}

}  // namespace perfbench

#endif  // DPDPU_PERFBENCH_LAYER_METRICS_H_
