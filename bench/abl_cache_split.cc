// Ablation: host-vs-DPU cache sizing (paper Section 9, "Caching in
// DPU-backed file system": "caching in host memory is most efficient for
// host applications, while caching in DPU memory works better for remote
// requests that can be offloaded. Sizing the cache at the right
// granularity ... is hence a key challenge").
//
// A fixed total cache budget is split between a host-side cache (serving
// the host application's reads) and the DPU-side cache (serving
// offloaded remote reads). We sweep the split under three workload mixes
// and report mean read latency — the optimum tracks the workload.

#include <cstdio>

#include "common/histogram.h"
#include "core/runtime/metrics.h"
#include "core/runtime/platform.h"
#include "core/storage/storage_engine.h"
#include "fssub/page_cache.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

constexpr uint64_t kTotalCache = 32ull << 20;  // 32 MB budget
constexpr uint32_t kPage = 8192;
constexpr uint32_t kFilePages = 16 * 1024;  // 128 MB working set

// Runs `host_fraction` of reads from the host app, the rest as remote
// offloaded reads; returns mean latency with the given DPU cache share.
double Run(double dpu_cache_share, double host_fraction) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  so.storage.dpu_cache_bytes = uint64_t(kTotalCache * dpu_cache_share);
  so.fs_device_blocks = 64 * 1024;  // 256 MB device
  co.node = 2;
  co.fs_device_blocks = 1024;
  rt::Platform server(&sim, &net, so);
  rt::Platform client(&sim, &net, co);
  server.storage().Serve();

  auto file = server.fs().Create("data");
  DPDPU_CHECK(file.ok());
  Buffer mb = kern::GenerateRandomBytes(1 << 20, 1);
  for (uint32_t i = 0; i < kFilePages * kPage / (1 << 20); ++i) {
    DPDPU_CHECK(
        server.fs().Write(*file, uint64_t(i) << 20, mb.span()).ok());
  }

  // Host-side cache for the host application's reads.
  fssub::PageCache host_cache(kTotalCache -
                              uint64_t(kTotalCache * dpu_cache_share));

  se::RemoteStorageClient rsc(&client.network(), 1, 9000);
  ZipfGenerator zipf(kFilePages, 0.99);
  Histogram latency;

  constexpr int kReads = 4000;
  int done = 0;
  int next_read = 0;
  // One outstanding read, RNG keyed off the issue counter: this
  // ablation measures cache *placement*, and concurrency would fold
  // queueing noise into the mean — worse, two reads co-arriving at a
  // FIFO (host-path and remote-path requests converge at the SSD and
  // the wire) make the queue admission order, and so the latency sum,
  // an artifact of event tie-breaking.
  std::function<void()> issue = [&] {
    if (done >= kReads) return;
    Pcg32 rng(sim::SplitMix64(13 ^ uint64_t(next_read++)));
    uint64_t page = zipf.Next(rng);
    sim::SimTime start = sim.now();
    auto finish = [&, start](bool ok) {
      if (ok) latency.Add(sim.now() - start);
      ++done;
      issue();
    };
    if (rng.NextDouble() < host_fraction) {
      // Host application read: host cache first, then the file service.
      fssub::PageKey key{*file, page};
      if (host_cache.Get(key) != nullptr) {
        finish(true);
        return;
      }
      server.storage().host_client().Read(
          *file, page * kPage, kPage,
          [&, key, finish](Result<Buffer> d) {
            if (d.ok()) host_cache.Put(key, std::move(d).value());
            finish(d.ok());
          });
    } else {
      rsc.Read(*file, page * kPage, kPage,
               [finish](Result<Buffer> d, uint64_t) { finish(d.ok()); });
    }
  };
  issue();
  sim.Run();
  return latency.Mean() / 1000.0;  // us
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Ablation: host/DPU cache split (Section 9) ===\n");
  std::printf("32 MB total cache, Zipf(0.99) over a 128 MB file; mean "
              "read latency (us)\n\n");
  std::printf("%18s | %10s %10s %10s\n", "dpu cache share",
              "remote-90%", "mixed-50%", "host-90%");

  for (double share : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    double remote_heavy = Run(share, /*host_fraction=*/0.1);
    double mixed = Run(share, 0.5);
    double host_heavy = Run(share, 0.9);
    std::printf("%17.0f%% | %10.1f %10.1f %10.1f\n", share * 100,
                remote_heavy, mixed, host_heavy);
    std::string split = "dpu" + std::to_string(int(share * 100)) + "pct";
    rt::EmitJsonMetric("abl_cache_split", "remote_heavy_mean_" + split,
                       remote_heavy, "us");
    rt::EmitJsonMetric("abl_cache_split", "mixed_mean_" + split, mixed,
                       "us");
    rt::EmitJsonMetric("abl_cache_split", "host_heavy_mean_" + split,
                       host_heavy, "us");
  }
  std::printf("\nshape: remote-heavy workloads want the budget in DPU "
              "memory, host-heavy in host memory; the optimum split "
              "tracks the workload mix (the Section 9 sizing "
              "challenge).\n");
  rt::EmitWallClockMetrics("abl_cache_split", wall_timer,
                           sim::Simulator::TotalEventsExecuted());
  return 0;
}
