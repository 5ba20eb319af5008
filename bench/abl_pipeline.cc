// Ablation: streamed cross-engine pipelines vs stage barriers (paper
// Section 4: engine composition "facilitates pipelined data processing —
// one engine's output can be streamed to another engine without waiting
// for the completion of work in progress").
//
// Workload: the read -> compress -> send pipeline over N pages. The
// streamed pipeline overlaps SSD reads, ASIC compression, and NIC
// transmission; the barrier variant finishes each stage for all pages
// before starting the next.

#include <cstdio>

#include "core/runtime/metrics.h"
#include "core/runtime/pipeline.h"
#include "core/runtime/platform.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: bench brevity

namespace {

constexpr uint32_t kPageBytes = 128 * 1024;

struct Env {
  Env() : net(&sim) {
    rt::PlatformOptions so, co;
    so.node = 1;
    so.fs_device_blocks = 32 * 1024;
    co.node = 2;
    co.fs_device_blocks = 1024;
    server = std::make_unique<rt::Platform>(&sim, &net, so);
    client = std::make_unique<rt::Platform>(&sim, &net, co);
    client->network().Listen(7000, [this](ne::NeSocket* s) {
      s->SetReceiveCallback([](ByteSpan) {});
    });
    out = server->network().Connect(2, 7000);

    auto f = server->fs().Create("pages");
    DPDPU_CHECK(f.ok());
    file = *f;
    Buffer data = kern::GenerateText(kPageBytes, {9});
    for (int i = 0; i < 32; ++i) {
      DPDPU_CHECK(server->fs()
                      .Write(file, uint64_t(i) * kPageBytes, data.span())
                      .ok());
    }
  }

  rt::StageFn ReadStage() {
    return [this](Buffer idx, UniqueFunction<void(Result<Buffer>)> done) {
      ByteReader r(idx.span());
      uint64_t page = 0;
      r.ReadU64(&page);
      server->storage().file_service().ReadAsync(
          file, page * kPageBytes, kPageBytes,
          [done = std::move(done)](Result<Buffer> d) mutable {
            done(std::move(d));
          });
    };
  }
  rt::StageFn CompressStage() {
    return [this](Buffer page, UniqueFunction<void(Result<Buffer>)> done) {
      auto item = server->compute().Invoke(ce::kKernelCompress,
                                           std::move(page), {},
                                           {ce::ExecTarget::kDpuAsic});
      if (!item.ok()) {
        done(item.status());
        return;
      }
      (*item)->OnComplete([done = std::move(done)](ce::WorkItem& w) mutable {
        done(w.result());
      });
    };
  }
  rt::StageFn SendStage() {
    return [this](Buffer data, UniqueFunction<void(Result<Buffer>)> done) {
      out->Send(data.span());
      done(std::move(data));
    };
  }

  sim::Simulator sim;
  netsub::Network net;
  std::unique_ptr<rt::Platform> server, client;
  ne::NeSocket* out = nullptr;
  fssub::FileId file = 0;
};

double RunStreamed(int pages) {
  Env env;
  rt::Pipeline p;
  p.AddStage(env.ReadStage())
      .AddStage(env.CompressStage())
      .AddStage(env.SendStage());
  for (int i = 0; i < pages; ++i) {
    Buffer idx;
    idx.AppendU64(uint64_t(i % 32));
    p.Push(std::move(idx));
  }
  env.sim.Run();
  return double(env.sim.now()) / 1e6;
}

double RunBarrier(int pages) {
  Env env;
  rt::BatchPipeline p;
  p.AddStage(env.ReadStage())
      .AddStage(env.CompressStage())
      .AddStage(env.SendStage());
  std::vector<Buffer> items;
  for (int i = 0; i < pages; ++i) {
    Buffer idx;
    idx.AppendU64(uint64_t(i % 32));
    items.push_back(std::move(idx));
  }
  p.Run(std::move(items), [](std::vector<Result<Buffer>>) {});
  env.sim.Run();
  return double(env.sim.now()) / 1e6;
}

}  // namespace

int main() {
  rt::WallTimer wall_timer;
  std::printf("=== Ablation: streamed vs barrier pipelines (Section 4) "
              "===\n");
  std::printf("read -> compress(ASIC) -> send over 128 KB pages; "
              "completion time (ms)\n\n");
  std::printf("%8s %12s %12s %9s\n", "pages", "streamed_ms", "barrier_ms",
              "speedup");
  for (int pages : {8, 16, 32, 64}) {
    double streamed = RunStreamed(pages);
    double barrier = RunBarrier(pages);
    std::printf("%8d %12.2f %12.2f %8.2fx\n", pages, streamed, barrier,
                barrier / streamed);
    rt::EmitJsonMetric("abl_pipeline",
                       "streaming_speedup_" + std::to_string(pages) +
                           "pages",
                       barrier / streamed, "x");
  }
  std::printf("\nshape: streaming overlaps SSD, ASIC, and NIC work; the "
              "barrier pays the sum of stage makespans.\n");
  rt::EmitWallClockMetrics("abl_pipeline", wall_timer,
                           sim::Simulator::TotalEventsExecuted());
  return 0;
}
