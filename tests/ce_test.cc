// Tests for the Compute Engine: kernel registry, specified vs scheduled
// execution, heterogeneity fallback (the Figure 6 pattern), model-based
// placement, DRR multi-tenancy, and sprocs.

#include <gtest/gtest.h>

#include "core/compute/compute_engine.h"
#include "core/compute/sproc.h"
#include "hw/calibration.h"
#include "kern/deflate.h"
#include "kern/textgen.h"
#include "sim/simulator.h"

namespace dpdpu::ce {
namespace {

struct CeFixture {
  explicit CeFixture(hw::DpuSpec dpu = hw::BlueField2Spec(),
                     ComputeEngineOptions options = {})
      : server(&sim, hw::MakeServerSpec("s", std::move(dpu))),
        engine(&server, KernelRegistry::Builtin(), options) {}

  sim::Simulator sim;
  hw::Server server;
  ComputeEngine engine;
};

TEST(KernelRegistryTest, BuiltinsPresent) {
  KernelRegistry reg = KernelRegistry::Builtin();
  for (const char* name :
       {kKernelCompress, kKernelDecompress, kKernelEncrypt, kKernelDecrypt,
        kKernelRegexCount, kKernelCrc32, kKernelDedupChunk, kKernelFilter,
        kKernelAggregate}) {
    EXPECT_NE(reg.Find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.Find("nope"), nullptr);
  EXPECT_GE(reg.List().size(), 9u);
}

TEST(KernelRegistryTest, DuplicateRejected) {
  KernelRegistry reg = KernelRegistry::Builtin();
  DpKernel dup;
  dup.name = kKernelCompress;
  dup.fn = [](ByteSpan, const KernelParams&) -> Result<Buffer> {
    return Buffer();
  };
  EXPECT_TRUE(reg.Register(std::move(dup)).IsAlreadyExists());
}

TEST(ComputeEngineTest, CompressOnAsicProducesValidDeflate) {
  CeFixture f;
  Buffer text = kern::GenerateText(100000, {});
  auto item = f.engine.Invoke(kKernelCompress, text, {},
                              {ExecTarget::kDpuAsic});
  ASSERT_TRUE(item.ok()) << item.status();
  f.sim.Run();
  ASSERT_TRUE((*item)->done());
  ASSERT_TRUE((*item)->result().ok());
  EXPECT_EQ((*item)->executed_on(), ExecTarget::kDpuAsic);
  auto back = kern::DeflateDecompress((*item)->result().value().span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, text);
}

TEST(ComputeEngineTest, SameOutputOnEveryTarget) {
  Buffer text = kern::GenerateText(50000, {});
  Buffer reference;
  for (ExecTarget target :
       {ExecTarget::kDpuAsic, ExecTarget::kDpuCpu, ExecTarget::kHostCpu}) {
    CeFixture f;
    auto item = f.engine.Invoke(kKernelCompress, text, {}, {target});
    ASSERT_TRUE(item.ok());
    f.sim.Run();
    ASSERT_TRUE((*item)->result().ok());
    if (reference.empty()) {
      reference = (*item)->result().value();
    } else {
      EXPECT_EQ((*item)->result().value(), reference)
          << ExecTargetName(target);
    }
  }
}

TEST(ComputeEngineTest, AsicIsOrderOfMagnitudeFasterThanCpus) {
  Buffer text = kern::GenerateText(1 << 20, {});
  std::map<ExecTarget, sim::SimTime> latency;
  for (ExecTarget target :
       {ExecTarget::kDpuAsic, ExecTarget::kDpuCpu, ExecTarget::kHostCpu}) {
    CeFixture f;
    auto item = f.engine.Invoke(kKernelCompress, text, {}, {target});
    ASSERT_TRUE(item.ok());
    f.sim.Run();
    latency[target] = (*item)->latency();
  }
  // Figure 1's ordering: ASIC << EPYC < Arm.
  EXPECT_GT(latency[ExecTarget::kDpuCpu], latency[ExecTarget::kHostCpu]);
  EXPECT_GT(double(latency[ExecTarget::kHostCpu]) /
                double(latency[ExecTarget::kDpuAsic]),
            10.0);
}

TEST(ComputeEngineTest, SpecifiedTargetUnavailableReturnsUnavailable) {
  // BlueField-3 has no RegEx engine (paper Sections 1/5).
  CeFixture f(hw::BlueField3Spec());
  Buffer text = kern::GenerateText(1000, {});
  auto item = f.engine.Invoke(kKernelRegexCount, text,
                              {{"pattern", "a+"}}, {ExecTarget::kDpuAsic});
  EXPECT_TRUE(item.status().IsUnavailable());

  // The Fig 6 fallback: the caller retries on the DPU CPU.
  auto retry = f.engine.Invoke(kKernelRegexCount, text,
                               {{"pattern", "tion"}}, {ExecTarget::kDpuCpu});
  ASSERT_TRUE(retry.ok());
  f.sim.Run();
  ASSERT_TRUE((*retry)->result().ok());
  ByteReader r((*retry)->result().value().span());
  uint64_t count = 0;
  ASSERT_TRUE(r.ReadU64(&count));
  EXPECT_GT(count, 0u);
}

TEST(ComputeEngineTest, TargetAvailableMatrix) {
  CeFixture bf2;
  EXPECT_TRUE(bf2.engine.TargetAvailable(kKernelRegexCount,
                                         ExecTarget::kDpuAsic));
  CeFixture bf3(hw::BlueField3Spec());
  EXPECT_FALSE(bf3.engine.TargetAvailable(kKernelRegexCount,
                                          ExecTarget::kDpuAsic));
  EXPECT_TRUE(bf3.engine.TargetAvailable(kKernelRegexCount,
                                         ExecTarget::kDpuCpu));
  EXPECT_TRUE(bf3.engine.TargetAvailable(kKernelCompress,
                                         ExecTarget::kDpuAsic));
  EXPECT_FALSE(bf2.engine.TargetAvailable("missing", ExecTarget::kDpuCpu));
}

TEST(ComputeEngineTest, ScheduledExecutionPrefersAsicForBigJobs) {
  ComputeEngineOptions options;
  options.policy = PlacementPolicy::kModelBased;
  CeFixture f(hw::BlueField2Spec(), options);
  Buffer big = kern::GenerateText(4 << 20, {});
  auto item = f.engine.Invoke(kKernelCompress, big);  // kAuto
  ASSERT_TRUE(item.ok());
  f.sim.Run();
  EXPECT_EQ((*item)->executed_on(), ExecTarget::kDpuAsic);
}

TEST(ComputeEngineTest, ScheduledExecutionSpillsOverWhenAsicBacklogged) {
  ComputeEngineOptions options;
  options.policy = PlacementPolicy::kModelBased;
  CeFixture f(hw::BlueField2Spec(), options);
  // Synthetic heavy kernel (identity function, DEFLATE-like cost model)
  // so the scheduling decision is exercised without real compression
  // work dominating the test's wall-clock time.
  DpKernel heavy;
  heavy.name = "heavy";
  heavy.asic_kind = hw::AcceleratorKind::kCompression;
  heavy.cpu_cycles_per_byte = 52.0;
  heavy.fn = [](ByteSpan input, const KernelParams&) -> Result<Buffer> {
    return Buffer(input.data(), input.size());
  };
  ASSERT_TRUE(f.engine.RegisterKernel(std::move(heavy)).ok());

  Buffer big = kern::GenerateRandomBytes(4 << 20, 1);
  // Saturate the compression ASIC far beyond the point where queueing
  // behind it is worse than eating the host's PCIe+compute cost.
  std::vector<WorkItemPtr> items;
  bool saw_non_asic = false;
  for (int i = 0; i < 150; ++i) {
    auto item = f.engine.Invoke("heavy", big);
    ASSERT_TRUE(item.ok());
    items.push_back(*item);
  }
  f.sim.Run();
  for (const auto& item : items) {
    ASSERT_TRUE(item->done());
    if (item->executed_on() != ExecTarget::kDpuAsic) saw_non_asic = true;
  }
  EXPECT_TRUE(saw_non_asic)
      << "model-based placement should spill off the backlogged ASIC";
}

TEST(ComputeEngineTest, DpuCpuOnlyPolicyNeverUsesAsic) {
  ComputeEngineOptions options;
  options.policy = PlacementPolicy::kDpuCpuOnly;
  CeFixture f(hw::BlueField2Spec(), options);
  Buffer text = kern::GenerateText(100000, {});
  auto item = f.engine.Invoke(kKernelCompress, text);
  ASSERT_TRUE(item.ok());
  f.sim.Run();
  EXPECT_EQ((*item)->executed_on(), ExecTarget::kDpuCpu);
}

TEST(ComputeEngineTest, HostExecutionPaysPcie) {
  // A tiny job on host must still pay two PCIe crossings.
  CeFixture f;
  Buffer tiny = kern::GenerateText(64, {});
  auto host = f.engine.Invoke(kKernelCrc32, tiny, {},
                              {ExecTarget::kHostCpu});
  ASSERT_TRUE(host.ok());
  f.sim.Run();
  EXPECT_GE((*host)->latency(),
            2 * f.server.pcie().spec().latency_ns);
}

TEST(ComputeEngineTest, CustomKernelRegistersAndRuns) {
  CeFixture f;
  DpKernel reverse;
  reverse.name = "reverse";
  reverse.cpu_cycles_per_byte = 1.0;
  reverse.fn = [](ByteSpan input, const KernelParams&) -> Result<Buffer> {
    Buffer out(input.size());
    for (size_t i = 0; i < input.size(); ++i) {
      out[i] = input[input.size() - 1 - i];
    }
    return out;
  };
  ASSERT_TRUE(f.engine.RegisterKernel(std::move(reverse)).ok());
  auto item = f.engine.Invoke("reverse", Buffer("abcdef"));
  ASSERT_TRUE(item.ok());
  f.sim.Run();
  EXPECT_EQ((*item)->result().value().ToString(), "fedcba");
}

TEST(ComputeEngineTest, KernelErrorSurfacesInWorkItem) {
  CeFixture f;
  Buffer garbage = kern::GenerateRandomBytes(1000, 3);
  auto item = f.engine.Invoke(kKernelDecompress, garbage, {},
                              {ExecTarget::kDpuCpu});
  ASSERT_TRUE(item.ok());
  f.sim.Run();
  ASSERT_TRUE((*item)->done());
  EXPECT_FALSE((*item)->result().ok());
}

TEST(ComputeEngineTest, UnknownKernelIsNotFound) {
  CeFixture f;
  EXPECT_TRUE(f.engine.Invoke("nope", Buffer()).status().IsNotFound());
}

TEST(ComputeEngineTest, StatsTrackTargets) {
  CeFixture f;
  Buffer text = kern::GenerateText(1000, {});
  ASSERT_TRUE(
      f.engine.Invoke(kKernelCrc32, text, {}, {ExecTarget::kDpuCpu}).ok());
  ASSERT_TRUE(
      f.engine.Invoke(kKernelCrc32, text, {}, {ExecTarget::kHostCpu}).ok());
  f.sim.Run();
  EXPECT_EQ(f.engine.target_stats(ExecTarget::kDpuCpu).jobs, 1u);
  EXPECT_EQ(f.engine.target_stats(ExecTarget::kHostCpu).jobs, 1u);
}

// --------------------------------------------------------------------------
// Multi-tenancy: DRR vs FCFS on the compression ASIC.
// --------------------------------------------------------------------------

TEST(TenancyTest, DrrGivesSmallTenantFairShare) {
  // Tenant 0 floods the ASIC with large jobs; tenant 1 submits a few
  // small ones. Under FCFS the small tenant waits behind the flood;
  // under DRR it interleaves.
  auto run = [](AdmissionQueue::Discipline discipline) {
    ComputeEngineOptions options;
    options.asic_admission = discipline;
    CeFixture f(hw::BlueField2Spec(), options);
    Buffer big = kern::GenerateText(2 << 20, {1});
    Buffer small = kern::GenerateText(64 << 10, {2});
    std::vector<WorkItemPtr> small_items;
    for (int i = 0; i < 30; ++i) {
      auto item = f.engine.Invoke(kKernelCompress, big, {},
                                  {ExecTarget::kDpuAsic, /*tenant=*/0});
      EXPECT_TRUE(item.ok());
    }
    for (int i = 0; i < 5; ++i) {
      auto item = f.engine.Invoke(kKernelCompress, small, {},
                                  {ExecTarget::kDpuAsic, /*tenant=*/1});
      EXPECT_TRUE(item.ok());
      small_items.push_back(*item);
    }
    f.sim.Run();
    sim::SimTime worst = 0;
    for (const auto& item : small_items) {
      worst = std::max(worst, item->latency());
    }
    return worst;
  };
  sim::SimTime fcfs = run(AdmissionQueue::Discipline::kFcfs);
  sim::SimTime drr = run(AdmissionQueue::Discipline::kDrr);
  EXPECT_LT(double(drr), double(fcfs) * 0.6)
      << "DRR should cut the small tenant's worst-case latency";
}

TEST(AdmissionQueueTest, FcfsOrder) {
  AdmissionQueue q(AdmissionQueue::Discipline::kFcfs);
  std::vector<int> order;
  q.Push(0, 100, [&] { order.push_back(0); });
  q.Push(1, 100, [&] { order.push_back(1); });
  q.Push(0, 100, [&] { order.push_back(2); });
  UniqueFunction<void()> fn;
  while (q.Pop(&fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionQueueTest, DrrInterleavesTenants) {
  AdmissionQueue q(AdmissionQueue::Discipline::kDrr, /*quantum=*/1000);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    q.Push(0, 1000, [&order] { order.push_back(0); });
  }
  for (int i = 0; i < 4; ++i) {
    q.Push(1, 1000, [&order] { order.push_back(1); });
  }
  UniqueFunction<void()> fn;
  while (q.Pop(&fn)) fn();
  ASSERT_EQ(order.size(), 8u);
  // Both tenants appear within the first three dispatches.
  bool saw0 = false, saw1 = false;
  for (int i = 0; i < 3; ++i) {
    saw0 |= order[i] == 0;
    saw1 |= order[i] == 1;
  }
  EXPECT_TRUE(saw0 && saw1);
}

TEST(AdmissionQueueTest, DrrHandlesWeightsAboveQuantum) {
  AdmissionQueue q(AdmissionQueue::Discipline::kDrr, /*quantum=*/100);
  int dispatched = 0;
  q.Push(0, 5000, [&] { ++dispatched; });  // 50 quanta needed
  q.Push(1, 100, [&] { ++dispatched; });
  UniqueFunction<void()> fn;
  while (q.Pop(&fn)) fn();
  EXPECT_EQ(dispatched, 2);
}

// --------------------------------------------------------------------------
// Sprocs.
// --------------------------------------------------------------------------

TEST(SprocTest, RegisterAndInvoke) {
  CeFixture f;
  int calls = 0;
  ASSERT_TRUE(
      f.engine.RegisterSproc("noop", [&](SprocContext&) { ++calls; }).ok());
  EXPECT_TRUE(f.engine
                  .RegisterSproc("noop", [](SprocContext&) {})
                  .IsAlreadyExists());
  ASSERT_TRUE(f.engine.InvokeSproc("noop").ok());
  EXPECT_TRUE(f.engine.InvokeSproc("missing").IsNotFound());
  f.sim.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(f.engine.sprocs_invoked(), 1u);
  EXPECT_EQ(f.engine.Sprocs(), (std::vector<std::string>{"noop"}));
}

TEST(SprocTest, SprocChainsKernelWithFallback) {
  // The Figure 6 pattern inside a sproc: try ASIC, fall back to DPU CPU.
  CeFixture f(hw::BlueField3Spec());  // no RegEx ASIC
  Buffer text = kern::GenerateText(20000, {});
  uint64_t matches = 0;
  ExecTarget ran_on = ExecTarget::kAuto;
  ASSERT_TRUE(
      f.engine
          .RegisterSproc(
              "scan",
              [&](SprocContext& ctx) {
                auto item = ctx.InvokeKernel(kKernelRegexCount, text,
                                             {{"pattern", "tion"}},
                                             {ExecTarget::kDpuAsic});
                if (!item.ok()) {
                  // Accelerator unavailable: move to a DPU core.
                  item = ctx.InvokeKernel(kKernelRegexCount, text,
                                          {{"pattern", "tion"}},
                                          {ExecTarget::kDpuCpu});
                }
                ASSERT_TRUE(item.ok());
                (*item)->OnComplete([&](WorkItem& done) {
                  ran_on = done.executed_on();
                  ByteReader r(done.result().value().span());
                  r.ReadU64(&matches);
                });
              })
          .ok());
  ASSERT_TRUE(f.engine.InvokeSproc("scan").ok());
  f.sim.Run();
  EXPECT_EQ(ran_on, ExecTarget::kDpuCpu);
  EXPECT_GT(matches, 0u);
}

TEST(WorkItemTest, OnCompleteAfterDoneFiresImmediately) {
  WorkItem item;
  item.Complete(Buffer("x"), ExecTarget::kDpuCpu, 42);
  bool fired = false;
  item.OnComplete([&](WorkItem& w) {
    fired = true;
    EXPECT_EQ(w.completed_at(), 42u);
  });
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace dpdpu::ce
