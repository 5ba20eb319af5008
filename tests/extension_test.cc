// Tests for the Section 4/5 extension components: the shared-state table
// in DPU memory, PCIe-attached accelerators, and DP kernel fusion.

#include <gtest/gtest.h>

#include "core/compute/compute_engine.h"
#include "core/runtime/platform.h"
#include "core/runtime/shared_state.h"
#include "hw/machine.h"
#include "kern/chacha20.h"
#include "kern/deflate.h"
#include "kern/textgen.h"

namespace dpdpu {
namespace {

// --------------------------------------------------------------------------
// SharedStateTable.
// --------------------------------------------------------------------------

struct SharedStateFixture {
  SharedStateFixture() : server(&sim, hw::DefaultServerSpec()) {}
  sim::Simulator sim;
  hw::Server server;
};

TEST(SharedStateTest, PutGetEraseRoundTrip) {
  SharedStateFixture f;
  rt::SharedStateTable table(&f.server, 1 << 20);
  ASSERT_TRUE(table.Put("page:7", Buffer("cached page bytes")).ok());
  const Buffer* v = table.Get("page:7");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->ToString(), "cached page bytes");
  EXPECT_EQ(table.Get("missing"), nullptr);
  EXPECT_TRUE(table.Erase("page:7"));
  EXPECT_FALSE(table.Erase("page:7"));
  EXPECT_EQ(table.Get("page:7"), nullptr);
}

TEST(SharedStateTest, VersionsDetectAsynchronousUpdates) {
  SharedStateFixture f;
  rt::SharedStateTable table(&f.server, 1 << 20);
  EXPECT_EQ(table.Version("k"), 0u);
  ASSERT_TRUE(table.Put("k", Buffer("v1")).ok());
  uint64_t v1 = table.Version("k");
  EXPECT_GT(v1, 0u);
  // Another engine writes concurrently (the Section 4 "consistency is
  // not guaranteed" case): the version moves, so the first engine can
  // detect it.
  ASSERT_TRUE(table.Put("k", Buffer("v2")).ok());
  EXPECT_GT(table.Version("k"), v1);
}

TEST(SharedStateTest, CapacityEnforcedThroughDpuMemory) {
  SharedStateFixture f;
  rt::SharedStateTable table(&f.server, 4096);
  EXPECT_LE(table.capacity(), 4096u);
  // DPU memory accounting reflects the reservation.
  EXPECT_GE(f.server.dpu_memory().used(), table.capacity());
  Buffer big(size_t{8192});
  EXPECT_TRUE(table.Put("too-big", std::move(big)).IsResourceExhausted());
  EXPECT_EQ(table.stats().rejected_puts, 1u);
  // Replacing an entry reuses its budget.
  ASSERT_TRUE(table.Put("a", Buffer(size_t{1024})).ok());
  ASSERT_TRUE(table.Put("a", Buffer(size_t{2048})).ok());
  EXPECT_EQ(table.entry_count(), 1u);
}

TEST(SharedStateTest, KeysEnumerates) {
  SharedStateFixture f;
  rt::SharedStateTable table(&f.server, 1 << 20);
  ASSERT_TRUE(table.Put("b", Buffer("2")).ok());
  ASSERT_TRUE(table.Put("a", Buffer("1")).ok());
  EXPECT_EQ(table.Keys(), (std::vector<std::string>{"a", "b"}));
}

// --------------------------------------------------------------------------
// PCIe accelerator target.
// --------------------------------------------------------------------------

hw::ServerSpec GpuServerSpec() {
  hw::ServerSpec spec = hw::DefaultServerSpec();
  spec.pcie_accelerator = hw::PcieAcceleratorSpec{};
  return spec;
}

struct GpuFixture {
  GpuFixture()
      : server(&sim, GpuServerSpec()),
        engine(&server, ce::KernelRegistry::Builtin()) {}
  sim::Simulator sim;
  hw::Server server;
  ce::ComputeEngine engine;
};

TEST(PcieAccelTest, SpecifiedExecutionOnGpu) {
  GpuFixture f;
  Buffer text = kern::GenerateText(1 << 20, {});
  auto item = f.engine.Invoke(ce::kKernelCompress, text, {},
                              {ce::ExecTarget::kPcieAccel});
  ASSERT_TRUE(item.ok()) << item.status();
  f.sim.Run();
  ASSERT_TRUE((*item)->result().ok());
  EXPECT_EQ((*item)->executed_on(), ce::ExecTarget::kPcieAccel);
  auto back = kern::DeflateDecompress((*item)->result().value().span());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, text);
}

TEST(PcieAccelTest, UnavailableWithoutDevice) {
  sim::Simulator sim;
  hw::Server server(&sim, hw::DefaultServerSpec());
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin());
  auto item = engine.Invoke(ce::kKernelCompress, Buffer("x"), {},
                            {ce::ExecTarget::kPcieAccel});
  EXPECT_TRUE(item.status().IsUnavailable());
}

TEST(PcieAccelTest, GpuBeatsCpusOnHeavyKernels) {
  GpuFixture f;
  Buffer text = kern::GenerateText(4 << 20, {});
  auto gpu = f.engine.Invoke(ce::kKernelCompress, text, {},
                             {ce::ExecTarget::kPcieAccel});
  auto host = f.engine.Invoke(ce::kKernelCompress, text, {},
                              {ce::ExecTarget::kHostCpu});
  ASSERT_TRUE(gpu.ok());
  ASSERT_TRUE(host.ok());
  f.sim.Run();
  EXPECT_LT((*gpu)->latency(), (*host)->latency());
}

// --------------------------------------------------------------------------
// Kernel fusion.
// --------------------------------------------------------------------------

TEST(FusionTest, FusedChainMatchesSequentialResult) {
  GpuFixture f;
  Buffer text = kern::GenerateText(200000, {});
  ce::KernelParams crypto{{"key", "fusion-key"}};

  auto fused = f.engine.InvokeFused(
      {{ce::kKernelCompress, {}}, {ce::kKernelEncrypt, crypto}}, text,
      {ce::ExecTarget::kPcieAccel});
  ASSERT_TRUE(fused.ok()) << fused.status();
  f.sim.Run();
  ASSERT_TRUE((*fused)->result().ok());

  // Reference: the same two kernels applied by hand.
  auto compressed = kern::DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  std::array<uint8_t, 32> key{};
  std::memcpy(key.data(), "fusion-key", 10);
  Buffer expected = kern::ChaCha20Xor(key, {}, 0, compressed->span());
  EXPECT_EQ((*fused)->result().value(), expected);
}

TEST(FusionTest, FusedRejectsAsicTarget) {
  GpuFixture f;
  auto fused = f.engine.InvokeFused({{ce::kKernelCompress, {}}},
                                    Buffer("x"),
                                    {ce::ExecTarget::kDpuAsic});
  EXPECT_TRUE(fused.status().IsNotSupported());
}

TEST(FusionTest, EmptyChainRejected) {
  GpuFixture f;
  EXPECT_TRUE(
      f.engine.InvokeFused({}, Buffer("x")).status().IsInvalidArgument());
}

TEST(FusionTest, UnknownKernelRejected) {
  GpuFixture f;
  EXPECT_TRUE(f.engine.InvokeFused({{"nope", {}}}, Buffer("x"))
                  .status()
                  .IsNotFound());
}

TEST(FusionTest, FusedOnGpuBeatsSeparateGpuInvocations) {
  // Fusion's win is one PCIe round trip + one launch instead of two of
  // each (Section 5's motivation).
  Buffer text = kern::GenerateText(1 << 20, {});
  ce::KernelParams crypto{{"key", "k"}};

  GpuFixture a;
  auto fused = a.engine.InvokeFused(
      {{ce::kKernelCompress, {}}, {ce::kKernelEncrypt, crypto}}, text,
      {ce::ExecTarget::kPcieAccel});
  ASSERT_TRUE(fused.ok());
  a.sim.Run();
  sim::SimTime fused_latency = (*fused)->latency();

  GpuFixture b;
  sim::SimTime separate_done = 0;
  auto first = b.engine.Invoke(ce::kKernelCompress, text, {},
                               {ce::ExecTarget::kPcieAccel});
  ASSERT_TRUE(first.ok());
  (*first)->OnComplete([&](ce::WorkItem& w) {
    ASSERT_TRUE(w.result().ok());
    auto second = b.engine.Invoke(ce::kKernelEncrypt, w.result().value(),
                                  crypto, {ce::ExecTarget::kPcieAccel});
    ASSERT_TRUE(second.ok());
    (*second)->OnComplete(
        [&](ce::WorkItem& w2) { separate_done = w2.completed_at(); });
  });
  b.sim.Run();

  EXPECT_LT(fused_latency, separate_done);
}

TEST(FusionTest, AutoPlacementPicksSomewhereValid) {
  GpuFixture f;
  Buffer text = kern::GenerateText(100000, {});
  auto fused = f.engine.InvokeFused(
      {{ce::kKernelCompress, {}}, {ce::kKernelCrc32, {}}}, text);
  ASSERT_TRUE(fused.ok());
  f.sim.Run();
  ASSERT_TRUE((*fused)->done());
  ce::ExecTarget t = (*fused)->executed_on();
  EXPECT_TRUE(t == ce::ExecTarget::kPcieAccel ||
              t == ce::ExecTarget::kHostCpu ||
              t == ce::ExecTarget::kDpuCpu);
  EXPECT_TRUE((*fused)->result().ok());
  // crc32 of the compressed stream: 4 bytes.
  EXPECT_EQ((*fused)->result().value().size(), 4u);
}


// --------------------------------------------------------------------------
// Sproc migration (iPipe-style co-scheduling, Section 5).
// --------------------------------------------------------------------------

TEST(SprocMigrationTest, BackloggedDpuMigratesSprocsToHost) {
  sim::Simulator sim;
  hw::Server server(&sim, hw::DefaultServerSpec());
  ce::ComputeEngineOptions options;
  options.sproc_migration = true;
  options.sproc_migration_queue_threshold = 4;
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin(), options);

  int ran = 0;
  ASSERT_TRUE(
      engine.RegisterSproc("tick", [&](ce::SprocContext&) { ++ran; }).ok());

  // Backlog the DPU cores with long jobs, then invoke a burst of sprocs.
  for (int i = 0; i < 64; ++i) {
    server.dpu_cpu().Execute(50'000'000, UniqueFunction<void()>([] {}));
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.InvokeSproc("tick").ok());
  }
  sim.Run();
  EXPECT_EQ(ran, 20);
  EXPECT_GT(engine.sprocs_migrated_to_host(), 0u);
}

TEST(SprocMigrationTest, DisabledStaysOnDpu) {
  sim::Simulator sim;
  hw::Server server(&sim, hw::DefaultServerSpec());
  ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin(), {});
  int ran = 0;
  ASSERT_TRUE(
      engine.RegisterSproc("tick", [&](ce::SprocContext&) { ++ran; }).ok());
  for (int i = 0; i < 64; ++i) {
    server.dpu_cpu().Execute(50'000'000, UniqueFunction<void()>([] {}));
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.InvokeSproc("tick").ok());
  }
  sim.Run();
  EXPECT_EQ(ran, 20);
  EXPECT_EQ(engine.sprocs_migrated_to_host(), 0u);
}

TEST(SprocMigrationTest, MigratedSprocsFinishSoonerUnderDpuOverload) {
  auto run = [](bool migrate) {
    sim::Simulator sim;
    hw::Server server(&sim, hw::DefaultServerSpec());
    ce::ComputeEngineOptions options;
    options.sproc_migration = migrate;
    options.sproc_migration_queue_threshold = 2;
    ce::ComputeEngine engine(&server, ce::KernelRegistry::Builtin(),
                             options);
    sim::SimTime last_done = 0;
    (void)engine.RegisterSproc(
        "work", [&](ce::SprocContext&) { last_done = sim.now(); });
    for (int i = 0; i < 64; ++i) {
      server.dpu_cpu().Execute(10'000'000, UniqueFunction<void()>([] {}));
    }
    for (int i = 0; i < 30; ++i) (void)engine.InvokeSproc("work");
    sim.Run();
    return last_done;
  };
  EXPECT_LT(run(true), run(false));
}


// --------------------------------------------------------------------------
// Host-side cache in HostFileClient (Section 9 caching).
// --------------------------------------------------------------------------

TEST(HostCacheTest, SecondHostReadServedFromHostMemory) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::PlatformOptions options;
  options.storage.dpu_cache_bytes = 0;  // isolate the host cache
  rt::Platform platform(&sim, &net, options);
  auto& client = platform.storage().host_client();
  client.EnableHostCache(8 << 20);

  auto file = platform.fs().Create("hc");
  ASSERT_TRUE(file.ok());
  Buffer data = kern::GenerateRandomBytes(64 * 1024, 7);
  ASSERT_TRUE(platform.fs().Write(*file, 0, data.span()).ok());

  Buffer first, second;
  sim::SimTime t0 = sim.now();
  client.Read(*file, 0, 64 * 1024, [&](Result<Buffer> d) {
    ASSERT_TRUE(d.ok());
    first = std::move(d).value();
  });
  sim.Run();
  sim::SimTime miss_latency = sim.now() - t0;

  t0 = sim.now();
  client.Read(*file, 0, 64 * 1024, [&](Result<Buffer> d) {
    ASSERT_TRUE(d.ok());
    second = std::move(d).value();
  });
  sim.Run();
  sim::SimTime hit_latency = sim.now() - t0;

  EXPECT_EQ(first, data);
  EXPECT_EQ(second, data);
  EXPECT_EQ(hit_latency, 0u) << "host-memory hit must not cross PCIe";
  EXPECT_GT(miss_latency, 0u);
  ASSERT_NE(client.host_cache_stats(), nullptr);
  EXPECT_GT(client.host_cache_stats()->hits, 0u);
}

TEST(HostCacheTest, WriteInvalidatesHostCache) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::Platform platform(&sim, &net, {});
  auto& client = platform.storage().host_client();
  client.EnableHostCache(8 << 20);

  auto file = platform.fs().Create("hc2");
  ASSERT_TRUE(file.ok());
  Buffer v1 = kern::GenerateRandomBytes(8192, 1);
  Buffer v2 = kern::GenerateRandomBytes(8192, 2);
  ASSERT_TRUE(platform.fs().Write(*file, 0, v1.span()).ok());

  client.Read(*file, 0, 8192, [](Result<Buffer>) {});  // warm
  sim.Run();
  bool wrote = false;
  client.Write(*file, 0, v2, [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  sim.Run();
  ASSERT_TRUE(wrote);
  Buffer got;
  client.Read(*file, 0, 8192, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  sim.Run();
  EXPECT_EQ(got, v2);
}

TEST(HostCacheTest, ReservationComesFromHostMemoryPool) {
  sim::Simulator sim;
  netsub::Network net(&sim);
  rt::Platform platform(&sim, &net, {});
  uint64_t before = platform.server().host_memory().used();
  platform.storage().host_client().EnableHostCache(1 << 30);
  EXPECT_GE(platform.server().host_memory().used(), before + (1u << 30));
}

}  // namespace
}  // namespace dpdpu
