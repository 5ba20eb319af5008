// Unit tests for the hardware models: CPU clusters, accelerators, links,
// SSDs, memory pools, and the machine presets. Several tests pin the
// calibration relationships the paper's figures depend on.

#include <gtest/gtest.h>

#include "hw/accelerator.h"
#include "hw/calibration.h"
#include "hw/cpu.h"
#include "hw/link.h"
#include "hw/machine.h"
#include "hw/memory.h"
#include "hw/ssd.h"
#include "sim/simulator.h"

namespace dpdpu::hw {
namespace {

TEST(CpuClusterTest, CyclesToTimeMatchesClockAndIpc) {
  sim::Simulator sim;
  CpuCluster cpu(&sim, CpuSpec{"c", 1, 2.0e9, 0.5});
  // 1e9 effective Hz: 1000 cycles -> 1000 ns.
  EXPECT_EQ(cpu.CyclesToTime(1000), 1000u);
}

TEST(CpuClusterTest, WorkTimeAddsFixedAndPerByte) {
  sim::Simulator sim;
  CpuCluster cpu(&sim, CpuSpec{"c", 1, 1.0e9, 1.0});
  // 1 GHz: cycles == ns. 100 fixed + 50 bytes * 2 cyc/B = 200 ns.
  EXPECT_EQ(cpu.WorkTime(50, 2.0, 100), 200u);
}

TEST(CpuClusterTest, CoresConsumedMatchesOfferedLoad) {
  sim::Simulator sim;
  CpuCluster cpu(&sim, CpuSpec{"c", 8, 1.0e9, 1.0});
  // Offer 4 concurrent streams of back-to-back 1000-cycle jobs for 1 ms.
  for (int s = 0; s < 4; ++s) {
    for (int j = 0; j < 1000; ++j) {
      cpu.Execute(1000, UniqueFunction<void()>([] {}));
    }
  }
  sim.Run();
  // 4M cycles of work on a 1 GHz cluster = 4 ms of busy time.
  EXPECT_DOUBLE_EQ(double(cpu.resource().busy_time()), 4e6);
}

TEST(AcceleratorTest, JobTimeIsSetupPlusStreaming) {
  sim::Simulator sim;
  Accelerator asic(&sim, AcceleratorSpec{AcceleratorKind::kCompression,
                                         1.0e9, 10'000, 2});
  // 1 GB/s: 1e6 bytes -> 1 ms streaming + 10 us setup.
  EXPECT_EQ(asic.JobTime(1'000'000), 1'010'000u);
}

TEST(AcceleratorTest, ConcurrencyLimitQueues) {
  sim::Simulator sim;
  Accelerator asic(&sim, AcceleratorSpec{AcceleratorKind::kEncryption,
                                         1.0e9, 0, 2});
  std::vector<sim::SimTime> done;
  for (int i = 0; i < 4; ++i) {
    asic.SubmitJob(1000, [&] { done.push_back(sim.now()); });
  }
  sim.Run();
  ASSERT_EQ(done.size(), 4u);
  // Two run immediately (1 us each), two queue behind them.
  EXPECT_EQ(done[0], 1000u);
  EXPECT_EQ(done[1], 1000u);
  EXPECT_EQ(done[2], 2000u);
  EXPECT_EQ(done[3], 2000u);
  EXPECT_EQ(asic.jobs_completed(), 4u);
}

TEST(NicPortTest, SerializationPlusPropagation) {
  sim::Simulator sim;
  NicPort nic(&sim, "nic", NicSpec{100e9, 2000, 4096});
  // 100 Gbps: 12500 bytes = 1 us serialization, + 2 us propagation.
  sim::SimTime delivered = 0;
  nic.Transmit(12500, [&] { delivered = sim.now(); });
  sim.Run();
  EXPECT_EQ(delivered, 3000u);
  EXPECT_EQ(nic.bytes_sent(), 12500u);
}

TEST(NicPortTest, FramesSerializeBackToBack) {
  sim::Simulator sim;
  NicPort nic(&sim, "nic", NicSpec{100e9, 0, 4096});
  std::vector<sim::SimTime> at;
  for (int i = 0; i < 3; ++i) {
    nic.Transmit(12500, [&] { at.push_back(sim.now()); });
  }
  sim.Run();
  EXPECT_EQ(at, (std::vector<sim::SimTime>{1000, 2000, 3000}));
}

TEST(PcieLinkTest, DmaTimeMatchesBandwidthAndLatency) {
  sim::Simulator sim;
  PcieLink pcie(&sim, "pcie", PcieSpec{25e9, 600});
  sim::SimTime landed = 0;
  pcie.Dma(25000, [&] { landed = sim.now(); });  // 1 us at 25 GB/s
  sim.Run();
  EXPECT_EQ(landed, 1600u);
  EXPECT_EQ(pcie.bytes_moved(), 25000u);
  EXPECT_EQ(pcie.transfers(), 1u);
}

TEST(SsdDeviceTest, ReadAndWriteLatencies) {
  sim::Simulator sim;
  SsdDevice ssd(&sim, "ssd", SsdSpec{80'000, 20'000, 4, 8.0e9});
  sim::SimTime read_done = 0, write_done = 0;
  ssd.SubmitRead(8192, [&] { read_done = sim.now(); });
  ssd.SubmitWrite(8192, [&] { write_done = sim.now(); });
  sim.Run();
  EXPECT_EQ(read_done, 80'000u + 1024u);   // 8 KB at 8 GB/s = 1.024 us
  EXPECT_EQ(write_done, 20'000u + 1024u);
  EXPECT_EQ(ssd.reads(), 1u);
  EXPECT_EQ(ssd.writes(), 1u);
}

TEST(SsdDeviceTest, QueueDepthBoundsParallelism) {
  sim::Simulator sim;
  SsdDevice ssd(&sim, "ssd", SsdSpec{1000, 1000, 2, 1e12});
  int done = 0;
  for (int i = 0; i < 4; ++i) ssd.SubmitRead(0, [&] { ++done; });
  sim.RunUntil(1000);
  EXPECT_EQ(done, 2);  // only 2 channels
  sim.Run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(sim.now(), 2000u);
}

TEST(MemoryPoolTest, AllocateFreeAndExhaustion) {
  MemoryPool pool("m", 1000);
  EXPECT_TRUE(pool.Allocate(600).ok());
  EXPECT_EQ(pool.available(), 400u);
  Status s = pool.Allocate(500);
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_TRUE(pool.Allocate(400).ok());
  EXPECT_EQ(pool.peak_used(), 1000u);
  pool.Free(1000);
  EXPECT_EQ(pool.used(), 0u);
  EXPECT_EQ(pool.peak_used(), 1000u);
}

TEST(MemoryPoolTest, OverFreeClampsToZero) {
  MemoryPool pool("m", 100);
  ASSERT_TRUE(pool.Allocate(50).ok());
  pool.Free(80);
  EXPECT_EQ(pool.used(), 0u);
}

// --------------------------------------------------------------------------
// Machine presets: the heterogeneity matrix from the paper.
// --------------------------------------------------------------------------

TEST(MachineTest, BlueField2HasAllFourAccelerators) {
  DpuSpec bf2 = BlueField2Spec();
  EXPECT_TRUE(bf2.HasAccelerator(AcceleratorKind::kCompression));
  EXPECT_TRUE(bf2.HasAccelerator(AcceleratorKind::kEncryption));
  EXPECT_TRUE(bf2.HasAccelerator(AcceleratorKind::kRegex));
  EXPECT_TRUE(bf2.HasAccelerator(AcceleratorKind::kDedup));
  EXPECT_EQ(bf2.cpu.cores, 8u);
  EXPECT_EQ(bf2.memory_bytes, 16ull << 30);
  EXPECT_FALSE(bf2.generic_nic_core_offload);
}

TEST(MachineTest, BlueField3LacksRegexButOffloadsGenericCode) {
  DpuSpec bf3 = BlueField3Spec();
  EXPECT_FALSE(bf3.HasAccelerator(AcceleratorKind::kRegex));
  EXPECT_TRUE(bf3.HasAccelerator(AcceleratorKind::kCompression));
  EXPECT_TRUE(bf3.generic_nic_core_offload);
}

TEST(MachineTest, IpuLikeOnlyHasCrypto) {
  DpuSpec ipu = IntelIpuLikeSpec();
  EXPECT_TRUE(ipu.HasAccelerator(AcceleratorKind::kEncryption));
  EXPECT_FALSE(ipu.HasAccelerator(AcceleratorKind::kCompression));
  EXPECT_FALSE(ipu.HasAccelerator(AcceleratorKind::kRegex));
}

TEST(MachineTest, ServerWiresComponents) {
  sim::Simulator sim;
  Server server(&sim, DefaultServerSpec("s1"));
  EXPECT_NE(server.accelerator(AcceleratorKind::kCompression), nullptr);
  EXPECT_NE(server.accelerator(AcceleratorKind::kRegex), nullptr);
  EXPECT_EQ(server.dpu_memory().capacity(), 16ull << 30);
  EXPECT_EQ(server.host_cpu().spec().cores, cal::kHostCores);
  EXPECT_EQ(server.dpu_cpu().spec().cores, cal::kBf2ArmCores);
  EXPECT_NE(server.dpu_log_device(), nullptr);
}

TEST(MachineTest, IpuServerLacksCompressionAndLogDevice) {
  sim::Simulator sim;
  Server server(&sim, MakeServerSpec("s2", IntelIpuLikeSpec()));
  EXPECT_EQ(server.accelerator(AcceleratorKind::kCompression), nullptr);
  EXPECT_EQ(server.dpu_log_device(), nullptr);
}

// --------------------------------------------------------------------------
// Calibration pins for the paper's figures.
// --------------------------------------------------------------------------

TEST(CalibrationTest, Figure2Anchor450kPagesIs2p7Cores) {
  // cores = iops * cycles_per_io / host_hz
  double cores = 450'000.0 * double(cal::kLinuxStorageStackCyclesPerIo) /
                 (cal::kHostClockHz * cal::kHostIpc);
  EXPECT_NEAR(cores, 2.7, 0.01);
}

TEST(CalibrationTest, Figure1AsicBeatsHostCpuByOrderOfMagnitude) {
  double host_mbps =
      cal::kHostClockHz * cal::kHostIpc / cal::kDeflateCyclesPerByte;
  double asic_mbps = cal::kBf2CompressAsicBytesPerSec;
  double speedup = asic_mbps / host_mbps;
  EXPECT_GT(speedup, 10.0);
  EXPECT_LT(speedup, 40.0);
}

TEST(CalibrationTest, Figure1EpycOutrunsArm) {
  double epyc = cal::kHostClockHz * cal::kHostIpc;
  double arm = cal::kBf2ArmClockHz * cal::kBf2ArmIpc;
  EXPECT_GT(epyc / arm, 1.5);
  EXPECT_LT(epyc / arm, 3.0);
}

TEST(CalibrationTest, Figure3KernelTcpCostIsMultipleCoresAt100Gbps) {
  double msgs_per_sec = 100e9 / 8.0 / 8192.0;
  double cycles_per_sec =
      msgs_per_sec * double(cal::kKernelTcpCyclesPerMsg) +
      100e9 / 8.0 * cal::kKernelTcpCyclesPerByte;
  double cores = cycles_per_sec / (cal::kHostClockHz * cal::kHostIpc);
  EXPECT_GT(cores, 4.0);
  EXPECT_LT(cores, 12.0);
}

TEST(CalibrationTest, DpuTcpFitsOnBf2CoresAt100Gbps) {
  // Section 6: the offloaded stack must fit the weaker DPU cores.
  double msgs_per_sec = 100e9 / 8.0 / 8192.0;
  double cycles_per_sec = msgs_per_sec * double(cal::kDpuTcpCyclesPerMsg) +
                          100e9 / 8.0 * cal::kDpuTcpCyclesPerByte;
  double arm_cores =
      cycles_per_sec / (cal::kBf2ArmClockHz * cal::kBf2ArmIpc);
  EXPECT_LT(arm_cores, double(cal::kBf2ArmCores));
}

}  // namespace
}  // namespace dpdpu::hw
