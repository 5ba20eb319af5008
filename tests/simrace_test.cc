// Tests for simrace, the causality-aware race detector: detection of
// same-timestamp causally-unordered conflicts, suppression via every
// happens-before source (parent edges, tokens, chains, TCP delivery
// order), the access-kind conflict matrix, tie-break policies, and the
// observation-only guarantee (enabling the checker changes no simulated
// outcome).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "hw/machine.h"
#include "netsub/minitcp.h"
#include "netsub/network.h"
#include "sim/resource.h"
#include "sim/simrace.h"
#include "sim/simulator.h"

namespace dpdpu::sim {
namespace {

// Every test enables its own checker with default (non-fatal) Options:
// the explicit call overrides the Debug/env auto-enablement, whose
// fatal=true would turn an intentionally seeded race into an abort.

TEST(SimRaceTest, WriteWriteSameTimestampUnorderedIsRace) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> value("test.value");
  sim.Schedule(100, [&] { value.write() = 1; });
  sim.Schedule(100, [&] { value.write() = 2; });
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(rc.race_count(), 1u);
  ASSERT_EQ(rc.races().size(), 1u);
  const RaceReport& report = rc.races()[0];
  EXPECT_EQ(report.object, "test.value");
  EXPECT_EQ(report.time, 100u);
  EXPECT_EQ(report.first.kind, AccessKind::kWrite);
  EXPECT_EQ(report.second.kind, AccessKind::kWrite);
  // Both sides carry a provenance chain (self at minimum) and the
  // human-readable report spells it out.
  ASSERT_FALSE(report.first.provenance.empty());
  ASSERT_FALSE(report.second.provenance.empty());
  EXPECT_EQ(report.first.provenance[0].second, 100u);
  std::string text = rc.FormatReport(report);
  EXPECT_NE(text.find("simrace: RACE on test.value"), std::string::npos);
  EXPECT_NE(text.find("provenance:"), std::string::npos);
}

TEST(SimRaceTest, ReadWriteSameTimestampUnorderedIsRace) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> value("test.value");
  int seen = 0;
  sim.Schedule(50, [&] { seen = value.read(); });
  sim.Schedule(50, [&] { value.write() = 7; });
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(rc.race_count(), 1u);
  ASSERT_EQ(rc.races().size(), 1u);
  EXPECT_EQ(rc.races()[0].first.kind, AccessKind::kRead);
  EXPECT_EQ(rc.races()[0].second.kind, AccessKind::kWrite);
  EXPECT_EQ(seen, 0);  // FIFO: the read ran first
}

TEST(SimRaceTest, ProvenanceChainFollowsSchedulingAncestry) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> value("test.value");
  // Race at t=30 between two events with multi-hop scheduling ancestry:
  // the chains must walk back through the ancestors, newest first.
  sim.Schedule(10, [&] {
    sim.Schedule(20, [&] { value.write() = 1; });
  });
  sim.Schedule(5, [&] {
    sim.Schedule(25, [&] { value.write() = 2; });
  });
  sim.Run();
  sim.FinishRaceCheck();
  ASSERT_EQ(rc.races().size(), 1u);
  const RaceReport& report = rc.races()[0];
  // The t=5 parent executes first, so its child was inserted first and
  // FIFO tie-break runs it first.
  ASSERT_EQ(report.first.provenance.size(), 2u);
  EXPECT_EQ(report.first.provenance[0].second, 30u);  // self
  EXPECT_EQ(report.first.provenance[1].second, 5u);   // scheduling parent
  ASSERT_EQ(report.second.provenance.size(), 2u);
  EXPECT_EQ(report.second.provenance[1].second, 10u);
}

TEST(SimRaceTest, ParentEdgeOrdersSameTimestampChild) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> value("test.value");
  // The child runs at the same timestamp but was scheduled BY the
  // writer, so parent provenance orders them: not a race.
  sim.Schedule(100, [&] {
    value.write() = 1;
    sim.Schedule(0, [&] { value.write() = 2; });
  });
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(rc.race_count(), 0u);
  EXPECT_GE(rc.accesses_recorded(), 2u);
}

TEST(SimRaceTest, PublishConsumeTokenOrdersSiblings) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> value("test.value");
  HbToken token;
  // Two independently scheduled events at one timestamp; the first
  // publishes a token the second consumes (queue-handoff shape), which
  // supplies the happens-before edge the scheduler cannot see.
  sim.Schedule(100, [&] {
    value.write() = 1;
    token = rc.Publish();
  });
  sim.Schedule(100, [&] {
    rc.Consume(token);
    value.write() = 2;
  });
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(rc.race_count(), 0u);
}

TEST(SimRaceTest, HbChainOrdersFifoStream) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> value("test.value");
  HbChain chain;
  for (int i = 0; i < 4; ++i) {
    sim.Schedule(100, [&] {
      chain.Step();
      value.write() += 1;
    });
  }
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(rc.race_count(), 0u);
  EXPECT_EQ(value.read(), 4);
}

// A 1000-event bucket at one timestamp, ordered only by an HbChain:
// event i writes key min(i, 999 - i), so event i conflicts with event
// 999 - i and every pair's ordering runs through the chain. Breaking the
// first link leaves exactly one pair, (0, 999), unordered.
struct ChainedBucket {
  uint64_t races = 0;
  std::vector<RaceReport> reports;
  std::vector<uint64_t> ids;  // event id of each chained event
};

ChainedBucket RunChainedBucket(bool break_first_link) {
  constexpr int kEvents = 1000;
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  RaceTag tag;
  HbChain chain;
  ChainedBucket out;
  out.ids.resize(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    sim.Schedule(100, [&, i] {
      if (break_first_link && i == 1) chain = HbChain();
      chain.Step();
      out.ids[i] = rc.Publish().event;
      DPDPU_SIM_ACCESS(tag, "test.chained", std::min(i, kEvents - 1 - i),
                       AccessKind::kWrite);
    });
  }
  sim.Run();
  sim.FinishRaceCheck();
  out.races = rc.race_count();
  out.reports = rc.races();
  return out;
}

TEST(SimRaceTest, LargeChainedBucketIsRaceFree) {
  ChainedBucket run = RunChainedBucket(/*break_first_link=*/false);
  EXPECT_EQ(run.races, 0u);
  EXPECT_TRUE(run.reports.empty());
}

TEST(SimRaceTest, LargeBucketWithOneBrokenLinkReportsOnePair) {
  ChainedBucket run = RunChainedBucket(/*break_first_link=*/true);
  EXPECT_EQ(run.races, 1u);
  ASSERT_EQ(run.reports.size(), 1u);
  const RaceReport& report = run.reports[0];
  EXPECT_EQ(report.object, "test.chained");
  EXPECT_EQ(report.object_id, 1u);
  EXPECT_EQ(report.key, 0u);
  EXPECT_EQ(report.time, 100u);
  EXPECT_EQ(report.first.event, run.ids[0]);
  EXPECT_EQ(report.second.event, run.ids[999]);
  EXPECT_EQ(report.first.event, 0u);
  EXPECT_EQ(report.second.event, 999u);
  EXPECT_EQ(report.first.kind, AccessKind::kWrite);
  EXPECT_EQ(report.second.kind, AccessKind::kWrite);
  // Both were scheduled from outside any event: the chain is self only.
  using Chain = std::vector<std::pair<uint64_t, uint64_t>>;
  EXPECT_EQ(report.first.provenance, (Chain{{0, 100}}));
  EXPECT_EQ(report.second.provenance, (Chain{{999, 100}}));
}

TEST(SimRaceTest, CommutativeWritesDoNotConflict) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> counter("test.counter");
  sim.Schedule(100, [&] { counter.commute() += 1; });
  sim.Schedule(100, [&] { counter.commute() += 1; });
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(rc.race_count(), 0u);
  EXPECT_EQ(counter.read(), 2);
}

TEST(SimRaceTest, CommutativeWriteConflictsWithRead) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> counter("test.counter");
  int seen = 0;
  sim.Schedule(100, [&] { counter.commute() += 1; });
  sim.Schedule(100, [&] { seen = counter.read(); });
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(rc.race_count(), 1u);
  EXPECT_EQ(seen, 1);
}

TEST(SimRaceTest, DistinctObjectsKeysAndTimesDoNotConflict) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Racy<int> a("test.a");
  Racy<int> b("test.b");
  // Distinct objects at one time; same object at distinct times.
  sim.Schedule(100, [&] { a.write() = 1; });
  sim.Schedule(100, [&] { b.write() = 1; });
  sim.Schedule(200, [&] { a.write() = 2; });
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(rc.race_count(), 0u);
}

TEST(SimRaceTest, ResourceGrantOrderCoversQueuedJobs) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  Resource res(&sim, "disk", 1);  // one slot: second job queues
  Racy<int> value("test.value");
  // Both completions land at the same virtual nanosecond only if the
  // service times align; regardless, the FIFO grant token must order
  // submit -> dequeue so queued completions never misreport.
  sim.Schedule(10, [&] {
    res.Submit(100, [&] { value.write() = 1; });
    res.Submit(0, [&] { value.write() = 2; });
  });
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(rc.race_count(), 0u);
  EXPECT_EQ(value.read(), 2);
}

// --------------------------------------------------------------------------
// Tie-break policies.
// --------------------------------------------------------------------------

TEST(TieBreakTest, FifoRunsTiesInInsertionOrder) {
  Simulator sim;
  sim.DisableRaceCheck();
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TieBreakTest, LifoReversesTies) {
  Simulator sim;
  sim.DisableRaceCheck();
  sim.SetTieBreak(TieBreak::kLifo);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(TieBreakTest, ShuffleIsDeterministicPerSeedAndPerturbsOrder) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    sim.DisableRaceCheck();
    sim.SetTieBreak(TieBreak::kShuffle, seed);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      sim.Schedule(100, [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  std::vector<int> a = run(7);
  EXPECT_EQ(a, run(7));  // same seed: identical schedule
  std::vector<int> fifo(16);
  for (int i = 0; i < 16; ++i) fifo[i] = i;
  EXPECT_NE(a, fifo);  // and it actually permutes the ties
}

TEST(TieBreakTest, CrossTimestampOrderIsPolicyIndependent) {
  for (TieBreak policy :
       {TieBreak::kFifo, TieBreak::kLifo, TieBreak::kShuffle}) {
    Simulator sim;
    sim.DisableRaceCheck();
    sim.SetTieBreak(policy, 9);
    std::vector<int> order;
    sim.Schedule(300, [&] { order.push_back(3); });
    sim.Schedule(100, [&] { order.push_back(1); });
    sim.Schedule(200, [&] { order.push_back(2); });
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  }
}

// --------------------------------------------------------------------------
// Observation-only: race checking must not change simulated outcomes.
// --------------------------------------------------------------------------

// A small but non-trivial workload: contended resource + periodic ticks.
struct WorkloadResult {
  SimTime end_time = 0;
  uint64_t events = 0;
  int jobs_done = 0;
  int ticks = 0;
};

WorkloadResult RunWorkload(bool race_check) {
  Simulator sim;
  if (race_check) {
    sim.EnableRaceCheck();
  } else {
    sim.DisableRaceCheck();
  }
  WorkloadResult result;
  Resource res(&sim, "ssd", 2);
  PeriodicTask sampler;
  sampler.Start(&sim, 50, [&] {
    if (++result.ticks >= 20) sampler.Cancel();
  });
  for (int i = 0; i < 8; ++i) {
    sim.Schedule(10 * i, [&res, &result, i] {
      res.Submit(25 + i, [&result] { ++result.jobs_done; });
    });
  }
  sim.Run();
  sim.FinishRaceCheck();
  result.end_time = sim.now();
  result.events = sim.events_executed();
  return result;
}

TEST(SimRaceTest, CheckerIsObservationOnly) {
  WorkloadResult off = RunWorkload(false);
  WorkloadResult on = RunWorkload(true);
  EXPECT_EQ(on.end_time, off.end_time);
  EXPECT_EQ(on.events, off.events);
  EXPECT_EQ(on.jobs_done, off.jobs_done);
  EXPECT_EQ(on.ticks, off.ticks);
}

TEST(SimRaceDeathTest, FatalOptionAbortsWithReport) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim;
        RaceChecker::Options options;
        options.fatal = true;
        sim.EnableRaceCheck(options);
        Racy<int> value("fatal.value");
        sim.Schedule(1, [&] { value.write() = 1; });
        sim.Schedule(1, [&] { value.write() = 2; });
        sim.Run();
        sim.FinishRaceCheck();
      },
      "simrace: RACE on fatal.value");
}

// --------------------------------------------------------------------------
// End-to-end: an instrumented TCP transfer is race-clean (the
// ack-before-deliver and in-order-delivery edges must cover every
// same-timestamp collision between data path and segment processing).
// --------------------------------------------------------------------------

TEST(SimRaceTcpTest, BulkTransferIsRaceClean) {
  Simulator sim;
  RaceChecker& rc = sim.EnableRaceCheck();
  auto nic_a = std::make_unique<hw::NicPort>(&sim, "a",
                                             hw::NicSpec{100e9, 2000, 4096});
  auto nic_b = std::make_unique<hw::NicPort>(&sim, "b",
                                             hw::NicSpec{100e9, 2000, 4096});
  netsub::Network net(&sim);
  netsub::TcpStack stack_a(&sim, &net, 1);
  netsub::TcpStack stack_b(&sim, &net, 2);
  net.Attach(1, nic_a.get(),
             [&](netsub::Packet p) { stack_a.OnPacket(std::move(p)); });
  net.Attach(2, nic_b.get(),
             [&](netsub::Packet p) { stack_b.OnPacket(std::move(p)); });
  size_t received = 0;
  stack_b.Listen(80, [&](netsub::TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received += data.size(); });
  });
  netsub::TcpConnection* client = stack_a.Connect(2, 80);
  std::string payload(4096, 'x');
  Buffer chunk(payload);
  for (int i = 0; i < 64; ++i) client->Send(chunk.span());
  sim.Run();
  sim.FinishRaceCheck();
  EXPECT_EQ(received, 64u * 4096u);
  EXPECT_GT(rc.accesses_recorded(), 0u);  // instrumentation was live
  EXPECT_EQ(rc.race_count(), 0u);
}

}  // namespace
}  // namespace dpdpu::sim
