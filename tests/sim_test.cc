// Unit tests for the discrete-event simulator and the Resource queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/resource.h"
#include "sim/simulator.h"

namespace dpdpu::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.now());
    sim.Schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(SimulatorTest, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.Schedule(10, [] {});
  sim.Run();
  ASSERT_EQ(sim.now(), 10u);
  sim.RunFor(25);
  EXPECT_EQ(sim.now(), 35u);
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime when = 0;
  sim.ScheduleAt(123, [&] { when = sim.now(); });
  sim.Run();
  EXPECT_EQ(when, 123u);
}

TEST(SimulatorTest, EventCountTracksExecution) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = 0;
  bool monotonic = true;
  // Interleave scheduling from callbacks to stress the heap.
  for (int i = 0; i < 1000; ++i) {
    sim.Schedule((i * 7919) % 1000, [&, i] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
      if (i % 3 == 0) {
        sim.Schedule(13, [&] {
          if (sim.now() < last) monotonic = false;
          last = sim.now();
        });
      }
    });
  }
  sim.Run();
  EXPECT_TRUE(monotonic);
}

// --------------------------------------------------------------------------
// Event order against an independent reference
// --------------------------------------------------------------------------

// The tie key each policy assigns to the event with sequence id `seq`.
uint64_t ReferenceTieKey(TieBreak policy, uint64_t seq, uint64_t seed) {
  switch (policy) {
    case TieBreak::kFifo:
      return seq;
    case TieBreak::kLifo:
      return ~seq;
    case TieBreak::kShuffle:
      return SplitMix64(seq ^ seed);
  }
  return seq;
}

// A seeded schedule run both on a Simulator and on a reference queue (a
// std::map sorted by (time, tie key, seq), sequence ids counted by
// hand). Event `id` schedules the children ChildrenOf(id): same-instant
// bursts (delay 0), near-future events, and, from the root batch, 4096
// far-future events that stay pending while everything else runs.
struct SeededSchedule {
  static constexpr SimTime kFarTime = 1000 * kMillisecond;
  int roots = 600;
  int far_future = 4096;
  int max_events = 20000;

  struct Child {
    SimTime delay;
    int id;
  };

  int next_id = 0;

  // Child list of event `id`; ids are handed out in scheduling order.
  std::vector<Child> ChildrenOf(int id) {
    std::vector<Child> out;
    uint64_t h = SplitMix64(uint64_t(id) * 0x51ED27ull + 3);
    int n = int(h % 4);  // 0..3 children
    for (int c = 0; c < n && next_id < max_events; ++c) {
      h = SplitMix64(h);
      // Half the children share the parent's instant.
      SimTime delay = (h & 1) ? 0 : SimTime((h >> 1) % 7);
      out.push_back({delay, next_id++});
    }
    return out;
  }

  // The initial batch: roots over a 50 ns window (many ties), then the
  // far-future events in 64 groups of equal timestamps.
  std::vector<Child> Initial() {
    std::vector<Child> out;
    for (int i = 0; i < roots; ++i) {
      out.push_back({SimTime(SplitMix64(uint64_t(i)) % 50), next_id++});
    }
    for (int i = 0; i < far_future; ++i) {
      out.push_back({kFarTime + SimTime(i % 64), next_id++});
    }
    return out;
  }
};

using Order = std::vector<std::pair<int, SimTime>>;

// (id, time) of every event the reference queue runs, in order. The
// ties at the minimum time are the first entries of the (time, tie key,
// seq) map, already in policy order; `chooser`, when given, picks among
// two or more of them.
Order ReferenceOrder(SeededSchedule program, TieBreak policy, uint64_t seed,
                     ScheduleChooser* chooser) {
  std::map<std::tuple<SimTime, uint64_t, uint64_t>, int> pending;
  uint64_t seq = 0;
  auto push = [&](SimTime t, int id) {
    pending.emplace(std::make_tuple(t, ReferenceTieKey(policy, seq, seed), seq),
                    id);
    ++seq;
  };
  for (const auto& c : program.Initial()) push(c.delay, c.id);
  Order order;
  while (!pending.empty()) {
    SimTime now = std::get<0>(pending.begin()->first);
    std::vector<decltype(pending)::iterator> ties;
    std::vector<uint64_t> seqs;
    for (auto it = pending.begin();
         it != pending.end() && std::get<0>(it->first) == now; ++it) {
      ties.push_back(it);
      seqs.push_back(std::get<2>(it->first));
    }
    uint32_t pick = 0;
    if (chooser != nullptr && ties.size() > 1) {
      pick = chooser->ChooseTie(now, seqs.data(), uint32_t(seqs.size()));
    }
    int id = ties[pick]->second;
    pending.erase(ties[pick]);
    order.emplace_back(id, now);
    for (const auto& c : program.ChildrenOf(id)) push(now + c.delay, c.id);
  }
  return order;
}

// The same program on a Simulator; checks the pending count up front.
Order SimulatedOrder(SeededSchedule program, TieBreak policy, uint64_t seed,
                     ScheduleChooser* chooser) {
  struct Run {
    Simulator sim;
    SeededSchedule program;
    Order order;

    void Event(int id) {
      order.emplace_back(id, sim.now());
      for (const auto& c : program.ChildrenOf(id)) {
        sim.Schedule(c.delay, [this, id = c.id] { Event(id); });
      }
    }
  } run;
  run.program = program;
  run.sim.SetTieBreak(policy, seed);
  run.sim.SetChooser(chooser);
  for (const auto& c : run.program.Initial()) {
    run.sim.ScheduleAt(c.delay, [&run, id = c.id] { run.Event(id); });
  }
  EXPECT_EQ(run.sim.pending(), size_t(program.roots + program.far_future));
  run.sim.Run();
  EXPECT_EQ(run.sim.events_executed(), run.order.size());
  EXPECT_TRUE(run.sim.empty());
  return run.order;
}

TEST(SimulatorTest, SeededScheduleMatchesReferenceOrderUnderEveryPolicy) {
  for (TieBreak policy : {TieBreak::kFifo, TieBreak::kLifo,
                          TieBreak::kShuffle}) {
    SCOPED_TRACE(int(policy));
    SeededSchedule program;
    Order expected = ReferenceOrder(program, policy, 7, nullptr);
    ASSERT_GT(expected.size(),
              size_t(program.roots + program.far_future + 1000));
    EXPECT_EQ(SimulatedOrder(program, policy, 7, nullptr), expected);
  }
}

// Runs a closure capturing an N-word payload that schedules enough
// events to grow the simulator's closure storage several times over,
// then checks its own captured payload afterwards.
template <size_t N>
void GrowQueueFromInsideClosure(bool expect_inline) {
  Simulator sim;
  std::array<uint64_t, N> payload;
  for (size_t i = 0; i < N; ++i) payload[i] = SplitMix64(i);
  std::vector<SimTime> ran;
  bool payload_intact = false;
  UniqueFunction<void()> fn = [&sim, &ran, &payload_intact, payload] {
    for (int i = 0; i < 5000; ++i) {
      sim.Schedule(SimTime(1 + i % 3), [&ran, &sim] {
        ran.push_back(sim.now());
      });
    }
    payload_intact = true;
    for (size_t i = 0; i < N; ++i) {
      if (payload[i] != SplitMix64(i)) payload_intact = false;
    }
  };
  EXPECT_EQ(fn.is_inline(), expect_inline);
  sim.Schedule(10, std::move(fn));
  sim.Run();
  EXPECT_TRUE(payload_intact);
  ASSERT_EQ(ran.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
  EXPECT_EQ(ran.front(), 11u);
  EXPECT_EQ(ran.back(), 13u);
}

TEST(SimulatorTest, RunningClosureSurvivesQueueGrowth) {
  // 16 words (128 B) exceed the inline buffer: a heap-boxed closure.
  GrowQueueFromInsideClosure<16>(/*expect_inline=*/false);
  // 3 words plus three references fit inline.
  GrowQueueFromInsideClosure<3>(/*expect_inline=*/true);
}

// Records every candidate list and picks by a fixed rule.
class RecordingChooser : public ScheduleChooser {
 public:
  uint32_t ChooseTie(SimTime time, const uint64_t* candidates,
                     uint32_t n) override {
    lists.emplace_back(time, std::vector<uint64_t>(candidates, candidates + n));
    // The last candidate on the 1st, 3rd, 5th... call, else the middle one.
    return lists.size() % 2 == 1 ? n - 1 : n / 2;
  }
  uint32_t Choose(const char*, uint64_t, uint32_t) override { return 0; }

  std::vector<std::pair<SimTime, std::vector<uint64_t>>> lists;
};

TEST(SimulatorTest, ChooserPickingNonZeroTiesSeesPolicyOrderedCandidates) {
  // a, b, c at t=5 (seqs 0..2); c schedules d at the same instant (seq 3).
  Simulator sim;
  RecordingChooser chooser;
  sim.SetChooser(&chooser);
  std::vector<char> order;
  sim.Schedule(5, [&] { order.push_back('a'); });
  sim.Schedule(5, [&] { order.push_back('b'); });
  sim.Schedule(5, [&] {
    order.push_back('c');
    sim.Schedule(0, [&] { order.push_back('d'); });
  });
  sim.Run();
  // Picks: last of {0,1,2} = c, middle of {0,1,3} = 1 (b), last of {0,3}
  // = d; a runs alone without a call.
  EXPECT_EQ(order, (std::vector<char>{'c', 'b', 'd', 'a'}));
  using Lists = std::vector<std::pair<SimTime, std::vector<uint64_t>>>;
  EXPECT_EQ(chooser.lists,
            (Lists{{5, {0, 1, 2}}, {5, {0, 1, 3}}, {5, {0, 3}}}));
}

TEST(SimulatorTest, ChooserCandidateListsMatchReferenceUnderEveryPolicy) {
  for (TieBreak policy : {TieBreak::kFifo, TieBreak::kLifo,
                          TieBreak::kShuffle}) {
    SCOPED_TRACE(int(policy));
    // The chosen-step path rebuilds the heap per step, so this schedule
    // is smaller and has no far-future events.
    const SeededSchedule small{.roots = 200, .far_future = 0,
                               .max_events = 3000};
    RecordingChooser reference;
    Order expected = ReferenceOrder(small, policy, 3, &reference);
    RecordingChooser chooser;
    EXPECT_EQ(SimulatedOrder(small, policy, 3, &chooser), expected);
    ASSERT_GT(reference.lists.size(), 100u);
    EXPECT_EQ(chooser.lists, reference.lists);
  }
}

// --------------------------------------------------------------------------
// Resource
// --------------------------------------------------------------------------

TEST(ResourceTest, SingleServerSerializesJobs) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    r.Submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
}

TEST(ResourceTest, MultiServerRunsConcurrently) {
  Simulator sim;
  Resource r(&sim, "cpu", 3);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    r.Submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 100, 100}));
}

TEST(ResourceTest, QueueDrainsFifo) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    r.Submit(10, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.jobs_completed(), 5u);
}

TEST(ResourceTest, BusyTimeAccumulatesServiceTime) {
  Simulator sim;
  Resource r(&sim, "cpu", 2);
  for (int i = 0; i < 4; ++i) r.Submit(50);
  sim.Run();
  EXPECT_EQ(r.busy_time(), 200u);
  // 4 jobs x 50ns over 100ns elapsed on 2 servers => 2.0 busy-server equiv.
  EXPECT_DOUBLE_EQ(r.BusyServerEquivalent(sim.now()), 2.0);
  EXPECT_DOUBLE_EQ(r.Utilization(sim.now()), 1.0);
}

TEST(ResourceTest, UtilizationBelowOneWhenIdle) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  r.Submit(100);
  sim.Run();
  sim.RunUntil(400);
  EXPECT_DOUBLE_EQ(r.Utilization(sim.now()), 0.25);
}

TEST(ResourceTest, WaitHistogramRecordsQueueing) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  r.Submit(100);
  r.Submit(100);  // waits 100
  r.Submit(100);  // waits 200
  sim.Run();
  EXPECT_EQ(r.wait_histogram().count(), 3u);
  EXPECT_EQ(r.wait_histogram().min(), 0u);
  // Log-bucket resolution ~4%.
  EXPECT_NEAR(double(r.wait_histogram().max()), 200.0, 1.0);
}

TEST(ResourceTest, SubmitFromCompletionCallback) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  int chain = 0;
  UniqueFunction<void()> step;
  r.Submit(10, [&] {
    ++chain;
    r.Submit(10, [&] { ++chain; });
  });
  sim.Run();
  EXPECT_EQ(chain, 2);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(ResourceTest, ZeroServiceTimeJobs) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  int done = 0;
  for (int i = 0; i < 10; ++i) r.Submit(0, [&] { ++done; });
  sim.Run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(ResourceTest, QueueLengthVisibleMidRun) {
  Simulator sim;
  Resource r(&sim, "cpu", 1);
  for (int i = 0; i < 5; ++i) r.Submit(100);
  EXPECT_EQ(r.busy(), 1u);
  EXPECT_EQ(r.queue_length(), 4u);
  sim.RunUntil(150);
  EXPECT_EQ(r.queue_length(), 3u);
  sim.Run();
  EXPECT_EQ(r.queue_length(), 0u);
  EXPECT_EQ(r.busy(), 0u);
}

// Drives a capacity-2 resource with mixed service times and continuation
// latencies; every even job's continuation submits one more job, until
// 50 jobs in all. Continuations record (job, time) when they run.
struct InterleavedJobs {
  Simulator* sim;
  Resource* res;
  std::vector<std::pair<int, SimTime>> done;
  int submitted = 0;

  void SubmitNext() {
    int j = submitted++;
    SimTime service = 5 + SimTime(j * 7 % 11);
    std::optional<SimTime> latency;
    if (j % 3 == 1) latency = 0;
    if (j % 3 == 2) latency = SimTime(j % 4) * 4;
    res->Submit(
        service,
        [this, j] {
          done.emplace_back(j, sim->now());
          if (j % 2 == 0 && submitted < 50) SubmitNext();
        },
        latency);
  }
};

TEST(ResourceTest, SlotReuseUnderInterleavedCompletions) {
  Simulator sim;
  Resource r(&sim, "cpu", 2);
  InterleavedJobs jobs{&sim, &r, {}};
  for (int i = 0; i < 30; ++i) jobs.SubmitNext();
  sim.Run();
  // Job j holds a server for 5 + 7j mod 11 ns; its continuation runs at
  // completion (j%3==0), in a separate event at the same instant
  // (j%3==1), or 4*(j%4) ns later (j%3==2). The expected schedule was
  // worked out independently of Resource: two FIFO servers over events
  // ordered by (time, insertion order).
  const std::vector<std::pair<int, SimTime>> expected = {
      {0, 5}, {1, 12}, {2, 21}, {4, 24}, {3, 27}, {5, 35},
      {6, 41}, {7, 41}, {8, 47}, {9, 54}, {10, 56}, {13, 67},
      {12, 68}, {11, 71}, {15, 79}, {16, 86}, {14, 90}, {18, 96},
      {17, 100}, {19, 102}, {20, 109}, {21, 111}, {22, 114}, {24, 122},
      {23, 135}, {25, 137}, {27, 141}, {26, 142}, {28, 151}, {29, 155},
      {30, 157}, {31, 164}, {32, 166}, {33, 169}, {34, 178}, {35, 189},
      {37, 189}, {36, 192}, {38, 204}, {39, 206}, {40, 206}, {41, 216},
      {42, 219}, {43, 221}, {44, 224}, {46, 232}, {45, 233}, {48, 244},
      {49, 251}, {47, 259}};
  EXPECT_EQ(jobs.done, expected);
  EXPECT_EQ(r.jobs_completed(), 50u);
  EXPECT_EQ(r.busy(), 0u);
  EXPECT_EQ(r.queue_length(), 0u);
}

TEST(ResourceTest, ZeroLatencyStillSchedulesASeparateEvent) {
  // Without a latency the continuation runs inside the completion event,
  // ahead of an event already queued for the same instant; with a zero
  // latency it is a new event behind it.
  for (bool zero_latency : {false, true}) {
    Simulator sim;
    Resource r(&sim, "link", 1);
    std::vector<int> order;
    std::optional<SimTime> latency;
    if (zero_latency) latency = 0;
    r.Submit(10, [&] { order.push_back(1); }, latency);
    sim.Schedule(10, [&] { order.push_back(2); });
    sim.Run();
    EXPECT_EQ(sim.now(), 10u);
    EXPECT_EQ(sim.events_executed(), zero_latency ? 3u : 2u);
    EXPECT_EQ(order, zero_latency ? (std::vector<int>{2, 1})
                                  : (std::vector<int>{1, 2}));
  }
}

}  // namespace
}  // namespace dpdpu::sim
