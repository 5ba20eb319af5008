// Tests for the network substrate: lock-free rings (exercised with real
// threads), the fabric with loss injection, MiniTCP (handshake, bulk
// transfer, loss recovery, flow control), and RDMA verbs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "hw/machine.h"
#include "kern/textgen.h"
#include "netsub/minitcp.h"
#include "netsub/network.h"
#include "netsub/rdma.h"
#include "netsub/ring.h"

namespace dpdpu::netsub {
namespace {

// --------------------------------------------------------------------------
// SpscRing.
// --------------------------------------------------------------------------

TEST(SpscRingTest, PushPopSingleThread) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  int v;
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(SpscRingTest, FullRejectsPush) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));
  int v;
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_TRUE(ring.TryPush(99));
}

TEST(SpscRingTest, MoveOnlyPayload) {
  SpscRing<std::unique_ptr<int>> ring(4);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(*out, 7);
}

TEST(SpscRingTest, MinimalCapacityTwoFullLifecycle) {
  // Capacity 2 is the smallest legal ring (power of two, >= 2); every
  // boundary is one op away: empty -> one-below-full -> full -> wrap.
  SpscRing<int> ring(2);
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_TRUE(ring.empty_approx());

  int v = -1;
  EXPECT_FALSE(ring.TryPop(&v));  // pop from empty
  EXPECT_TRUE(ring.TryPush(10));
  EXPECT_EQ(ring.size_approx(), 1u);  // occupancy == capacity - 1
  EXPECT_TRUE(ring.TryPush(11));
  EXPECT_EQ(ring.size_approx(), 2u);
  EXPECT_FALSE(ring.TryPush(12));  // push into full

  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(ring.TryPush(12));  // freed slot is immediately reusable
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 11);
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 12);
  EXPECT_TRUE(ring.empty_approx());
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(SpscRingTest, WraparoundManyLaps) {
  // Cursors are free-running; drive them far past capacity so the masked
  // index laps the storage repeatedly while occupancy oscillates across
  // the empty/full boundaries.
  SpscRing<int> ring(4);
  int next = 0;
  int expect = 0;
  for (int lap = 0; lap < 1000; ++lap) {
    while (ring.TryPush(next)) ++next;  // fill to full
    EXPECT_EQ(ring.size_approx(), 4u);
    int v;
    while (ring.TryPop(&v)) {  // drain to empty
      ASSERT_EQ(v, expect);
      ++expect;
    }
    EXPECT_TRUE(ring.empty_approx());
  }
  EXPECT_EQ(next, 4000);
  EXPECT_EQ(expect, 4000);
}

TEST(SpscRingTest, OccupancyOneBelowFullAcceptsExactlyOne) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(ring.TryPush(i));
  EXPECT_EQ(ring.size_approx(), 7u);  // capacity - 1
  EXPECT_TRUE(ring.TryPush(7));       // the single remaining slot
  EXPECT_FALSE(ring.TryPush(8));
  EXPECT_EQ(ring.size_approx(), 8u);
}

TEST(SpscRingTest, TwoThreadsTransferEverythingInOrder) {
  constexpr int kItems = 200000;
  SpscRing<int> ring(1024);
  std::vector<int> received;
  received.reserve(kItems);

  std::thread consumer([&] {
    int v;
    while (received.size() < kItems) {
      if (ring.TryPop(&v)) received.push_back(v);
    }
  });
  for (int i = 0; i < kItems; ++i) {
    while (!ring.TryPush(i)) {
    }
  }
  consumer.join();

  ASSERT_EQ(received.size(), size_t(kItems));
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(received[i], i);
}

TEST(SpscRingTest, TwoThreadStressTinyRingCrossesBoundariesConstantly) {
  // TSan target: with capacity 4, the producer and consumer trade the
  // full/empty boundary hundreds of thousands of times, so any missing
  // acquire/release pairing on the cursors or an unsynchronized slot
  // access shows up as a reported race. The consumer also polls the
  // approximate observers concurrently, which must be race-free reads.
  constexpr int kItems = 100000;
  SpscRing<int> ring(4);
  uint64_t checksum = 0;

  std::thread consumer([&] {
    int v;
    int got = 0;
    int last = -1;
    while (got < kItems) {
      if (ring.TryPop(&v)) {
        ASSERT_EQ(v, last + 1);  // strict FIFO under contention
        last = v;
        checksum += uint64_t(v);
        ++got;
      } else {
        // Yield instead of hard-spinning: on single-core runners a
        // blocked spinner otherwise burns its whole timeslice before
        // the peer can make the ring non-empty/non-full again.
        std::this_thread::yield();
      }
      // Concurrent observer: must be a race-free read and never exceed
      // the capacity even while the producer is mid-publish.
      ASSERT_LE(ring.size_approx(), 4u);
    }
  });
  for (int i = 0; i < kItems; ++i) {
    while (!ring.TryPush(i)) {
      std::this_thread::yield();
    }
  }
  consumer.join();

  EXPECT_EQ(checksum, uint64_t(kItems) * (kItems - 1) / 2);
  EXPECT_TRUE(ring.empty_approx());
}

// --------------------------------------------------------------------------
// MpmcRing.
// --------------------------------------------------------------------------

TEST(MpmcRingTest, SingleThreadBasics) {
  MpmcRing<int> ring(4);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_TRUE(ring.TryPush(3));
  EXPECT_TRUE(ring.TryPush(4));
  EXPECT_FALSE(ring.TryPush(5));
  int v;
  for (int expect = 1; expect <= 4; ++expect) {
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, expect);
  }
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(MpmcRingTest, MinimalCapacityTwoFullLifecycle) {
  MpmcRing<int> ring(2);
  EXPECT_EQ(ring.capacity(), 2u);
  int v = -1;
  EXPECT_FALSE(ring.TryPop(&v));  // pop from empty
  EXPECT_TRUE(ring.TryPush(10));
  EXPECT_TRUE(ring.TryPush(11));
  EXPECT_FALSE(ring.TryPush(12));  // push into full
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(ring.TryPush(12));  // sequence numbers recycle the slot
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 11);
  ASSERT_TRUE(ring.TryPop(&v));
  EXPECT_EQ(v, 12);
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(MpmcRingTest, WraparoundManyLaps) {
  // Vyukov slot sequence numbers advance by capacity per lap; fill/drain
  // cycles must stay FIFO long after the cursors pass the mask.
  MpmcRing<int> ring(4);
  int next = 0;
  int expect = 0;
  for (int lap = 0; lap < 1000; ++lap) {
    while (ring.TryPush(next)) ++next;
    EXPECT_EQ(ring.size_approx(), 4u);
    int v;
    while (ring.TryPop(&v)) {
      ASSERT_EQ(v, expect);
      ++expect;
    }
  }
  EXPECT_EQ(next, 4000);
  EXPECT_EQ(expect, 4000);
}

TEST(MpmcRingTest, ManyProducersManyConsumersConserveItems) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 50000;
  MpmcRing<uint64_t> ring(2048);
  std::atomic<uint64_t> consumed_sum{0};
  std::atomic<int> consumed_count{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        uint64_t item = uint64_t(p) * kPerProducer + i + 1;
        while (!ring.TryPush(item)) {
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      uint64_t v;
      while (consumed_count.load() < kProducers * kPerProducer) {
        if (ring.TryPop(&v)) {
          consumed_sum += v;
          ++consumed_count;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t n = uint64_t(kProducers) * kPerProducer;
  // Items were 1..n in some partition; sum must match exactly.
  uint64_t expected = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      expected += uint64_t(p) * kPerProducer + i + 1;
    }
  }
  EXPECT_EQ(consumed_count.load(), int(n));
  EXPECT_EQ(consumed_sum.load(), expected);
}

// --------------------------------------------------------------------------
// Network fabric.
// --------------------------------------------------------------------------

struct TestNode {
  std::unique_ptr<hw::NicPort> nic;
  std::vector<Packet> received;
};

TEST(NetworkTest, DeliversWithSerializationAndPropagation) {
  sim::Simulator sim;
  Network net(&sim);
  TestNode a, b;
  a.nic = std::make_unique<hw::NicPort>(&sim, "a",
                                        hw::NicSpec{100e9, 2000, 4096});
  b.nic = std::make_unique<hw::NicPort>(&sim, "b",
                                        hw::NicSpec{100e9, 2000, 4096});
  net.Attach(1, a.nic.get(), [&](Packet p) { a.received.push_back(p); });
  net.Attach(2, b.nic.get(), [&](Packet p) { b.received.push_back(p); });

  Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload = Buffer("hello");
  net.Send(std::move(p));
  sim.Run();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].payload.ToString(), "hello");
  EXPECT_TRUE(a.received.empty());
  // 69 bytes at 100 Gbps ~ 5.5 ns serialization + 2 us propagation.
  EXPECT_GT(sim.now(), 2000u);
  EXPECT_LT(sim.now(), 3000u);
}

TEST(NetworkTest, UnknownDestinationDropped) {
  sim::Simulator sim;
  Network net(&sim);
  TestNode a;
  a.nic = std::make_unique<hw::NicPort>(&sim, "a", hw::NicSpec{});
  net.Attach(1, a.nic.get(), [](Packet) {});
  Packet p;
  p.src = 1;
  p.dst = 99;
  net.Send(std::move(p));
  sim.Run();
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST(NetworkTest, LossRateDropsApproximateFraction) {
  sim::Simulator sim;
  Network net(&sim);
  TestNode a, b;
  a.nic = std::make_unique<hw::NicPort>(&sim, "a", hw::NicSpec{});
  b.nic = std::make_unique<hw::NicPort>(&sim, "b", hw::NicSpec{});
  int delivered = 0;
  net.Attach(1, a.nic.get(), [](Packet) {});
  net.Attach(2, b.nic.get(), [&](Packet) { ++delivered; });
  net.SetLossRate(0.2, 42);
  for (int i = 0; i < 2000; ++i) {
    Packet p;
    p.src = 1;
    p.dst = 2;
    net.Send(std::move(p));
  }
  sim.Run();
  EXPECT_GT(delivered, 1400);
  EXPECT_LT(delivered, 1800);
}

// --------------------------------------------------------------------------
// MiniTCP.
// --------------------------------------------------------------------------

class TcpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    nic_a_ = std::make_unique<hw::NicPort>(&sim_, "a",
                                           hw::NicSpec{100e9, 2000, 4096});
    nic_b_ = std::make_unique<hw::NicPort>(&sim_, "b",
                                           hw::NicSpec{100e9, 2000, 4096});
    net_ = std::make_unique<Network>(&sim_);
    stack_a_ = std::make_unique<TcpStack>(&sim_, net_.get(), 1);
    stack_b_ = std::make_unique<TcpStack>(&sim_, net_.get(), 2);
    net_->Attach(1, nic_a_.get(),
                 [this](Packet p) { stack_a_->OnPacket(std::move(p)); });
    net_->Attach(2, nic_b_.get(),
                 [this](Packet p) { stack_b_->OnPacket(std::move(p)); });
  }

  sim::Simulator sim_;
  std::unique_ptr<hw::NicPort> nic_a_, nic_b_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<TcpStack> stack_a_, stack_b_;
};

TEST_F(TcpFixture, HandshakeEstablishesBothSides) {
  TcpConnection* server_conn = nullptr;
  stack_b_->Listen(80, [&](TcpConnection* c) { server_conn = c; });
  TcpConnection* client = stack_a_->Connect(2, 80);
  sim_.Run();
  ASSERT_NE(server_conn, nullptr);
  EXPECT_TRUE(client->established());
  EXPECT_TRUE(server_conn->established());
}

TEST_F(TcpFixture, SmallMessageDelivery) {
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(Buffer("ping").span());
  sim_.Run();
  EXPECT_EQ(received.ToString(), "ping");
}

TEST_F(TcpFixture, SendBeforeEstablishedIsBuffered) {
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(Buffer("early data").span());  // before handshake completes
  sim_.Run();
  EXPECT_EQ(received.ToString(), "early data");
}

TEST_F(TcpFixture, BulkTransferExactBytes) {
  Buffer sent = kern::GenerateText(1 << 20, {});
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(sent.span());
  sim_.Run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);
  EXPECT_EQ(client->stats().retransmissions, 0u);
}

TEST_F(TcpFixture, BidirectionalTransfer) {
  Buffer a_to_b = kern::GenerateText(200000, {1});
  Buffer b_to_a = kern::GenerateText(300000, {2});
  Buffer at_b, at_a;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { at_b.Append(d); });
    c->Send(b_to_a.span());
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->SetReceiveCallback([&](ByteSpan d) { at_a.Append(d); });
  client->Send(a_to_b.span());
  sim_.Run();
  EXPECT_EQ(at_b, a_to_b);
  EXPECT_EQ(at_a, b_to_a);
}

TEST_F(TcpFixture, LossyLinkStillDeliversExactly) {
  net_->SetLossRate(0.03, 7);
  Buffer sent = kern::GenerateText(1 << 20, {});
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(sent.span());
  sim_.Run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);
  EXPECT_GT(client->stats().retransmissions, 0u);
}

TEST_F(TcpFixture, HeavyLossStillDelivers) {
  net_->SetLossRate(0.15, 99);
  Buffer sent = kern::GenerateText(200000, {});
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan data) { received.Append(data); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(sent.span());
  sim_.Run();
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);
}

TEST_F(TcpFixture, CloseDeliversFinAfterData) {
  bool closed = false;
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
    c->SetCloseCallback([&] { closed = true; });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(Buffer("bye").span());
  client->Close();
  sim_.Run();
  EXPECT_EQ(received.ToString(), "bye");
  EXPECT_TRUE(closed);
  EXPECT_TRUE(client->closed());
}

TEST_F(TcpFixture, CongestionWindowGrowsFromSlowStart) {
  Buffer sent = kern::GenerateText(1 << 20, {});
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([](ByteSpan) {});
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  uint64_t initial_cwnd = client->cwnd();
  client->Send(sent.span());
  sim_.Run();
  EXPECT_GT(client->cwnd(), initial_cwnd);
}

TEST_F(TcpFixture, ReceiveWindowLimitsInFlight) {
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([](ByteSpan) {});
    c->SetReceiveWindow(8192);  // tiny advertised window
  });
  Buffer sent = kern::GenerateText(500000, {});
  Buffer received_total;
  TcpConnection* client = stack_a_->Connect(2, 80);
  client->Send(sent.span());
  // Run a while; in-flight must never exceed window + one segment.
  for (int step = 0; step < 200000 && !sim_.empty(); ++step) {
    sim_.Step();
    if (client->established()) {
      EXPECT_LE(client->bytes_unacked(),
                8192u + stack_a_->config().mss + 1);
    }
  }
}

TEST_F(TcpFixture, SegmentHookSeesTraffic) {
  uint64_t tx_bytes = 0, rx_bytes = 0;
  stack_a_->SetSegmentHook([&](size_t bytes, bool rx) {
    (rx ? rx_bytes : tx_bytes) += bytes;
  });
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([](ByteSpan) {});
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  Buffer sent = kern::GenerateText(100000, {});
  client->Send(sent.span());
  sim_.Run();
  EXPECT_GT(tx_bytes, sent.size());  // data + headers
  EXPECT_GT(rx_bytes, 0u);           // ACKs
}

TEST_F(TcpFixture, ManyConcurrentConnections) {
  constexpr int kConns = 20;
  std::vector<Buffer> received(kConns);
  int accepted = 0;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    int idx = accepted++;
    c->SetReceiveCallback(
        [&received, idx](ByteSpan d) { received[idx].Append(d); });
  });
  std::vector<Buffer> sent;
  for (int i = 0; i < kConns; ++i) {
    sent.push_back(kern::GenerateText(50000 + i * 1000,
                                      {uint64_t(i + 1), 4096, 0.9}));
    TcpConnection* c = stack_a_->Connect(2, 80);
    c->Send(sent.back().span());
  }
  sim_.Run();
  ASSERT_EQ(accepted, kConns);
  uint64_t total_sent = 0, total_received = 0;
  for (int i = 0; i < kConns; ++i) {
    total_sent += sent[i].size();
    total_received += received[i].size();
  }
  EXPECT_EQ(total_received, total_sent);
}

TEST_F(TcpFixture, RetransmitCapAbortsConnectionToDarkNode) {
  // Establish, then take the peer node down: retransmissions must stop
  // making progress and the cap must abort the connection (firing the
  // close callback) instead of backing off at rto_max forever.
  TcpConnection* server_conn = nullptr;
  stack_b_->Listen(80, [&](TcpConnection* c) { server_conn = c; });
  TcpConnection* client = stack_a_->Connect(2, 80);
  sim_.Run();
  ASSERT_TRUE(client->established());

  bool closed_fired = false;
  client->SetCloseCallback([&] { closed_fired = true; });
  net_->SetNodeUp(2, false);
  client->Send(Buffer("into the void").span());
  sim::SimTime send_at = sim_.now();
  sim_.Run();  // must drain: the abort cancels the retransmit timer chain

  EXPECT_TRUE(client->closed());
  EXPECT_TRUE(closed_fired);
  EXPECT_EQ(client->stats().aborts, 1u);
  EXPECT_GT(client->stats().timeouts, 0u);
  // The stall window is bounded by the configured cap plus one final RTO
  // backoff interval.
  sim::SimTime cap = stack_a_->config().max_retransmit_time;
  EXPECT_GE(cap, sim::SimTime(1));
  EXPECT_LE(sim_.now() - send_at, cap + stack_a_->config().rto_max +
            sim::kSecond);
  EXPECT_EQ(server_conn->stats().aborts, 0u);
}

TEST_F(TcpFixture, AbortIsIdempotentAndReapsState) {
  TcpConnection* client = stack_a_->Connect(2, 80);
  stack_b_->Listen(80, [](TcpConnection*) {});
  sim_.Run();
  ASSERT_TRUE(client->established());
  int close_calls = 0;
  client->SetCloseCallback([&] { ++close_calls; });
  client->Send(Buffer("x").span());
  client->Abort();
  client->Abort();
  EXPECT_TRUE(client->closed());
  EXPECT_EQ(client->stats().aborts, 1u);
  EXPECT_EQ(close_calls, 1);
  EXPECT_EQ(client->bytes_unacked(), 0u);
  sim_.Run();  // nothing left scheduled for the aborted connection
}

// The send queue holds one entry per app write and hands segments to the
// wire as spans of those entries. These pin the framing invariant that
// span lookup relies on and the queue's reclamation on ACK and abort.
TEST_F(TcpFixture, BackToBackWritesAreFramedPerMessage) {
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
  });
  std::vector<size_t> tx_sizes;
  stack_a_->SetSegmentHook([&](size_t bytes, bool rx) {
    if (!rx) tx_sizes.push_back(bytes);
  });
  // All writes queue before the handshake completes, so Pump sees them
  // together and only the write ends can separate them.
  TcpConnection* client = stack_a_->Connect(2, 80);
  const size_t mss = stack_a_->config().mss;
  Buffer sent;
  std::vector<size_t> expected_payloads;
  uint64_t seed = 1;
  for (size_t size : {size_t(1), mss - 1, mss, mss + 1, 3 * mss + 7}) {
    Buffer message = kern::GenerateText(size, {seed++});
    ASSERT_EQ(message.size(), size);
    client->Send(message.span());
    sent.Append(message.span());
    for (size_t rest = size; rest > 0;) {
      size_t chunk = std::min(mss, rest);
      expected_payloads.push_back(chunk);
      rest -= chunk;
    }
  }
  sim_.Run();

  EXPECT_EQ(received, sent);
  EXPECT_EQ(client->stats().retransmissions, 0u);
  EXPECT_EQ(client->bytes_unacked(), 0u);
  // The SYN carries no payload, so its size is the per-segment header
  // cost; the handshake ACK is the only other payload-free segment.
  ASSERT_FALSE(tx_sizes.empty());
  const size_t headers = tx_sizes[0];
  std::vector<size_t> payloads;
  for (size_t bytes : tx_sizes) {
    if (bytes > headers) payloads.push_back(bytes - headers);
  }
  EXPECT_EQ(payloads, expected_payloads);
}

TEST_F(TcpFixture, LossyMultiMessageStreamRetransmitsAcrossWriteEnds) {
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  sim_.Run();
  ASSERT_TRUE(client->established());
  // Learn the per-segment header bytes from a 1-byte write.
  size_t headers = 0;
  stack_a_->SetSegmentHook([&](size_t bytes, bool rx) {
    if (!rx && headers == 0) headers = bytes - 1;
  });
  Buffer sent("x");
  client->Send(sent.span());
  sim_.Run();
  ASSERT_GT(headers, 0u);

  // Every write below is at most kSmallMax bytes or is cut into MSS, 1-
  // and 7-byte pieces, so a payload strictly between kSmallMax and the
  // MSS joins the tails of several writes: a retransmission after a
  // rewind. Multi-MSS writes also get partial ACKs inside a message.
  const size_t mss = stack_a_->config().mss;
  constexpr size_t kSmallMax = 250;
  uint64_t joined_segments = 0;
  stack_a_->SetSegmentHook([&](size_t bytes, bool rx) {
    if (rx) return;
    size_t payload = bytes - headers;
    if (payload > kSmallMax && payload < mss) ++joined_segments;
  });
  net_->SetLossRate(0.05, 11);
  Pcg32 sizes(5);
  for (int i = 0; i < 600; ++i) {
    size_t size = i % 10 == 9 ? (i % 20 == 9 ? mss + 1 : 3 * mss + 7)
                              : 1 + sizes.NextBounded(kSmallMax);
    Buffer message = kern::GenerateText(size, {uint64_t(i + 1)});
    client->Send(message.span());
    sent.Append(message.span());
  }
  sim_.Run();

  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);
  EXPECT_EQ(client->bytes_unacked(), 0u);
  EXPECT_GT(client->stats().retransmissions, 0u);
  EXPECT_GT(joined_segments, 0u)
      << "the loss pattern should force a retransmission across write ends";
}

TEST_F(TcpFixture, AbortWithQueuedMessagesIgnoresLateAcks) {
  Buffer received;
  stack_b_->Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
  });
  TcpConnection* client = stack_a_->Connect(2, 80);
  sim_.Run();
  ASSERT_TRUE(client->established());
  Buffer sent;
  for (uint64_t i = 1; i <= 4; ++i) {
    Buffer message = kern::GenerateText(10000, {i});
    client->Send(message.span());
    sent.Append(message.span());
  }
  ASSERT_GT(client->bytes_unacked(), 0u) << "segments must be in flight";
  uint64_t received_before = client->stats().segments_received;
  client->Abort();
  EXPECT_EQ(client->bytes_unacked(), 0u);
  const uint64_t cwnd_at_abort = client->cwnd();
  sim_.Run();  // in-flight segments land and the server ACKs them

  EXPECT_GT(client->stats().segments_received, received_before)
      << "late ACKs must reach the aborted connection";
  EXPECT_TRUE(client->closed());
  EXPECT_EQ(client->bytes_unacked(), 0u);
  EXPECT_EQ(client->stats().aborts, 1u);
  EXPECT_EQ(client->stats().retransmissions, 0u);
  EXPECT_EQ(client->cwnd(), cwnd_at_abort) << "late ACKs must not count";
  ASSERT_LE(received.size(), sent.size());
  EXPECT_TRUE(std::equal(received.span().begin(), received.span().end(),
                         sent.span().begin()))
      << "what did arrive is a prefix of the stream";
}


// Property sweep: exact delivery across loss rates and transfer sizes.
class TcpLossSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TcpLossSweep, ExactDeliveryUnderLoss) {
  auto [loss_pct, kilobytes] = GetParam();
  sim::Simulator sim;
  Network net(&sim);
  hw::NicPort nic_a(&sim, "a", hw::NicSpec{100e9, 2000, 4096});
  hw::NicPort nic_b(&sim, "b", hw::NicSpec{100e9, 2000, 4096});
  TcpStack sa(&sim, &net, 1), sb(&sim, &net, 2);
  net.Attach(1, &nic_a, [&](Packet p) { sa.OnPacket(std::move(p)); });
  net.Attach(2, &nic_b, [&](Packet p) { sb.OnPacket(std::move(p)); });
  net.SetLossRate(loss_pct / 100.0, uint64_t(loss_pct) * 131 + kilobytes);

  Buffer sent = kern::GenerateText(size_t(kilobytes) * 1024,
                                   {uint64_t(kilobytes), 4096, 0.9});
  Buffer received;
  bool closed = false;
  sb.Listen(80, [&](TcpConnection* c) {
    c->SetReceiveCallback([&](ByteSpan d) { received.Append(d); });
    c->SetCloseCallback([&] { closed = true; });
  });
  TcpConnection* client = sa.Connect(2, 80);
  client->Send(sent.span());
  client->Close();
  sim.Run();
  ASSERT_EQ(received.size(), sent.size())
      << "loss=" << loss_pct << "% size=" << kilobytes << "KB";
  EXPECT_EQ(received, sent);
  EXPECT_TRUE(closed);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpLossSweep,
    ::testing::Combine(::testing::Values(0, 1, 5, 10, 20),
                       ::testing::Values(4, 64, 512)));

// --------------------------------------------------------------------------
// RDMA.
// --------------------------------------------------------------------------

class RdmaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    nic_a_ = std::make_unique<hw::NicPort>(&sim_, "a",
                                           hw::NicSpec{100e9, 2000, 4096});
    nic_b_ = std::make_unique<hw::NicPort>(&sim_, "b",
                                           hw::NicSpec{100e9, 2000, 4096});
    net_ = std::make_unique<Network>(&sim_);
    rnic_a_ = std::make_unique<RdmaNic>(&sim_, net_.get(), 1);
    rnic_b_ = std::make_unique<RdmaNic>(&sim_, net_.get(), 2);
    net_->Attach(1, nic_a_.get(),
                 [this](Packet p) { rnic_a_->OnPacket(std::move(p)); });
    net_->Attach(2, nic_b_.get(),
                 [this](Packet p) { rnic_b_->OnPacket(std::move(p)); });
    qp_a_ = rnic_a_->CreateQueuePair();
    qp_b_ = rnic_b_->CreateQueuePair();
    ConnectQueuePairs(qp_a_, qp_b_);
  }

  sim::Simulator sim_;
  std::unique_ptr<hw::NicPort> nic_a_, nic_b_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<RdmaNic> rnic_a_, rnic_b_;
  QueuePair* qp_a_ = nullptr;
  QueuePair* qp_b_ = nullptr;
};

TEST_F(RdmaFixture, OneSidedWriteMovesBytes) {
  MrKey local = rnic_a_->RegisterMemory(4096);
  MrKey remote = rnic_b_->RegisterMemory(4096);
  auto mem = rnic_a_->Memory(local);
  ASSERT_TRUE(mem.ok());
  std::memcpy(mem->data(), "remote write!", 13);

  ASSERT_TRUE(qp_a_->PostWrite(11, local, 0, remote, 100, 13).ok());
  sim_.Run();

  RdmaCompletion c;
  ASSERT_TRUE(qp_a_->cq().Poll(&c));
  EXPECT_EQ(c.op, RdmaCompletion::OpType::kWrite);
  EXPECT_EQ(c.wr_id, 11u);
  EXPECT_TRUE(c.ok);
  auto remote_mem = rnic_b_->Memory(remote);
  ASSERT_TRUE(remote_mem.ok());
  EXPECT_EQ(std::memcmp(remote_mem->data() + 100, "remote write!", 13), 0);
  // The write executed without any remote CPU: only the NIC touched it.
  EXPECT_EQ(rnic_b_->ops_executed_remotely(), 1u);
}

TEST_F(RdmaFixture, OneSidedReadFetchesBytes) {
  MrKey local = rnic_a_->RegisterMemory(4096);
  MrKey remote = rnic_b_->RegisterMemory(4096);
  auto remote_mem = rnic_b_->Memory(remote);
  ASSERT_TRUE(remote_mem.ok());
  std::memcpy(remote_mem->data() + 50, "fetch me", 8);

  ASSERT_TRUE(qp_a_->PostRead(22, local, 200, remote, 50, 8).ok());
  sim_.Run();

  RdmaCompletion c;
  ASSERT_TRUE(qp_a_->cq().Poll(&c));
  EXPECT_EQ(c.op, RdmaCompletion::OpType::kRead);
  EXPECT_TRUE(c.ok);
  auto local_mem = rnic_a_->Memory(local);
  EXPECT_EQ(std::memcmp(local_mem->data() + 200, "fetch me", 8), 0);
}

TEST_F(RdmaFixture, TwoSidedSendRecv) {
  MrKey recv_mr = rnic_b_->RegisterMemory(4096);
  ASSERT_TRUE(qp_b_->PostRecv(33, recv_mr, 0, 4096).ok());
  Buffer msg("two-sided hello");
  ASSERT_TRUE(qp_a_->PostSend(44, msg.span()).ok());
  sim_.Run();

  RdmaCompletion send_c, recv_c;
  ASSERT_TRUE(qp_a_->cq().Poll(&send_c));
  EXPECT_EQ(send_c.op, RdmaCompletion::OpType::kSend);
  EXPECT_EQ(send_c.wr_id, 44u);
  ASSERT_TRUE(qp_b_->cq().Poll(&recv_c));
  EXPECT_EQ(recv_c.op, RdmaCompletion::OpType::kRecv);
  EXPECT_EQ(recv_c.wr_id, 33u);
  EXPECT_EQ(recv_c.bytes, msg.size());
  auto mem = rnic_b_->Memory(recv_mr);
  EXPECT_EQ(std::memcmp(mem->data(), msg.data(), msg.size()), 0);
}

TEST_F(RdmaFixture, SendBeforeRecvIsBuffered) {
  Buffer msg("eager send");
  ASSERT_TRUE(qp_a_->PostSend(1, msg.span()).ok());
  sim_.Run();  // arrives with no recv posted
  RdmaCompletion c;
  EXPECT_FALSE(qp_b_->cq().Poll(&c));

  MrKey recv_mr = rnic_b_->RegisterMemory(4096);
  ASSERT_TRUE(qp_b_->PostRecv(2, recv_mr, 0, 4096).ok());
  sim_.Run();
  ASSERT_TRUE(qp_b_->cq().Poll(&c));
  EXPECT_EQ(c.op, RdmaCompletion::OpType::kRecv);
  auto mem = rnic_b_->Memory(recv_mr);
  EXPECT_EQ(std::memcmp(mem->data(), msg.data(), msg.size()), 0);
}

TEST_F(RdmaFixture, BadRemoteKeyNacks) {
  MrKey local = rnic_a_->RegisterMemory(4096);
  ASSERT_TRUE(qp_a_->PostWrite(5, local, 0, /*remote_key=*/999, 0, 16).ok());
  sim_.Run();
  RdmaCompletion c;
  ASSERT_TRUE(qp_a_->cq().Poll(&c));
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.op, RdmaCompletion::OpType::kWrite);
}

TEST_F(RdmaFixture, OutOfBoundsRemoteWriteNacks) {
  MrKey local = rnic_a_->RegisterMemory(4096);
  MrKey remote = rnic_b_->RegisterMemory(128);
  ASSERT_TRUE(qp_a_->PostWrite(6, local, 0, remote, 120, 64).ok());
  sim_.Run();
  RdmaCompletion c;
  ASSERT_TRUE(qp_a_->cq().Poll(&c));
  EXPECT_FALSE(c.ok);
}

TEST_F(RdmaFixture, LocalBoundsCheckedAtPostTime) {
  MrKey local = rnic_a_->RegisterMemory(64);
  MrKey remote = rnic_b_->RegisterMemory(4096);
  EXPECT_TRUE(
      qp_a_->PostWrite(7, local, 32, remote, 0, 64).IsOutOfRange());
  EXPECT_TRUE(qp_a_->PostRead(8, local, 0, remote, 0, 128).IsOutOfRange());
  EXPECT_TRUE(
      qp_a_->PostRecv(9, local, 60, 32).IsOutOfRange());
}

TEST_F(RdmaFixture, UnconnectedQpRejectsPosts) {
  QueuePair* lone = rnic_a_->CreateQueuePair();
  MrKey local = rnic_a_->RegisterMemory(64);
  EXPECT_TRUE(lone->PostSend(1, ByteSpan()).IsUnavailable());
  EXPECT_TRUE(lone->PostWrite(1, local, 0, 1, 0, 8).IsUnavailable());
}

TEST_F(RdmaFixture, CompletionNotifyFires) {
  int notified = 0;
  qp_a_->cq().SetNotify([&] { ++notified; });
  MrKey local = rnic_a_->RegisterMemory(4096);
  MrKey remote = rnic_b_->RegisterMemory(4096);
  ASSERT_TRUE(qp_a_->PostWrite(1, local, 0, remote, 0, 8).ok());
  ASSERT_TRUE(qp_a_->PostWrite(2, local, 8, remote, 8, 8).ok());
  sim_.Run();
  EXPECT_EQ(notified, 2);
}

TEST_F(RdmaFixture, ManyOutstandingOpsAllComplete) {
  MrKey local = rnic_a_->RegisterMemory(1 << 20);
  MrKey remote = rnic_b_->RegisterMemory(1 << 20);
  constexpr int kOps = 500;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(
        qp_a_->PostWrite(i, local, i * 64, remote, i * 64, 64).ok());
  }
  sim_.Run();
  int completions = 0;
  RdmaCompletion c;
  while (qp_a_->cq().Poll(&c)) {
    EXPECT_TRUE(c.ok);
    ++completions;
  }
  EXPECT_EQ(completions, kOps);
}

}  // namespace
}  // namespace dpdpu::netsub
