// The datacenter fabric: connects node NICs, serializes frames at link
// bandwidth, applies propagation delay, and optionally drops frames with
// a deterministic seeded loss process (for protocol robustness tests).

#ifndef DPDPU_NETSUB_NETWORK_H_
#define DPDPU_NETSUB_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/buffer.h"
#include "common/function.h"
#include "common/rng.h"
#include "hw/link.h"
#include "sim/simulator.h"

namespace dpdpu::netsub {

using NodeId = uint32_t;

/// One frame on the wire. `kind` demultiplexes protocols at the receiver
/// (TCP segment, RDMA op, raw datagram).
struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  uint16_t kind = 0;
  Buffer payload;

  size_t wire_size() const { return payload.size() + kHeaderBytes; }
  static constexpr size_t kHeaderBytes = 64;  // eth+ip+transport headers
};

/// Protocol identifiers for Packet::kind.
inline constexpr uint16_t kPacketKindDatagram = 0;
inline constexpr uint16_t kPacketKindTcp = 1;
inline constexpr uint16_t kPacketKindRdma = 2;

/// Star-topology fabric. Each node registers its transmit NIC and an rx
/// handler; Send() serializes on the sender's NIC, then delivers (or
/// drops).
class Network {
 public:
  using RxHandler = UniqueFunction<void(Packet)>;

  explicit Network(sim::Simulator* sim) : sim_(sim), loss_rng_(1) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attaches a node. `nic` must outlive the Network.
  void Attach(NodeId node, hw::NicPort* nic, RxHandler handler);

  /// True when `node` is attached.
  bool Has(NodeId node) const { return endpoints_.count(node) > 0; }

  /// Sends a packet; silently drops on unknown destination or loss.
  void Send(Packet packet);

  /// Fraction of frames dropped after serialization, deterministic in the
  /// seed. Applies to all flows (protocol tests re-seed per scenario).
  void SetLossRate(double rate, uint64_t seed = 1) {
    loss_rate_ = rate;
    loss_rng_ = Pcg32(seed);
  }

  /// Exploration: exposes the placement of frame drops as simulator
  /// choice points. Each of the next `window` frames of the given kind
  /// asks Simulator::Choose("net.drop_frame", <frame index>, 2);
  /// alternative 1 drops the frame after serialization, exactly where
  /// the seeded loss process would. With no chooser installed every
  /// choice is 0, so arming the window never perturbs a normal run.
  /// simex enumerates the 2^window placements (budget-bounded), which
  /// is how MiniTCP retransmit/abort timing gets explored.
  void ExploreDrops(uint32_t window, uint16_t kind = kPacketKindTcp) {
    explore_drop_window_ = window;
    explore_drop_kind_ = kind;
  }

  /// Administrative liveness: a down node's frames (both directions) are
  /// dropped at the fabric, modeling a machine that went dark. Nodes start
  /// up; the cluster layer flips this for hard failure injection.
  void SetNodeUp(NodeId node, bool up);
  bool IsUp(NodeId node) const { return down_.count(node) == 0; }

  uint64_t packets_delivered() const { return delivered_; }
  uint64_t packets_dropped() const { return dropped_; }
  uint64_t packets_dropped_node_down() const { return dropped_node_down_; }

  /// Payload+header bytes delivered to `node` (fleet fabric accounting).
  uint64_t bytes_delivered_to(NodeId node) const;
  uint64_t total_bytes_delivered() const { return bytes_delivered_; }

 private:
  struct Endpoint {
    hw::NicPort* nic;
    RxHandler handler;
    uint64_t rx_bytes = 0;
  };

  sim::Simulator* sim_;
  std::map<NodeId, Endpoint> endpoints_;
  std::map<NodeId, bool> down_;  // presence = down
  /// simrace: frames on one (src,dst) link deliver in serialization
  /// order; the chain turns that guarantee into happens-before edges
  /// between consecutive delivery events. Keyed (src<<32)|dst; only
  /// populated while a race checker is active.
  std::map<uint64_t, sim::HbChain> link_chains_;
  uint32_t explore_drop_window_ = 0;
  uint16_t explore_drop_kind_ = kPacketKindTcp;
  uint64_t explore_drop_index_ = 0;
  double loss_rate_ = 0.0;
  Pcg32 loss_rng_;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t dropped_node_down_ = 0;
  uint64_t bytes_delivered_ = 0;
};

}  // namespace dpdpu::netsub

#endif  // DPDPU_NETSUB_NETWORK_H_
