#include "netsub/network.h"

#include <utility>

#include "common/function.h"
#include "common/logging.h"

namespace dpdpu::netsub {

void Network::Attach(NodeId node, hw::NicPort* nic, RxHandler handler) {
  DPDPU_CHECK(endpoints_.count(node) == 0);
  endpoints_[node] = Endpoint{nic, std::move(handler)};
}

void Network::Send(Packet packet) {
  auto src_it = endpoints_.find(packet.src);
  auto dst_it = endpoints_.find(packet.dst);
  if (src_it == endpoints_.end() || dst_it == endpoints_.end()) {
    ++dropped_;
    return;
  }
  if (!IsUp(packet.src) || !IsUp(packet.dst)) {
    ++dropped_;
    ++dropped_node_down_;
    return;
  }
  bool lost = loss_rate_ > 0.0 && loss_rng_.NextBool(loss_rate_);
  // Drop-placement choice point (ExploreDrops): decided at send time so
  // the decision sequence is a pure function of the schedule.
  if (explore_drop_window_ > 0 && packet.kind == explore_drop_kind_) {
    --explore_drop_window_;
    if (sim_->Choose("net.drop_frame", explore_drop_index_++, 2) == 1) {
      lost = true;
    }
  }
  // Serialize on the sender's NIC; deliver at the far end unless lost.
  // A lost frame still occupies the wire and is counted as dropped when
  // it would have landed. The delivery closure captures only `this` and
  // the packet so it fits UniqueFunction's inline storage.
  static_assert(sizeof(void*) + sizeof(Packet) <=
                UniqueFunction<void()>::kInlineSize);
  hw::NicPort* nic = src_it->second.nic;
  size_t wire = packet.wire_size();
  if (lost) {
    nic->Transmit(wire, [this] { ++dropped_; });
    return;
  }
  nic->Transmit(wire, [this, packet = std::move(packet)]() mutable {
    auto it = endpoints_.find(packet.dst);
    if (it == endpoints_.end()) {
      ++dropped_;
      return;
    }
    // The destination may have gone dark while the frame was in flight;
    // it is lost at the dead NIC.
    if (!IsUp(packet.dst)) {
      ++dropped_;
      ++dropped_node_down_;
      return;
    }
    size_t bytes = packet.wire_size();
    ++delivered_;
    bytes_delivered_ += bytes;
    it->second.rx_bytes += bytes;
    if (sim::RaceChecker::Current() != nullptr) {
      uint64_t link = (uint64_t(packet.src) << 32) | packet.dst;
      link_chains_[link].Step();
    }
    it->second.handler(std::move(packet));
  });
}

void Network::SetNodeUp(NodeId node, bool up) {
  if (up) {
    down_.erase(node);
  } else {
    down_[node] = true;
  }
}

uint64_t Network::bytes_delivered_to(NodeId node) const {
  auto it = endpoints_.find(node);
  return it == endpoints_.end() ? 0 : it->second.rx_bytes;
}

}  // namespace dpdpu::netsub
