#include "netsub/minitcp.h"

#include <algorithm>

#include "common/logging.h"

namespace dpdpu::netsub {

namespace {

constexpr uint8_t kFlagSyn = 1;
constexpr uint8_t kFlagAck = 2;
constexpr uint8_t kFlagFin = 4;

constexpr sim::SimTime kInitialRto = 1 * sim::kMillisecond;

struct SegmentHeader {
  uint16_t src_port;
  uint16_t dst_port;
  uint64_t seq;
  uint64_t ack;
  uint8_t flags;
  uint32_t wnd;
  uint32_t len;
};

void EncodeHeader(const SegmentHeader& h, Buffer* out) {
  out->AppendU16(h.src_port);
  out->AppendU16(h.dst_port);
  out->AppendU64(h.seq);
  out->AppendU64(h.ack);
  out->AppendU8(h.flags);
  out->AppendU32(h.wnd);
  out->AppendU32(h.len);
}

constexpr size_t kSegmentHeaderBytes = 2 + 2 + 8 + 8 + 1 + 4 + 4;

bool DecodeHeader(ByteReader& r, SegmentHeader* h) {
  return r.ReadU16(&h->src_port) && r.ReadU16(&h->dst_port) &&
         r.ReadU64(&h->seq) && r.ReadU64(&h->ack) && r.ReadU8(&h->flags) &&
         r.ReadU32(&h->wnd) && r.ReadU32(&h->len);
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpConnection.
// ---------------------------------------------------------------------------

TcpConnection::TcpConnection(TcpStack* stack, NodeId remote_node,
                             uint16_t local_port, uint16_t remote_port,
                             const TcpConfig& config)
    : stack_(stack),
      remote_node_(remote_node),
      local_port_(local_port),
      remote_port_(remote_port),
      config_(config),
      rwnd_advertised_(config.rwnd_bytes) {
  cwnd_ = uint64_t(config_.init_cwnd_segments) * config_.mss;
  rto_ = kInitialRto;
  // Sequence space: the SYN occupies [0, 1); data bytes start at seq 1.
  snd_una_ = 0;
  snd_nxt_ = 1;
  snd_max_ = 1;
  write_seq_ = 1;
}

void TcpConnection::Send(ByteSpan data) {
  // Commutative: the connection is a message-processing state machine —
  // app writes and segment arrivals interleaving in either order at one
  // timestamp yield protocol-equivalent streams (the byte sequence and
  // cumulative-ACK invariants are order-free). Only Abort() is a plain
  // write: its relative order decides whether buffered bytes are lost.
  DPDPU_SIM_ACCESS(race_tag_, "TcpConnection", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  if (state_ == State::kClosed) return;  // aborted/closed: drop writes
  if (data.empty()) return;
  write_seq_ += data.size();
  send_queue_.push_back(
      SendMessage{write_seq_, Buffer(data.data(), data.size())});
  if (state_ == State::kEstablished) Pump();
}

void TcpConnection::Close() {
  DPDPU_SIM_ACCESS(race_tag_, "TcpConnection", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  fin_queued_ = true;
  if (state_ == State::kEstablished) Pump();
}

void TcpConnection::Pump() {
  if (state_ != State::kEstablished && state_ != State::kFinWait) return;
  uint64_t wnd = std::min<uint64_t>(cwnd_, peer_wnd_);
  while (snd_nxt_ < write_seq_ && (snd_nxt_ - snd_una_) < wnd) {
    uint64_t remaining_wnd = wnd - (snd_nxt_ - snd_una_);
    // Segment boundaries are message-framed and MSS-quantized: cut at
    // min(mss, end of the current app write), and hold a segment that
    // does not fit the window whole instead of sending a fragment.
    // Fragmenting at the window edge would make segment boundaries (and
    // per-segment CPU charges) depend on how much window happened to be
    // open — i.e. on same-timestamp tie order between app writes and
    // ACK arrivals. cwnd and the advertised window never drop below one
    // MSS, so an empty pipe can always fit the next segment.
    framed_to_ = std::max(framed_to_, snd_nxt_);
    uint64_t boundary = MessageHolding(framed_to_)->end_seq;
    size_t len = static_cast<size_t>(
        std::min<uint64_t>(uint64_t(config_.mss), boundary - snd_nxt_));
    if (len == 0 || len > remaining_wnd) break;
    SendSegment(snd_nxt_, len, /*retransmission=*/false);
    snd_nxt_ += len;
    if (snd_nxt_ > snd_max_) snd_max_ = snd_nxt_;
  }
  // FIN once all data is out (and within window).
  if (fin_queued_ && !fin_sent_ && snd_nxt_ == write_seq_) {
    SendControl(kFlagFin | kFlagAck, write_seq_);
    fin_sent_ = true;
    snd_nxt_ = write_seq_ + 1;
    if (snd_nxt_ > snd_max_) snd_max_ = snd_nxt_;
    state_ = State::kFinWait;
  }
  ArmRtoTimer();
}

auto TcpConnection::MessageHolding(uint64_t seq) const
    -> std::deque<SendMessage>::const_iterator {
  auto it = std::upper_bound(
      send_queue_.begin(), send_queue_.end(), seq,
      [](uint64_t s, const SendMessage& m) { return s < m.end_seq; });
  DPDPU_CHECK(it != send_queue_.end());
  DPDPU_CHECK(it->end_seq - it->data.size() <= seq);
  return it;
}

void TcpConnection::SendSegment(uint64_t seq, size_t len,
                                bool retransmission) {
  // Data bytes [seq, seq+len) live in the unacked messages of
  // send_queue_. A segment Pump frames lies within one message and goes
  // out as a span of it; only a retransmission after a rewind can join
  // several message tails, and that rare case is gathered into a copy.
  DPDPU_CHECK(seq >= snd_una_ && seq + len <= write_seq_);
  auto it = MessageHolding(seq);
  ByteSpan payload = it->data.span().subspan(
      static_cast<size_t>(seq - (it->end_seq - it->data.size())));
  Buffer joined;
  if (payload.size() >= len) {
    payload = payload.first(len);
  } else {
    joined.reserve(len);
    joined.Append(payload);
    while (joined.size() < len) {
      ++it;
      joined.Append(it->data.span().first(
          std::min(it->data.size(), len - joined.size())));
    }
    payload = joined.span();
  }
  if (retransmission) {
    ++stats_.retransmissions;
    timing_ = false;  // Karn's rule
  } else if (!timing_) {
    timing_ = true;
    timed_seq_ = seq + len;
    timed_sent_at_ = stack_->simulator()->now();
  }
  stack_->Transmit(this, kFlagAck, seq, rcv_nxt_, rwnd_advertised_,
                   payload);
  ++stats_.segments_sent;
}

void TcpConnection::SendControl(uint8_t flags, uint64_t seq) {
  stack_->Transmit(this, flags, seq, rcv_nxt_, rwnd_advertised_, ByteSpan());
  ++stats_.segments_sent;
}

void TcpConnection::SendAck() { SendControl(kFlagAck, snd_nxt_); }

void TcpConnection::ArmRtoTimer() {
  bool outstanding = snd_nxt_ > snd_una_ || state_ == State::kSynSent ||
                     state_ == State::kSynReceived;
  if (!outstanding || rto_armed_) return;
  rto_armed_ = true;
  uint64_t generation = ++rto_generation_;
  sim::SimTime delay = rto_;
  if (stalled_ && config_.max_retransmit_time > 0) {
    // Deadline clamp: exponential backoff would overshoot the abort cap
    // by up to a full RTO interval, leaving the close callback (which
    // cluster clients use to re-steer) to fire long after
    // max_retransmit_time. Fire the timer at the cap deadline instead so
    // Abort() lands at exactly stall_start + max_retransmit_time.
    sim::SimTime deadline = stall_started_at_ + config_.max_retransmit_time;
    sim::SimTime now = stack_->simulator()->now();
    delay = std::min(delay, deadline > now ? deadline - now : 1);
  }
  // Connections are owned by the stack's map for the stack's lifetime
  // (never erased); the generation guard voids stale timers.
  // simlint:allow(R6): stack-owned connection, generation-guarded timer
  stack_->simulator()->Schedule(delay,
                                [this, generation] { OnRtoFire(generation); });
}

void TcpConnection::Abort() {
  DPDPU_SIM_ACCESS(race_tag_, "TcpConnection", /*key=*/0,
                   sim::AccessKind::kWrite);
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  ++stats_.aborts;
  send_queue_.clear();
  out_of_order_.clear();
  // Collapse the send window so late ACKs for reaped bytes are ignored
  // (HandleAck drops anything above snd_max_) and bytes_unacked() is 0.
  snd_nxt_ = snd_una_;
  snd_max_ = snd_una_;
  write_seq_ = snd_una_;
  // Invalidate any armed RTO so the pending event no-ops at fire time.
  ++rto_generation_;
  rto_armed_ = false;
  if (on_close_) on_close_();
}

void TcpConnection::OnRtoFire(uint64_t generation) {
  // The RTO timer is the fourth entry point into the connection state
  // machine (with Send/Close/OnSegment); simscope flagged it as the one
  // unannotated path. Commutative like the others: a timeout firing
  // beside a same-timestamp segment arrival resolves either way to a
  // protocol-equivalent stream (the generation guard voids stale fires,
  // and go-back-N re-sends are idempotent).
  DPDPU_SIM_ACCESS(race_tag_, "TcpConnection", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  if (generation != rto_generation_ || state_ == State::kClosed) return;
  rto_armed_ = false;
  bool outstanding = snd_nxt_ > snd_una_ || state_ == State::kSynSent ||
                     state_ == State::kSynReceived;
  if (!outstanding) return;

  ++stats_.timeouts;
  // Retransmission cap: abort once a stall (no cumulative-ACK progress)
  // has lasted max_retransmit_time — the peer is unreachable or dark.
  sim::SimTime now = stack_->simulator()->now();
  if (!stalled_) {
    stalled_ = true;
    stall_started_at_ = now;
  } else if (config_.max_retransmit_time > 0 &&
             now - stall_started_at_ >= config_.max_retransmit_time) {
    Abort();
    return;
  }
  EnterRecovery(/*timeout=*/true);
  rto_ = std::min(rto_ * 2, config_.rto_max);

  if (state_ == State::kSynSent) {
    SendControl(kFlagSyn, 0);
  } else if (state_ == State::kSynReceived) {
    SendControl(kFlagSyn | kFlagAck, 0);
  } else {
    // Go-back-N: rewind and let Pump re-send from the first unacked byte.
    snd_nxt_ = std::max(snd_una_, uint64_t(1));
    if (fin_sent_) {
      fin_sent_ = false;  // FIN will be re-sent after data drains
      if (state_ == State::kFinWait) state_ = State::kEstablished;
    }
    timing_ = false;
    uint64_t end = std::min<uint64_t>(write_seq_, snd_nxt_ + config_.mss);
    if (end > snd_nxt_) {
      // Retransmit one segment immediately; the rest follows ACK clocking.
      SendSegment(snd_nxt_, static_cast<size_t>(end - snd_nxt_),
                  /*retransmission=*/true);
      snd_nxt_ = end;
      if (snd_nxt_ > snd_max_) snd_max_ = snd_nxt_;
    }
    Pump();
  }
  ArmRtoTimer();
}

void TcpConnection::EnterRecovery(bool timeout) {
  uint64_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max<uint64_t>(flight / 2, 2ull * config_.mss);
  cwnd_ = timeout ? config_.mss : ssthresh_;
  dup_acks_ = 0;
}

void TcpConnection::UpdateRtt(sim::SimTime sample) {
  double s = double(sample);
  if (!rtt_valid_) {
    srtt_ns_ = s;
    rttvar_ns_ = s / 2;
    rtt_valid_ = true;
  } else {
    double err = s - srtt_ns_;
    srtt_ns_ += 0.125 * err;
    rttvar_ns_ += 0.25 * (std::abs(err) - rttvar_ns_);
  }
  sim::SimTime rto =
      static_cast<sim::SimTime>(srtt_ns_ + std::max(4 * rttvar_ns_, 1000.0));
  rto_ = std::clamp(rto, config_.rto_min, config_.rto_max);
}

void TcpConnection::HandleAck(uint64_t ack, bool pure_ack) {
  if (ack > snd_max_) return;  // acks data we never sent; ignore
  if (ack > snd_una_) {
    dup_acks_ = 0;
    stalled_ = false;  // forward progress resets the retransmission cap
    // Congestion control.
    if (cwnd_ < ssthresh_) {
      cwnd_ += config_.mss;  // slow start
    } else {
      cwnd_ += std::max<uint64_t>(1, uint64_t(config_.mss) * config_.mss /
                                         std::max<uint64_t>(cwnd_, 1));
    }
    // RTT sample (Karn-safe).
    if (timing_ && ack >= timed_seq_) {
      UpdateRtt(stack_->simulator()->now() - timed_sent_at_);
      timing_ = false;
    }
    // Free fully acked messages; a partly acked one stays at the front.
    while (!send_queue_.empty() && send_queue_.front().end_seq <= ack) {
      send_queue_.pop_front();
    }
    snd_una_ = ack;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    // FIN fully acked?
    if (fin_sent_ && ack == write_seq_ + 1 && state_ == State::kFinWait) {
      state_ = State::kClosed;
    }
    // Re-arm the timer for remaining in-flight data.
    rto_armed_ = false;
    ++rto_generation_;
    ArmRtoTimer();
  } else if (pure_ack && ack == snd_una_ && snd_nxt_ > snd_una_) {
    // RFC 5681 duplicate-ACK accounting: only data-free segments count.
    // A peer interleaving request ACKs with response data repeats the
    // same ack number on every data segment; counting those as dups
    // fired spurious fast retransmits whose number depended on how app
    // writes and arrivals happened to interleave.
    if (++dup_acks_ == 3) {
      ++stats_.fast_retransmits;
      EnterRecovery(/*timeout=*/false);
      // Retransmit the first unacked segment.
      uint64_t start = std::max(snd_una_, uint64_t(1));
      uint64_t end = std::min<uint64_t>(write_seq_, start + config_.mss);
      if (end > start) {
        SendSegment(start, static_cast<size_t>(end - start),
                    /*retransmission=*/true);
      } else if (fin_sent_) {
        SendControl(kFlagFin | kFlagAck, write_seq_);
      }
    }
  }
}

void TcpConnection::DeliverInOrder() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
      uint64_t seq = it->first;
      const Buffer& data = it->second.data;
      if (seq + data.size() <= rcv_nxt_) {
        it = out_of_order_.erase(it);  // fully duplicate
        progressed = true;
      } else if (seq <= rcv_nxt_) {
        // Buffer-before-deliver: the event that stashed this segment
        // happens before this delivering event.
        if (sim::RaceChecker* rc = sim::RaceChecker::Current()) {
          rc->Consume(it->second.buffered);
        }
        size_t skip = static_cast<size_t>(rcv_nxt_ - seq);
        ByteSpan fresh = data.span().subspan(skip);
        rcv_nxt_ += fresh.size();
        stats_.bytes_delivered += fresh.size();
        if (on_receive_) on_receive_(fresh);
        it = out_of_order_.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
  }
  if (peer_fin_received_ && peer_fin_seq_ == rcv_nxt_) {
    rcv_nxt_ = peer_fin_seq_ + 1;
    peer_fin_received_ = false;
    if (on_close_) on_close_();
  }
}

void TcpConnection::OnSegment(uint64_t seq, uint64_t ack, uint8_t flags,
                              uint32_t wnd, ByteSpan payload) {
  DPDPU_SIM_ACCESS(race_tag_, "TcpConnection", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  ++stats_.segments_received;

  // Handshake transitions.
  if (flags & kFlagSyn) {
    if (flags & kFlagAck) {
      // SYN-ACK (active side).
      if (state_ == State::kSynSent) {
        rcv_nxt_ = seq + 1;
        peer_wnd_ = wnd;
        HandleAck(ack, /*pure_ack=*/false);
        state_ = State::kEstablished;
        SendAck();
        Pump();
      } else {
        SendAck();  // duplicate SYN-ACK
      }
    } else {
      // SYN (passive side); TcpStack created us in kSynReceived.
      rcv_nxt_ = seq + 1;
      peer_wnd_ = wnd;
      if (state_ == State::kSynSent || state_ == State::kSynReceived) {
        state_ = State::kSynReceived;
        SendControl(kFlagSyn | kFlagAck, 0);
        ArmRtoTimer();
      } else {
        SendAck();  // duplicate SYN after establishment
      }
    }
    return;
  }

  if (flags & kFlagAck) {
    peer_wnd_ = wnd;
    if (state_ == State::kSynReceived && ack >= 1) {
      state_ = State::kEstablished;
    }
    HandleAck(ack, /*pure_ack=*/payload.empty() && !(flags & kFlagFin));
    if (state_ == State::kEstablished || state_ == State::kFinWait) Pump();
  }

  bool advanced = false;
  if (!payload.empty()) {
    if (seq + payload.size() > rcv_nxt_) {
      if (seq <= rcv_nxt_) {
        size_t skip = static_cast<size_t>(rcv_nxt_ - seq);
        ByteSpan fresh = payload.subspan(skip);
        rcv_nxt_ += fresh.size();
        stats_.bytes_delivered += fresh.size();
        if (on_receive_) on_receive_(fresh);
        DeliverInOrder();
      } else {
        sim::HbToken buffered;
        if (sim::RaceChecker* rc = sim::RaceChecker::Current()) {
          buffered = rc->Publish();
        }
        out_of_order_.emplace(
            seq, OooSegment{Buffer(payload.data(), payload.size()), buffered});
      }
    }
    advanced = true;
  }

  if (flags & kFlagFin) {
    peer_fin_received_ = true;
    peer_fin_seq_ = seq;
    DeliverInOrder();
    advanced = true;
  }

  if (advanced) SendAck();
}

// ---------------------------------------------------------------------------
// TcpStack.
// ---------------------------------------------------------------------------

TcpStack::TcpStack(sim::Simulator* sim, Network* network, NodeId node,
                   TcpConfig config)
    : sim_(sim), network_(network), node_(node), config_(config) {}

void TcpStack::Listen(uint16_t port, AcceptCallback on_accept) {
  listeners_[port] = std::move(on_accept);
}

TcpConnection* TcpStack::Connect(NodeId remote, uint16_t port) {
  uint16_t local_port = next_ephemeral_port_++;
  auto conn = std::unique_ptr<TcpConnection>(
      new TcpConnection(this, remote, local_port, port, config_));
  TcpConnection* raw = conn.get();
  connections_[ConnKey{remote, port, local_port}] = std::move(conn);
  raw->state_ = TcpConnection::State::kSynSent;
  raw->SendControl(kFlagSyn, 0);
  raw->ArmRtoTimer();
  return raw;
}

void TcpStack::Transmit(TcpConnection* conn, uint8_t flags, uint64_t seq,
                        uint64_t ack, uint32_t wnd, ByteSpan payload) {
  SegmentHeader h;
  h.src_port = conn->local_port_;
  h.dst_port = conn->remote_port_;
  h.seq = seq;
  h.ack = ack;
  h.flags = flags;
  h.wnd = wnd;
  h.len = static_cast<uint32_t>(payload.size());

  Packet packet;
  packet.src = node_;
  packet.dst = conn->remote_node_;
  packet.kind = kPacketKindTcp;
  packet.payload.reserve(kSegmentHeaderBytes + payload.size());
  EncodeHeader(h, &packet.payload);
  packet.payload.Append(payload);
  if (segment_hook_) segment_hook_(packet.wire_size(), /*rx=*/false);
  network_->Send(std::move(packet));
}

void TcpStack::OnPacket(Packet packet) {
  ByteReader reader(packet.payload.span());
  SegmentHeader h;
  if (!DecodeHeader(reader, &h)) return;  // malformed; drop
  ByteSpan payload;
  if (!reader.ReadSpan(h.len, &payload)) return;
  if (segment_hook_) segment_hook_(packet.wire_size(), /*rx=*/true);

  ConnKey key{packet.src, h.src_port, h.dst_port};
  auto it = connections_.find(key);
  if (it == connections_.end()) {
    // New connection: must be a SYN to a listening port.
    if (!(h.flags & kFlagSyn) || (h.flags & kFlagAck)) return;
    auto listener = listeners_.find(h.dst_port);
    if (listener == listeners_.end()) return;
    auto conn = std::unique_ptr<TcpConnection>(new TcpConnection(
        this, packet.src, h.dst_port, h.src_port, config_));
    conn->state_ = TcpConnection::State::kSynReceived;
    TcpConnection* raw = conn.get();
    it = connections_.emplace(key, std::move(conn)).first;
    listener->second(raw);
  }
  it->second->OnSegment(h.seq, h.ack, h.flags, h.wnd, payload);
}

}  // namespace dpdpu::netsub
