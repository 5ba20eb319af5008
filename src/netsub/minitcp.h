// MiniTCP: a from-scratch miniature TCP over the simulated fabric —
// sequenced byte streams, cumulative ACKs, sliding receive window,
// Jacobson RTT estimation with exponential-backoff retransmission, slow
// start + AIMD congestion control, and fast retransmit on 3 dup ACKs.
//
// This is the "protocol execution" half the paper's Network Engine
// offloads to the DPU (Section 6). The receive window is externally
// adjustable so the NE can co-design flow control across host and DPU
// ("we must co-design TCP on the DPU and host-DPU communication to
// reflect the signals from host applications").

#ifndef DPDPU_NETSUB_MINITCP_H_
#define DPDPU_NETSUB_MINITCP_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "common/buffer.h"
#include "common/function.h"
#include "netsub/network.h"
#include "sim/simulator.h"

namespace dpdpu::netsub {

struct TcpConfig {
  /// Max payload per segment; default fits the 4 KB MTU minus headers.
  uint32_t mss = 4032;
  /// Advertised receive window.
  uint32_t rwnd_bytes = 1 << 20;
  uint32_t init_cwnd_segments = 10;
  sim::SimTime rto_min = 200 * sim::kMicrosecond;
  sim::SimTime rto_max = 100 * sim::kMillisecond;
  /// Connection abort cap: once retransmissions have made no forward
  /// progress (no new cumulative ACK) for this long, the connection
  /// aborts and fires the close callback, so platforms reap connections
  /// to dark nodes instead of retransmitting at rto_max forever. The RTO
  /// timer is clamped to the cap deadline during a stall, so the abort
  /// (and the re-steer it triggers in cluster clients) fires at exactly
  /// stall start + cap rather than overshooting by a backoff interval.
  /// 0 disables the cap.
  sim::SimTime max_retransmit_time = 10 * sim::kSecond;
};

struct TcpStats {
  uint64_t segments_sent = 0;
  uint64_t segments_received = 0;
  uint64_t bytes_delivered = 0;
  uint64_t retransmissions = 0;
  uint64_t fast_retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t aborts = 0;
};

class TcpStack;

/// One direction-agnostic TCP connection.
class TcpConnection {
 public:
  using ReceiveCallback = UniqueFunction<void(ByteSpan)>;
  using CloseCallback = UniqueFunction<void()>;

  /// Queues bytes for transmission (copies them once into the send queue).
  void Send(ByteSpan data);

  /// Sends FIN once the send buffer drains; peer's close callback fires.
  void Close();

  /// Hard reset: drops all buffered state, moves to kClosed, and fires
  /// the close callback. Used by the retransmission cap and available to
  /// platforms reaping connections to dead nodes.
  void Abort();

  /// In-order payload delivery.
  void SetReceiveCallback(ReceiveCallback cb) { on_receive_ = std::move(cb); }
  void SetCloseCallback(CloseCallback cb) { on_close_ = std::move(cb); }

  /// Flow-control co-design hook: the embedding layer (NE) shrinks the
  /// advertised window when the host-side ring backs up.
  void SetReceiveWindow(uint32_t bytes) {
    // Commutative: shrink/restore are hysteresis transitions; same-tick
    // order only shifts which window value rides the next ACK out.
    DPDPU_SIM_ACCESS(race_tag_, "TcpConnection", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    rwnd_advertised_ = bytes;
  }

  bool established() const { return state_ == State::kEstablished; }
  bool closed() const { return state_ == State::kClosed; }
  uint64_t cwnd() const { return cwnd_; }
  uint64_t bytes_unacked() const { return snd_nxt_ - snd_una_; }
  const TcpStats& stats() const { return stats_; }
  NodeId remote_node() const { return remote_node_; }

 private:
  friend class TcpStack;

  enum class State : uint8_t {
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,
    kClosed,
  };

  /// One app write: sequence range [end_seq - data.size(), end_seq).
  struct SendMessage {
    uint64_t end_seq;
    Buffer data;
  };

  TcpConnection(TcpStack* stack, NodeId remote_node, uint16_t local_port,
                uint16_t remote_port, const TcpConfig& config);

  void OnSegment(uint64_t seq, uint64_t ack, uint8_t flags, uint32_t wnd,
                 ByteSpan payload);
  void HandleAck(uint64_t ack, bool pure_ack);
  void Pump();
  void SendSegment(uint64_t seq, size_t len, bool retransmission);
  /// The queued message holding sequence number `seq`.
  std::deque<SendMessage>::const_iterator MessageHolding(uint64_t seq) const;
  void SendControl(uint8_t flags, uint64_t seq);
  void SendAck();
  void ArmRtoTimer();
  void OnRtoFire(uint64_t generation);
  void EnterRecovery(bool timeout);
  void DeliverInOrder();
  void UpdateRtt(sim::SimTime sample);

  TcpStack* stack_;
  NodeId remote_node_;
  uint16_t local_port_;
  uint16_t remote_port_;
  TcpConfig config_;
  State state_ = State::kSynSent;

  // Send side. Sequence space: SYN consumes 1, data bytes follow.
  /// Unacked app writes in sequence order, covering [snd_una_,
  /// write_seq_) (the front one may be partly acked). Send copies each
  /// write in once; a segment's payload is a span of its message, handed
  /// to Transmit without an intermediate copy; HandleAck frees a message
  /// as soon as it is fully acked.
  std::deque<SendMessage> send_queue_;
  /// Pump never packs bytes from two writes into one segment and never
  /// cuts a segment at the window edge, so the segment-size sequence is
  /// a pure function of the message sizes — same-timestamp ordering of
  /// app writes vs ACK arrivals moves *when* segments leave, never how
  /// many. Pump frames at the first write end above `framed_to_`, the
  /// highest snd_nxt_ it has framed from. After a go-back-N rewind,
  /// write ends at or below it are no longer cut points, so re-sent
  /// segments (like the immediate RTO and fast retransmits, which cut at
  /// MSS only) may join the tails of several writes.
  uint64_t framed_to_ = 0;
  uint64_t snd_una_ = 0;
  uint64_t snd_nxt_ = 0;
  uint64_t snd_max_ = 0;  // highest sequence ever sent (go-back-N rewinds
                          // snd_nxt_, but cumulative ACKs up to snd_max_
                          // remain valid)
  uint64_t write_seq_ = 0;
  uint64_t cwnd_ = 0;
  uint64_t ssthresh_ = 1 << 30;
  uint32_t peer_wnd_ = 1 << 20;
  uint32_t dup_acks_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;

  // RTT estimation (Jacobson/Karels).
  bool rtt_valid_ = false;
  double srtt_ns_ = 0;
  double rttvar_ns_ = 0;
  sim::SimTime rto_ = 0;
  uint64_t rto_generation_ = 0;
  bool rto_armed_ = false;
  // Retransmission-cap bookkeeping: virtual time of the first timeout of
  // the current stall (cleared whenever a cumulative ACK advances).
  bool stalled_ = false;
  sim::SimTime stall_started_at_ = 0;
  // Timestamp of the segment being timed (Karn's rule: one sample at a
  // time, never from retransmissions).
  uint64_t timed_seq_ = 0;
  sim::SimTime timed_sent_at_ = 0;
  bool timing_ = false;

  // Receive side. Out-of-order segments remember the event that
  // buffered them (simrace: buffer-before-deliver edge — the segment is
  // stashed by one OnSegment event and handed to the application by a
  // later one, which must be causally after it).
  struct OooSegment {
    Buffer data;
    sim::HbToken buffered;
  };
  uint64_t rcv_nxt_ = 0;
  std::map<uint64_t, OooSegment> out_of_order_;
  uint32_t rwnd_advertised_;
  bool peer_fin_received_ = false;
  uint64_t peer_fin_seq_ = 0;

  ReceiveCallback on_receive_;
  CloseCallback on_close_;
  TcpStats stats_;
  /// simrace identity: all connection state (sequence space, congestion
  /// window, receive reassembly) is one object. The connection is a
  /// message-processing state machine: Send/Close/OnSegment interleaving
  /// in either order at one timestamp are all legal protocol schedules
  /// producing the same byte stream, so those are commutative writes.
  /// Abort() is a plain write — its order against a same-time Send
  /// decides whether buffered data is silently dropped.
  sim::RaceTag race_tag_;
};

/// Per-node TCP endpoint: demultiplexes connections, owns their memory.
class TcpStack {
 public:
  using AcceptCallback = UniqueFunction<void(TcpConnection*)>;

  TcpStack(sim::Simulator* sim, Network* network, NodeId node,
           TcpConfig config = {});

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Accepts connections on `port`.
  void Listen(uint16_t port, AcceptCallback on_accept);

  /// Opens a connection; usable immediately (sends queue until the
  /// handshake completes).
  TcpConnection* Connect(NodeId remote, uint16_t port);

  /// Segment-level instrumentation: fires for every segment sent (`rx`
  /// false) or received (`rx` true) with its wire size. The Network
  /// Engine charges CPU-cost models here.
  using SegmentHook = UniqueFunction<void(size_t wire_bytes, bool rx)>;
  void SetSegmentHook(SegmentHook hook) { segment_hook_ = std::move(hook); }

  NodeId node() const { return node_; }
  sim::Simulator* simulator() const { return sim_; }
  const TcpConfig& config() const { return config_; }

  /// Entry point for TCP packets from the Network (wired by the owner).
  void OnPacket(Packet packet);

 private:
  friend class TcpConnection;

  struct ConnKey {
    NodeId remote_node;
    uint16_t remote_port;
    uint16_t local_port;
    auto operator<=>(const ConnKey&) const = default;
  };

  void Transmit(TcpConnection* conn, uint8_t flags, uint64_t seq,
                uint64_t ack, uint32_t wnd, ByteSpan payload);

  sim::Simulator* sim_;
  Network* network_;
  NodeId node_;
  TcpConfig config_;
  std::map<uint16_t, AcceptCallback> listeners_;
  std::map<ConnKey, std::unique_ptr<TcpConnection>> connections_;
  uint16_t next_ephemeral_port_ = 49152;
  SegmentHook segment_hook_;
};

}  // namespace dpdpu::netsub

#endif  // DPDPU_NETSUB_MINITCP_H_
