// DFI-style data flows (paper Section 6: "DFI's interface and its RDMA
// execution can be decoupled such that data systems running on the host
// still send records to remote machines using the flow interface").
// Records are length-framed, batched on the host side, and carried over
// an NE socket — so the host pays ring-submit costs while the DPU runs
// the protocol. The framing (SendFrame/FrameReader) is also the remote
// storage RPC's.

#ifndef DPDPU_CORE_NETWORK_FLOW_H_
#define DPDPU_CORE_NETWORK_FLOW_H_

#include <cstdint>

#include "common/buffer.h"
#include "common/function.h"
#include "core/network/network_engine.h"

namespace dpdpu::ne {

/// Sends `message` as one frame: a u32 little-endian length, then the
/// bytes.
void SendFrame(NeSocket* socket, ByteSpan message);

/// Reassembles frames from a byte stream: Append what arrived, then
/// take each complete frame with Next.
class FrameReader {
 public:
  void Append(ByteSpan data) { pending_.Append(data); }

  /// Sets `frame` to the next complete frame, valid until the next call
  /// on this reader. Returns false when none is left, keeping only a
  /// trailing partial frame.
  bool Next(ByteSpan* frame);

 private:
  Buffer pending_;
  size_t consumed_ = 0;  // bytes of pending_ already handed out
};

/// Sending half: batches records and pushes them through the NE.
class FlowWriter {
 public:
  /// Batches flush automatically at `batch_bytes`.
  FlowWriter(NeSocket* socket, size_t batch_bytes = 64 * 1024)
      : socket_(socket), batch_bytes_(batch_bytes) {}

  /// Appends one record to the flow (thread-centric pipelined push).
  void Push(ByteSpan record);

  /// Sends any buffered records now.
  void Flush();

  uint64_t records_pushed() const { return records_; }
  uint64_t batches_sent() const { return batches_; }

 private:
  NeSocket* socket_;
  size_t batch_bytes_;
  Buffer pending_;
  uint64_t records_ = 0;
  uint64_t batches_ = 0;
  /// Same-tick pushes from different completion contexts only permute
  /// batch boundaries, never record bytes — commutative.
  sim::RaceTag race_tag_;
};

/// Receiving half: reassembles length-framed records from the stream.
class FlowReader {
 public:
  using RecordCallback = UniqueFunction<void(ByteSpan)>;

  explicit FlowReader(NeSocket* socket, RecordCallback on_record);

  uint64_t records_received() const { return records_; }

 private:
  FrameReader frames_;
  RecordCallback on_record_;
  uint64_t records_ = 0;
};

}  // namespace dpdpu::ne

#endif  // DPDPU_CORE_NETWORK_FLOW_H_
