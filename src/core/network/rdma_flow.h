// DFI-style flows over RDMA (paper Section 6: "DFI's interface and its
// RDMA execution can be decoupled such that data systems running on the
// host still send records to remote machines using the flow interface.
// These requests are cached on the host memory and then moved to the DPU
// for further data flow processing" — i.e. host-managed staging buffers,
// DPU-managed RDMA execution).
//
// RdmaFlowWriter batches records in host memory and ships each batch as
// one two-sided SEND through an RdmaEndpoint (the offloaded endpoint
// gives the Figure 7 host-cost profile). RdmaFlowReader pre-posts
// receive slots in a registered memory region, reassembles records, and
// reposts slots as they drain.

#ifndef DPDPU_CORE_NETWORK_RDMA_FLOW_H_
#define DPDPU_CORE_NETWORK_RDMA_FLOW_H_

#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "common/function.h"
#include "core/network/rdma_offload.h"
#include "netsub/rdma.h"

namespace dpdpu::ne {

class RdmaFlowWriter {
 public:
  explicit RdmaFlowWriter(RdmaEndpoint* endpoint,
                          size_t batch_bytes = 64 * 1024)
      : endpoint_(endpoint), batch_bytes_(batch_bytes) {}

  /// Appends one length-framed record to the current batch.
  Status Push(ByteSpan record);

  /// Ships the pending batch now.
  Status Flush();

  uint64_t records_pushed() const { return records_; }
  uint64_t batches_sent() const { return batches_; }

 private:
  RdmaEndpoint* endpoint_;
  size_t batch_bytes_;
  Buffer pending_;
  uint64_t records_ = 0;
  uint64_t batches_ = 0;
  uint64_t next_wr_ = 1;
  /// See FlowWriter: batching state, commutative by construction.
  sim::RaceTag race_tag_;
};

class RdmaFlowReader {
 public:
  using RecordCallback = UniqueFunction<void(ByteSpan)>;

  /// Registers `slots` receive buffers of `slot_bytes` each on `nic` and
  /// pre-posts them on `endpoint`.
  RdmaFlowReader(RdmaEndpoint* endpoint, netsub::RdmaNic* nic,
                 size_t slots, size_t slot_bytes, RecordCallback on_record);

  uint64_t records_received() const { return records_; }
  uint64_t batches_received() const { return batches_; }

 private:
  void DrainCompletions();
  void ConsumeBatch(ByteSpan batch);

  RdmaEndpoint* endpoint_;
  netsub::RdmaNic* nic_;
  netsub::MrKey region_;
  size_t slot_bytes_;
  RecordCallback on_record_;
  uint64_t records_ = 0;
  uint64_t batches_ = 0;
};

}  // namespace dpdpu::ne

#endif  // DPDPU_CORE_NETWORK_RDMA_FLOW_H_
