// RDMA issue paths (paper Figure 7). Both endpoints drive the same
// netsub::QueuePair verbs; they differ in who spends which cycles:
//
//  * NativeRdmaEndpoint — the host issues directly: queue-pair spinlock +
//    memory fences (kRdmaNativeIssueCycles) plus a doorbell MMIO stall
//    (kRdmaDoorbellStallNs) on a host core per op.
//
//  * OffloadedRdmaEndpoint — the host writes a descriptor into a
//    lock-free DMA-able ring (kHostRingSubmitCycles); the NE on the DPU
//    polls the ring over PCIe and issues the wire op from a DPU core
//    (kRdmaDpuIssueCycles). Completions travel back through a host-visible
//    ring (PCIe latency + kHostRingPollCycles at reap time).

#ifndef DPDPU_CORE_NETWORK_RDMA_OFFLOAD_H_
#define DPDPU_CORE_NETWORK_RDMA_OFFLOAD_H_

#include <cstdint>
#include <deque>
#include <memory>

#include "common/function.h"
#include "common/result.h"
#include "hw/machine.h"
#include "netsub/rdma.h"

namespace dpdpu::ne {

enum class RdmaPath : uint8_t { kNative, kDpuOffloaded };

/// Uniform async RDMA issue interface over either path.
class RdmaEndpoint {
 public:
  virtual ~RdmaEndpoint() = default;

  virtual Status Read(uint64_t wr_id, netsub::MrKey local, size_t loff,
                      netsub::MrKey remote, size_t roff, size_t len) = 0;
  virtual Status Write(uint64_t wr_id, netsub::MrKey local, size_t loff,
                       netsub::MrKey remote, size_t roff, size_t len) = 0;
  virtual Status Send(uint64_t wr_id, ByteSpan data) = 0;
  virtual Status Recv(uint64_t wr_id, netsub::MrKey local, size_t loff,
                      size_t capacity) = 0;

  /// Non-blocking completion reap (host-side cost charged per poll that
  /// returns an entry).
  virtual bool PollCompletion(netsub::RdmaCompletion* out) = 0;

  /// Event hook: fires when a completion becomes reapable (so consumers
  /// need not spin-poll inside the simulation).
  virtual void SetCompletionNotify(UniqueFunction<void()> notify) = 0;

  virtual RdmaPath path() const = 0;
};

/// Host-issued RDMA (the baseline Figure 7 replaces).
class NativeRdmaEndpoint final : public RdmaEndpoint {
 public:
  NativeRdmaEndpoint(hw::Server* server, netsub::QueuePair* qp)
      : server_(server), qp_(qp) {}

  Status Read(uint64_t wr_id, netsub::MrKey local, size_t loff,
              netsub::MrKey remote, size_t roff, size_t len) override;
  Status Write(uint64_t wr_id, netsub::MrKey local, size_t loff,
               netsub::MrKey remote, size_t roff, size_t len) override;
  Status Send(uint64_t wr_id, ByteSpan data) override;
  Status Recv(uint64_t wr_id, netsub::MrKey local, size_t loff,
              size_t capacity) override;
  bool PollCompletion(netsub::RdmaCompletion* out) override;
  void SetCompletionNotify(UniqueFunction<void()> notify) override {
    qp_->cq().SetNotify(std::move(notify));
  }
  RdmaPath path() const override { return RdmaPath::kNative; }

 private:
  void ChargeIssue();

  hw::Server* server_;
  netsub::QueuePair* qp_;
};

/// DPU-offloaded issue path (the Figure 7 design).
class OffloadedRdmaEndpoint final : public RdmaEndpoint {
 public:
  OffloadedRdmaEndpoint(hw::Server* server, netsub::QueuePair* qp)
      : server_(server), qp_(qp) {
    // Completions are staged into the host-visible ring as they arrive.
    qp_->cq().SetNotify([this] { DrainDeviceCompletions(); });
  }

  Status Read(uint64_t wr_id, netsub::MrKey local, size_t loff,
              netsub::MrKey remote, size_t roff, size_t len) override;
  Status Write(uint64_t wr_id, netsub::MrKey local, size_t loff,
               netsub::MrKey remote, size_t roff, size_t len) override;
  Status Send(uint64_t wr_id, ByteSpan data) override;
  Status Recv(uint64_t wr_id, netsub::MrKey local, size_t loff,
              size_t capacity) override;
  bool PollCompletion(netsub::RdmaCompletion* out) override;
  void SetCompletionNotify(UniqueFunction<void()> notify) override {
    notify_ = std::move(notify);
  }
  RdmaPath path() const override { return RdmaPath::kDpuOffloaded; }

 private:
  /// Host ring submit + DPU DMA-poll + DPU issue, then `post` on the QP.
  void SubmitThroughRing(UniqueFunction<void()> post);
  void DrainDeviceCompletions();
  /// Single producer-side door into host_completions_ — every stage
  /// (device-post failure, DMA'ed-back completion) lands here so the
  /// ring's race annotation lives in exactly one place.
  void PushCompletion(netsub::RdmaCompletion c);

  hw::Server* server_;
  netsub::QueuePair* qp_;
  /// Host-visible completion ring (entries already DMA'ed back).
  std::deque<netsub::RdmaCompletion> host_completions_;
  UniqueFunction<void()> notify_;
  /// Pushes arrive from independent DMA events, pops from the host poll
  /// loop; wr_ids make entries order-free for consumers, so the deque
  /// motion commutes.
  sim::RaceTag race_tag_;
};

}  // namespace dpdpu::ne

#endif  // DPDPU_CORE_NETWORK_RDMA_OFFLOAD_H_
