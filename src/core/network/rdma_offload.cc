#include "core/network/rdma_offload.h"

#include "hw/calibration.h"

namespace dpdpu::ne {

namespace cal = hw::cal;

// ---------------------------------------------------------------------------
// NativeRdmaEndpoint.
// ---------------------------------------------------------------------------

void NativeRdmaEndpoint::ChargeIssue() {
  // Lock + fences + WQE build, then the doorbell MMIO stall: the core is
  // occupied for both (Section 6: "CPU stalls can also happen when
  // ringing the doorbell register").
  sim::SimTime t =
      server_->host_cpu().CyclesToTime(cal::kRdmaNativeIssueCycles) +
      cal::kRdmaDoorbellStallNs;
  server_->host_cpu().ExecuteFor(t);
}

Status NativeRdmaEndpoint::Read(uint64_t wr_id, netsub::MrKey local,
                                size_t loff, netsub::MrKey remote,
                                size_t roff, size_t len) {
  ChargeIssue();
  return qp_->PostRead(wr_id, local, loff, remote, roff, len);
}

Status NativeRdmaEndpoint::Write(uint64_t wr_id, netsub::MrKey local,
                                 size_t loff, netsub::MrKey remote,
                                 size_t roff, size_t len) {
  ChargeIssue();
  return qp_->PostWrite(wr_id, local, loff, remote, roff, len);
}

Status NativeRdmaEndpoint::Send(uint64_t wr_id, ByteSpan data) {
  ChargeIssue();
  return qp_->PostSend(wr_id, data);
}

Status NativeRdmaEndpoint::Recv(uint64_t wr_id, netsub::MrKey local,
                                size_t loff, size_t capacity) {
  ChargeIssue();
  return qp_->PostRecv(wr_id, local, loff, capacity);
}

bool NativeRdmaEndpoint::PollCompletion(netsub::RdmaCompletion* out) {
  if (!qp_->cq().Poll(out)) return false;
  server_->host_cpu().Execute(cal::kRdmaHostCompletionCycles);
  return true;
}

// ---------------------------------------------------------------------------
// OffloadedRdmaEndpoint.
// ---------------------------------------------------------------------------

void OffloadedRdmaEndpoint::SubmitThroughRing(UniqueFunction<void()> post) {
  // Host: lock-free ring write only.
  server_->host_cpu().Execute(cal::kHostRingSubmitCycles);
  // DPU DMA engine polls the ring: one PCIe crossing to see the entry,
  // then a DPU core builds and issues the wire op.
  sim::Simulator* sim = server_->simulator();
  // simlint:allow(R6): endpoint outlives the drained event heap
  sim->Schedule(server_->pcie().spec().latency_ns,
                [this, post = std::move(post)]() mutable {
                  server_->dpu_cpu().Execute(cal::kRdmaDpuIssueCycles,
                                             std::move(post));
                });
}

Status OffloadedRdmaEndpoint::Read(uint64_t wr_id, netsub::MrKey local,
                                   size_t loff, netsub::MrKey remote,
                                   size_t roff, size_t len) {
  SubmitThroughRing([this, wr_id, local, loff, remote, roff, len] {
    Status s = qp_->PostRead(wr_id, local, loff, remote, roff, len);
    if (!s.ok()) {
      PushCompletion(netsub::RdmaCompletion{
          netsub::RdmaCompletion::OpType::kRead, wr_id, 0, false});
    }
  });
  return Status::Ok();
}

Status OffloadedRdmaEndpoint::Write(uint64_t wr_id, netsub::MrKey local,
                                    size_t loff, netsub::MrKey remote,
                                    size_t roff, size_t len) {
  SubmitThroughRing([this, wr_id, local, loff, remote, roff, len] {
    Status s = qp_->PostWrite(wr_id, local, loff, remote, roff, len);
    if (!s.ok()) {
      PushCompletion(netsub::RdmaCompletion{
          netsub::RdmaCompletion::OpType::kWrite, wr_id, 0, false});
    }
  });
  return Status::Ok();
}

Status OffloadedRdmaEndpoint::Send(uint64_t wr_id, ByteSpan data) {
  SubmitThroughRing(
      [this, wr_id, data = Buffer(data.data(), data.size())] {
        Status s = qp_->PostSend(wr_id, data.span());
        if (!s.ok()) {
          PushCompletion(netsub::RdmaCompletion{
              netsub::RdmaCompletion::OpType::kSend, wr_id, 0, false});
        }
      });
  return Status::Ok();
}

Status OffloadedRdmaEndpoint::Recv(uint64_t wr_id, netsub::MrKey local,
                                   size_t loff, size_t capacity) {
  SubmitThroughRing([this, wr_id, local, loff, capacity] {
    Status s = qp_->PostRecv(wr_id, local, loff, capacity);
    if (!s.ok()) {
      // Same convention as Send: surface the device-side post failure as
      // a failed completion instead of dropping it on the floor.
      PushCompletion(netsub::RdmaCompletion{
          netsub::RdmaCompletion::OpType::kRecv, wr_id, 0, false});
    }
  });
  return Status::Ok();
}

void OffloadedRdmaEndpoint::DrainDeviceCompletions() {
  // The DPU moves completions into the host-visible ring: one PCIe
  // crossing; the entry is then reaped by the host poll loop.
  netsub::RdmaCompletion c;
  while (qp_->cq().Poll(&c)) {
    // simlint:allow(R6): endpoint outlives the drained event heap
    server_->simulator()->Schedule(server_->pcie().spec().latency_ns,
                                   [this, c] { PushCompletion(c); });
  }
}

void OffloadedRdmaEndpoint::PushCompletion(netsub::RdmaCompletion c) {
  DPDPU_SIM_ACCESS(race_tag_, "OffloadedRdmaEndpoint", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  host_completions_.push_back(c);
  if (notify_) notify_();
}

bool OffloadedRdmaEndpoint::PollCompletion(netsub::RdmaCompletion* out) {
  if (host_completions_.empty()) return false;
  DPDPU_SIM_ACCESS(race_tag_, "OffloadedRdmaEndpoint", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  *out = host_completions_.front();
  host_completions_.pop_front();
  server_->host_cpu().Execute(cal::kHostRingPollCycles);
  return true;
}

}  // namespace dpdpu::ne
