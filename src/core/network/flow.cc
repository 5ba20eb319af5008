#include "core/network/flow.h"

namespace dpdpu::ne {

void SendFrame(NeSocket* socket, ByteSpan message) {
  Buffer framed;
  framed.AppendU32(static_cast<uint32_t>(message.size()));
  framed.Append(message);
  socket->Send(framed.span());
}

bool FrameReader::Next(ByteSpan* frame) {
  ByteReader r(pending_.span().subspan(consumed_));
  uint32_t len;
  if (r.ReadU32(&len) && r.ReadSpan(len, frame)) {
    consumed_ += 4 + len;
    return true;
  }
  if (consumed_ > 0) {
    pending_ =
        Buffer(pending_.data() + consumed_, pending_.size() - consumed_);
    consumed_ = 0;
  }
  return false;
}

void FlowWriter::Push(ByteSpan record) {
  DPDPU_SIM_ACCESS(race_tag_, "FlowWriter", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  pending_.AppendU32(static_cast<uint32_t>(record.size()));
  pending_.Append(record);
  ++records_;
  if (pending_.size() >= batch_bytes_) Flush();
}

void FlowWriter::Flush() {
  DPDPU_SIM_ACCESS(race_tag_, "FlowWriter", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  if (pending_.empty()) return;
  socket_->Send(pending_.span());
  pending_.clear();
  ++batches_;
}

FlowReader::FlowReader(NeSocket* socket, RecordCallback on_record)
    : on_record_(std::move(on_record)) {
  socket->SetReceiveCallback([this](ByteSpan data) {
    frames_.Append(data);
    ByteSpan record;
    while (frames_.Next(&record)) {
      ++records_;
      on_record_(record);
    }
  });
}

}  // namespace dpdpu::ne
