#include "core/network/network_engine.h"

#include "hw/calibration.h"

namespace dpdpu::ne {

namespace cal = hw::cal;

// ---------------------------------------------------------------------------
// NeSocket.
// ---------------------------------------------------------------------------

NeSocket::NeSocket(NetworkEngine* engine, netsub::TcpConnection* conn)
    : engine_(engine), conn_(conn) {}

void NeSocket::Send(ByteSpan data) {
  DPDPU_SIM_ACCESS(race_tag_, "NeSocket", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  bytes_sent_ += data.size();
  engine_->SubmitSend(this, Buffer(data.data(), data.size()));
}

void NeSocket::SetReceiveCallback(ReceiveCallback cb) {
  on_receive_ = std::move(cb);
}

void NeSocket::Close() { conn_->Close(); }

void NeSocket::WireReceivePath() {
  conn_->SetCloseCallback([this] {
    if (on_close_) on_close_();
  });
  conn_->SetReceiveCallback([this](ByteSpan data) {
    bytes_received_ += data.size();
    if (landing_ == SocketLanding::kDpu) {
      // DPU endpoint: the data is already where the consumer runs.
      if (on_receive_) on_receive_(data);
      return;
    }
    if (engine_->tcp_mode() == TcpMode::kHostKernel) {
      // Kernel path: data is already in host memory; deliver directly
      // (per-segment CPU was charged by the segment hook).
      if (on_receive_) on_receive_(data);
      return;
    }
    DeliverToHost(Buffer(data.data(), data.size()));
  });
}

void NeSocket::DeliverToHost(Buffer data) {
  DPDPU_SIM_ACCESS(race_tag_, "NeSocket", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  // Offload path: the payload DMAs from DPU memory into the host ring;
  // the host application pays only the ring poll.
  size_t bytes = data.size();
  ring_occupancy_bytes_ += bytes;
  // Flow-control co-design: shrink the advertised window when the
  // host-bound ring is running hot, restore when it drains.
  uint32_t ring_capacity = engine_->options().host_rx_ring_bytes;
  if (!window_shrunk_ && ring_occupancy_bytes_ > ring_capacity * 3 / 4) {
    conn_->SetReceiveWindow(engine_->options().tcp_config.mss);
    window_shrunk_ = true;
  }
  hw::Server& server = engine_->server();
  server.pcie().Dma(bytes, [this, data = std::move(data)]() mutable {
    hw::Server& server = engine_->server();
    server.host_cpu().Execute(
        cal::kHostRingPollCycles, [this, data = std::move(data)]() mutable {
          HostConsumed(data.size());
          if (on_receive_) on_receive_(data.span());
        });
  });
}

void NeSocket::HostConsumed(size_t bytes) {
  DPDPU_SIM_ACCESS(race_tag_, "NeSocket", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  ring_occupancy_bytes_ -= std::min<uint32_t>(ring_occupancy_bytes_,
                                              uint32_t(bytes));
  uint32_t ring_capacity = engine_->options().host_rx_ring_bytes;
  if (window_shrunk_ && ring_occupancy_bytes_ < ring_capacity / 4) {
    conn_->SetReceiveWindow(engine_->options().tcp_config.rwnd_bytes);
    window_shrunk_ = false;
  }
}

// ---------------------------------------------------------------------------
// NetworkEngine.
// ---------------------------------------------------------------------------

NetworkEngine::NetworkEngine(hw::Server* server, netsub::Network* network,
                             netsub::NodeId node,
                             NetworkEngineOptions options)
    : server_(server), network_(network), node_(node), options_(options) {
  tcp_ = std::make_unique<netsub::TcpStack>(server->simulator(), network,
                                            node, options_.tcp_config);
  tcp_->SetSegmentHook(
      [this](size_t bytes, bool rx) { ChargeSegment(bytes, rx); });
  rdma_nic_ = std::make_unique<netsub::RdmaNic>(server->simulator(),
                                                network, node);
}

void NetworkEngine::ChargeSegment(size_t wire_bytes, bool rx) {
  (void)rx;
  // Header-only segments (pure ACKs, window updates) cost a fraction of
  // a data segment: no payload copy, no reassembly, just header
  // processing.
  bool header_only = wire_bytes < 256;
  if (options_.tcp_mode == TcpMode::kHostKernel) {
    // Traditional stack: every segment costs host cycles (Figure 3).
    uint64_t cycles =
        header_only ? cal::kKernelTcpCyclesPerMsg / 4
                    : cal::kKernelTcpCyclesPerMsg +
                          uint64_t(double(wire_bytes) *
                                   cal::kKernelTcpCyclesPerByte);
    server_->host_cpu().Execute(cycles);
  } else {
    // Offloaded stack: segments cost DPU cycles, at the optimized
    // userspace rate (plus NIC packet processing).
    uint64_t cycles =
        header_only ? (cal::kDpuTcpCyclesPerMsg +
                       cal::kNicPerPacketDpuCycles) / 4
                    : cal::kDpuTcpCyclesPerMsg +
                          cal::kNicPerPacketDpuCycles +
                          uint64_t(double(wire_bytes) *
                                   cal::kDpuTcpCyclesPerByte);
    server_->dpu_cpu().Execute(cycles);
  }
}

void NetworkEngine::SubmitSend(NeSocket* socket, Buffer data) {
  if (socket->landing() == SocketLanding::kDpu) {
    // DPU endpoint: hand straight to the DPU-resident stack.
    socket->connection()->Send(data.span());
    return;
  }
  if (options_.tcp_mode == TcpMode::kHostKernel) {
    // Kernel path: Send syscall cost is folded into the per-segment
    // charge; hand the bytes straight to the stack.
    socket->connection()->Send(data.span());
    return;
  }
  // Offload path: host ring submit, then DMA the payload to DPU memory,
  // then the DPU-side stack takes over.
  server_->host_cpu().Execute(cal::kHostRingSubmitCycles);
  size_t bytes = data.size();
  server_->pcie().Dma(bytes, [socket, data = std::move(data)]() mutable {
    socket->connection()->Send(data.span());
  });
}

NeSocket* NetworkEngine::WrapConnection(netsub::TcpConnection* conn) {
  auto socket = std::unique_ptr<NeSocket>(new NeSocket(this, conn));
  NeSocket* raw = socket.get();
  raw->WireReceivePath();
  sockets_.push_back(std::move(socket));
  return raw;
}

NeSocket* NetworkEngine::Connect(netsub::NodeId remote, uint16_t port) {
  return WrapConnection(tcp_->Connect(remote, port));
}

void NetworkEngine::Listen(uint16_t port,
                           UniqueFunction<void(NeSocket*)> on_accept) {
  tcp_->Listen(port, [this, on_accept = std::move(on_accept)](
                         netsub::TcpConnection* conn) mutable {
    on_accept(WrapConnection(conn));
  });
}

void NetworkEngine::OnPacket(netsub::Packet packet) {
  switch (packet.kind) {
    case netsub::kPacketKindTcp:
      tcp_->OnPacket(std::move(packet));
      break;
    case netsub::kPacketKindRdma:
      rdma_nic_->OnPacket(std::move(packet));
      break;
    default:
      break;  // unknown protocol: drop
  }
}

std::unique_ptr<RdmaEndpoint> NetworkEngine::CreateRdmaEndpoint(
    RdmaPath path, netsub::QueuePair* qp) {
  if (path == RdmaPath::kNative) {
    return std::make_unique<NativeRdmaEndpoint>(server_, qp);
  }
  return std::make_unique<OffloadedRdmaEndpoint>(server_, qp);
}

}  // namespace dpdpu::ne
