// The DPDPU Network Engine (paper Section 6): moves protocol execution to
// the DPU behind light-weight host front-ends. Two protocol paths:
//
//  * TCP — either the traditional host kernel stack (the Figure 3
//    baseline, charged at kernel-TCP cost on host cores) or the offloaded
//    stack: the host submits into a lock-free ring (kHostRingSubmitCycles),
//    payload DMAs to the DPU, and MiniTCP runs on DPU cores at the
//    optimized userspace cost. Flow control is co-designed: when the
//    host-bound delivery ring backs up, the NE shrinks the advertised TCP
//    window ("reflect the signals from host applications").
//
//  * RDMA — see rdma_offload.h (Figure 7).

#ifndef DPDPU_CORE_NETWORK_NETWORK_ENGINE_H_
#define DPDPU_CORE_NETWORK_NETWORK_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/buffer.h"
#include "common/function.h"
#include "common/result.h"
#include "core/network/rdma_offload.h"
#include "hw/machine.h"
#include "netsub/minitcp.h"
#include "netsub/network.h"
#include "netsub/rdma.h"

namespace dpdpu::ne {

/// Which TCP data path this engine models.
enum class TcpMode : uint8_t {
  kHostKernel,  // Figure 3 baseline: kernel stack on host cores
  kDpuOffload,  // Section 6 design: stack on DPU cores, rings to the host
};

struct NetworkEngineOptions {
  TcpMode tcp_mode = TcpMode::kDpuOffload;
  /// Capacity (bytes) of the host-bound delivery ring per socket; when
  /// occupancy crosses 3/4 the advertised TCP window shrinks.
  uint32_t host_rx_ring_bytes = 1 << 20;
  netsub::TcpConfig tcp_config;
};

class NetworkEngine;

/// Host-facing socket ("the front end of popular networking approaches").
/// API mirrors an asynchronous POSIX socket.
/// Where a socket's application endpoint lives. Host endpoints pay the
/// ring-submit / DMA / ring-poll costs of the host<->DPU boundary; DPU
/// endpoints (e.g. the Storage Engine's offload path, which serves
/// requests "immediately on the DPU without involving the host") do not.
enum class SocketLanding : uint8_t { kHost, kDpu };

class NeSocket {
 public:
  using ReceiveCallback = UniqueFunction<void(ByteSpan)>;
  using CloseCallback = UniqueFunction<void()>;

  /// Queues bytes for transmission. Host-side cost depends on the mode
  /// and landing.
  void Send(ByteSpan data);

  /// In-order delivery to the host application.
  void SetReceiveCallback(ReceiveCallback cb);

  /// Fires when the underlying connection closes or aborts (e.g. the
  /// MiniTCP retransmission cap reaping a connection to a dark node).
  /// Clients use this to fail outstanding requests immediately instead
  /// of waiting for an application-level timeout.
  void SetCloseCallback(CloseCallback cb) { on_close_ = std::move(cb); }

  /// Declares where this socket's endpoint runs (default: host).
  void SetLanding(SocketLanding landing) { landing_ = landing; }
  SocketLanding landing() const { return landing_; }

  void Close();
  bool established() const { return conn_->established(); }
  bool closed() const { return conn_->closed(); }
  netsub::TcpConnection* connection() { return conn_; }

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class NetworkEngine;

  NeSocket(NetworkEngine* engine, netsub::TcpConnection* conn);
  void WireReceivePath();
  void DeliverToHost(Buffer data);
  void HostConsumed(size_t bytes);

  NetworkEngine* engine_;
  netsub::TcpConnection* conn_;
  SocketLanding landing_ = SocketLanding::kHost;
  ReceiveCallback on_receive_;
  CloseCallback on_close_;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  // Host-bound delivery accounting (ring occupancy drives flow control).
  uint32_t ring_occupancy_bytes_ = 0;
  bool window_shrunk_ = false;
  /// Ring occupancy is bumped by DPU-side delivery and drained by host
  /// poll completions; both commutative — the shrink/restore hysteresis
  /// band tolerates transient interleavings of +/- at one timestamp.
  sim::RaceTag race_tag_;
};

class NetworkEngine {
 public:
  NetworkEngine(hw::Server* server, netsub::Network* network,
                netsub::NodeId node, NetworkEngineOptions options = {});

  NetworkEngine(const NetworkEngine&) = delete;
  NetworkEngine& operator=(const NetworkEngine&) = delete;

  netsub::NodeId node() const { return node_; }
  hw::Server& server() { return *server_; }
  TcpMode tcp_mode() const { return options_.tcp_mode; }
  sim::Simulator* simulator() const { return server_->simulator(); }

  /// Packet entry point; the Platform attaches this to the fabric.
  void OnPacket(netsub::Packet packet);

  // --- TCP front-end -------------------------------------------------------

  NeSocket* Connect(netsub::NodeId remote, uint16_t port);
  void Listen(uint16_t port, UniqueFunction<void(NeSocket*)> on_accept);

  // --- RDMA ---------------------------------------------------------------

  netsub::RdmaNic& rdma_nic() { return *rdma_nic_; }

  /// Creates an endpoint issuing through the given path (Figure 7).
  std::unique_ptr<RdmaEndpoint> CreateRdmaEndpoint(RdmaPath path,
                                                   netsub::QueuePair* qp);

  const NetworkEngineOptions& options() const { return options_; }

 private:
  friend class NeSocket;

  NeSocket* WrapConnection(netsub::TcpConnection* conn);
  // Per-segment CPU cost charging (mode-dependent).
  void ChargeSegment(size_t wire_bytes, bool rx);
  // Host-side send path cost + data movement, then the DPU-side send.
  void SubmitSend(NeSocket* socket, Buffer data);

  hw::Server* server_;
  netsub::Network* network_;
  netsub::NodeId node_;
  NetworkEngineOptions options_;
  std::unique_ptr<netsub::TcpStack> tcp_;
  std::unique_ptr<netsub::RdmaNic> rdma_nic_;
  std::vector<std::unique_ptr<NeSocket>> sockets_;
};

}  // namespace dpdpu::ne

#endif  // DPDPU_CORE_NETWORK_NETWORK_ENGINE_H_
