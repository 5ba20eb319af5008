// Link models: NIC ports (serialization + propagation) and PCIe links
// (DMA transfers, including the peer-to-peer SSD path of the paper's
// Figure 8).

#ifndef DPDPU_HW_LINK_H_
#define DPDPU_HW_LINK_H_

#include <cstdint>
#include <string>

#include "common/function.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace dpdpu::hw {

struct NicSpec {
  double bits_per_sec = 100e9;
  uint64_t propagation_ns = 2'000;
  uint32_t mtu_bytes = 4096;
};

/// One direction of a NIC port: frames serialize onto the wire one at a
/// time, then arrive after the propagation delay.
class NicPort {
 public:
  NicPort(sim::Simulator* sim, std::string name, NicSpec spec)
      : spec_(spec), wire_(sim, std::move(name), 1) {}

  const NicSpec& spec() const { return spec_; }

  sim::SimTime SerializationTime(uint64_t bytes) const {
    return static_cast<sim::SimTime>(double(bytes) * 8.0 /
                                         spec_.bits_per_sec * 1e9 +
                                     0.5);
  }

  /// Transmits `bytes`; `delivered` fires when the last bit lands at the
  /// far end (serialization + propagation).
  void Transmit(uint64_t bytes, UniqueFunction<void()> delivered) {
    bytes_sent_ += bytes;
    ++frames_sent_;
    wire_.Submit(SerializationTime(bytes), std::move(delivered),
                 spec_.propagation_ns);
  }

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t frames_sent() const { return frames_sent_; }
  double Utilization(sim::SimTime elapsed) const {
    return wire_.Utilization(elapsed);
  }

 private:
  NicSpec spec_;
  sim::Resource wire_;
  uint64_t bytes_sent_ = 0;
  uint64_t frames_sent_ = 0;
};

struct PcieSpec {
  double bytes_per_sec = 25e9;
  uint64_t latency_ns = 600;
};

/// A PCIe link carrying DMA transfers: serialization at link bandwidth
/// plus a fixed one-way latency.
class PcieLink {
 public:
  PcieLink(sim::Simulator* sim, std::string name, PcieSpec spec)
      : spec_(spec), lane_(sim, std::move(name), 1) {}

  const PcieSpec& spec() const { return spec_; }

  sim::SimTime TransferTime(uint64_t bytes) const {
    return static_cast<sim::SimTime>(double(bytes) / spec_.bytes_per_sec *
                                         1e9 +
                                     0.5);
  }

  /// Moves `bytes` across the link; `done` fires when the transfer lands.
  void Dma(uint64_t bytes, UniqueFunction<void()> done) {
    bytes_moved_ += bytes;
    ++transfers_;
    lane_.Submit(TransferTime(bytes), std::move(done), spec_.latency_ns);
  }

  uint64_t bytes_moved() const { return bytes_moved_; }
  uint64_t transfers() const { return transfers_; }

 private:
  PcieSpec spec_;
  sim::Resource lane_;
  uint64_t bytes_moved_ = 0;
  uint64_t transfers_ = 0;
};

}  // namespace dpdpu::hw

#endif  // DPDPU_HW_LINK_H_
