#include "fssub/block_device.h"

#include <cstring>

namespace dpdpu::fssub {

MemBlockDevice::MemBlockDevice(uint32_t block_size, uint64_t num_blocks)
    : block_size_(block_size), blocks_(num_blocks) {}

Status MemBlockDevice::ReadBlock(uint64_t block, MutableByteSpan out) const {
  if (block >= blocks_.size()) {
    return Status::OutOfRange("block device: read past end");
  }
  if (out.size() != block_size_) {
    return Status::InvalidArgument("block device: bad read buffer size");
  }
  if (const uint8_t* bytes = blocks_[block].get()) {
    std::memcpy(out.data(), bytes, block_size_);
  } else {
    std::memset(out.data(), 0, block_size_);  // never written
  }
  return Status::Ok();
}

Status MemBlockDevice::WriteBlock(uint64_t block, ByteSpan data) {
  if (block >= blocks_.size()) {
    return Status::OutOfRange("block device: write past end");
  }
  if (data.size() != block_size_) {
    return Status::InvalidArgument("block device: bad write size");
  }
  if (writes_remaining_ == 0) {
    ++dropped_writes_;  // simulated crash: write silently lost
    return Status::Ok();
  }
  --writes_remaining_;
  ++writes_;
  std::unique_ptr<uint8_t[]>& bytes = blocks_[block];
  if (!bytes) bytes = std::make_unique_for_overwrite<uint8_t[]>(block_size_);
  std::memcpy(bytes.get(), data.data(), block_size_);
  return Status::Ok();
}

}  // namespace dpdpu::fssub
