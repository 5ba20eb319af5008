// Write-ahead journal over a contiguous block range. Each record carries
// a sequence number and CRC32; replay applies records in order and stops
// at the first hole or corrupt record — which is exactly what a torn
// write at crash time produces.

#ifndef DPDPU_FSSUB_JOURNAL_H_
#define DPDPU_FSSUB_JOURNAL_H_

#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "common/function.h"
#include "common/result.h"
#include "fssub/block_device.h"

namespace dpdpu::fssub {

/// Append-only WAL in blocks [first_block, first_block + num_blocks).
/// The caller persists the replay horizon (`start_seq`) elsewhere (DpuFs
/// keeps it in the superblock) and resets the journal at checkpoints.
class Journal {
 public:
  Journal(BlockDevice* device, uint64_t first_block, uint64_t num_blocks);

  /// Appends a record and persists the touched blocks immediately.
  /// Fails with ResourceExhausted when the journal region is full
  /// (caller should checkpoint and Reset).
  Status Append(uint64_t seq, ByteSpan payload);

  /// Replays records with seq >= start_seq, in append order, stopping
  /// cleanly at the first invalid record. Returns the number replayed.
  Result<uint64_t> Replay(uint64_t start_seq,
                          UniqueFunction<void(uint64_t seq, ByteSpan)> apply)
      const;

  /// Logically clears the journal (rewinds the append cursor and writes a
  /// terminator so stale records do not replay).
  Status Reset();

  uint64_t bytes_used() const { return append_offset_; }
  uint64_t capacity_bytes() const {
    return num_blocks_ * device_->block_size();
  }

 private:
  Status PersistRange(uint64_t begin, uint64_t end);

  BlockDevice* device_;
  uint64_t first_block_;
  uint64_t num_blocks_;
  uint64_t append_offset_ = 0;  // bytes from journal start
  std::vector<uint8_t> shadow_;  // in-memory image of the journal region
};

}  // namespace dpdpu::fssub

#endif  // DPDPU_FSSUB_JOURNAL_H_
