#include "fssub/journal.h"

#include <cstring>

#include "kern/crc32.h"

namespace dpdpu::fssub {

namespace {
constexpr uint32_t kRecordMagic = 0x4A524E4C;  // "JRNL"
constexpr size_t kRecordHeader = 4 + 8 + 4;    // magic, seq, len
constexpr size_t kRecordTrailer = 4;           // crc
}  // namespace

Journal::Journal(BlockDevice* device, uint64_t first_block,
                 uint64_t num_blocks)
    : device_(device),
      first_block_(first_block),
      num_blocks_(num_blocks),
      shadow_(size_t(num_blocks) * device->block_size(), 0) {}

Status Journal::PersistRange(uint64_t begin, uint64_t end) {
  uint32_t bs = device_->block_size();
  uint64_t first = begin / bs;
  uint64_t last = end == begin ? first : (end - 1) / bs;
  for (uint64_t b = first; b <= last; ++b) {
    DPDPU_RETURN_IF_ERROR(device_->WriteBlock(
        first_block_ + b, ByteSpan(shadow_.data() + b * bs, bs)));
  }
  return Status::Ok();
}

Status Journal::Append(uint64_t seq, ByteSpan payload) {
  size_t record_size = kRecordHeader + payload.size() + kRecordTrailer;
  // Keep 4 spare bytes so an implicit zero terminator always follows.
  if (append_offset_ + record_size + 4 > capacity_bytes()) {
    return Status::ResourceExhausted("journal: full, checkpoint required");
  }
  Buffer rec;
  rec.AppendU32(kRecordMagic);
  rec.AppendU64(seq);
  rec.AppendU32(static_cast<uint32_t>(payload.size()));
  rec.Append(payload);
  // CRC over seq+len+payload.
  rec.AppendU32(kern::Crc32(rec.span().subspan(4)));

  std::memcpy(shadow_.data() + append_offset_, rec.data(), rec.size());
  uint64_t begin = append_offset_;
  append_offset_ += rec.size();
  return PersistRange(begin, append_offset_);
}

Result<uint64_t> Journal::Replay(
    uint64_t start_seq,
    UniqueFunction<void(uint64_t seq, ByteSpan)> apply) const {
  // Read the journal region from the device (the shadow may be stale
  // relative to a crashed instance).
  uint32_t bs = device_->block_size();
  std::vector<uint8_t> image(size_t(num_blocks_) * bs);
  for (uint64_t b = 0; b < num_blocks_; ++b) {
    DPDPU_RETURN_IF_ERROR(device_->ReadBlock(
        first_block_ + b, MutableByteSpan(image.data() + b * bs, bs)));
  }

  uint64_t replayed = 0;
  uint64_t expected_seq = start_seq;
  size_t offset = 0;
  while (offset + kRecordHeader + kRecordTrailer <= image.size()) {
    ByteReader r(ByteSpan(image.data() + offset, image.size() - offset));
    uint32_t magic, len;
    uint64_t seq;
    if (!r.ReadU32(&magic) || magic != kRecordMagic) break;
    if (!r.ReadU64(&seq) || !r.ReadU32(&len)) break;
    if (offset + kRecordHeader + len + kRecordTrailer > image.size()) break;
    ByteSpan payload;
    if (!r.ReadSpan(len, &payload)) break;
    uint32_t stored_crc;
    if (!r.ReadU32(&stored_crc)) break;
    uint32_t computed = kern::Crc32(
        ByteSpan(image.data() + offset + 4, 8 + 4 + len));
    if (computed != stored_crc) break;  // torn write: stop cleanly
    if (seq != expected_seq) break;     // stale record from a prior epoch
    apply(seq, payload);
    ++replayed;
    ++expected_seq;
    offset += kRecordHeader + len + kRecordTrailer;
  }
  return replayed;
}

Status Journal::Reset() {
  append_offset_ = 0;
  std::fill(shadow_.begin(), shadow_.end(), 0);
  // Persist a zero terminator at the head; stale records further in are
  // fenced by the sequence check.
  return PersistRange(0, device_->block_size());
}

}  // namespace dpdpu::fssub
