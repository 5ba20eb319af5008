#include "cluster/payload_stamp.h"

#include "cluster/shard_router.h"
#include "common/logging.h"

namespace dpdpu::cluster {

namespace {

uint64_t BodyState(const PayloadStamp& stamp) {
  return HashU64(stamp.key ^ HashU64(stamp.version) ^
                 HashU64(stamp.seed ^ kPayloadStampMagic));
}

uint64_t BodyWord(uint64_t state, uint64_t index) {
  return HashU64(state + index * 0x9e3779b97f4a7c15ull);
}

}  // namespace

Buffer MakeStampedPayload(size_t bytes, const PayloadStamp& stamp) {
  DPDPU_CHECK(bytes >= kPayloadStampBytes);
  // Little-endian words written straight into the pre-sized buffer; the
  // last word is cut to the bytes that remain.
  Buffer out(bytes);
  uint8_t* p = out.data();
  auto put = [&p](uint64_t word, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      p[i] = static_cast<uint8_t>(word >> (8 * i));
    }
    p += n;
  };
  put(kPayloadStampMagic, 8);
  put(stamp.key, 8);
  put(stamp.version, 8);
  put(stamp.seed, 8);
  uint64_t state = BodyState(stamp);
  size_t words = (bytes - kPayloadStampBytes) / 8;
  for (uint64_t index = 0; index < words; ++index) {
    put(BodyWord(state, index), 8);
  }
  put(BodyWord(state, words), bytes % 8);
  return out;
}

std::optional<PayloadStamp> ParsePayloadStamp(ByteSpan data) {
  ByteReader reader(data);
  uint64_t magic = 0;
  PayloadStamp stamp;
  if (!reader.ReadU64(&magic) || magic != kPayloadStampMagic) {
    return std::nullopt;
  }
  if (!reader.ReadU64(&stamp.key) || !reader.ReadU64(&stamp.version) ||
      !reader.ReadU64(&stamp.seed)) {
    return std::nullopt;
  }
  return stamp;
}

bool VerifyStampedPayload(ByteSpan data) {
  std::optional<PayloadStamp> stamp = ParsePayloadStamp(data);
  if (!stamp) return false;
  Buffer expected = MakeStampedPayload(data.size(), *stamp);
  return std::equal(data.begin(), data.end(), expected.span().begin());
}

}  // namespace dpdpu::cluster
