#include "kern/deflate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "kern/bitio.h"
#include "kern/deflate_tables.h"
#include "kern/huffman.h"

namespace dpdpu::kern {

namespace {

// Symbol lookup tables, built once from kLengthBase/kDistBase (zlib's
// _length_code/_dist_code layout): length symbol minus 257 per match
// length, and distance symbol for distances 1-256 then per 128-distance
// band above that.
struct SymbolTables {
  uint8_t length[kMaxMatch + 1] = {};
  uint8_t distance[512] = {};

  constexpr SymbolTables() {
    for (int code = 0; code < 29; ++code) {
      int end = code + 1 < 29 ? kLengthBase[code + 1] : kMaxMatch + 1;
      for (int len = kLengthBase[code]; len < end; ++len) {
        length[len] = static_cast<uint8_t>(code);
      }
    }
    for (int code = 0; code < 30; ++code) {
      int end = code + 1 < 30 ? kDistBase[code + 1] : kWindowSize + 1;
      for (int dist = kDistBase[code]; dist < end; ++dist) {
        int slot = dist <= 256 ? dist - 1 : 256 + ((dist - 1) >> 7);
        distance[slot] = static_cast<uint8_t>(code);
      }
    }
  }
};

constexpr SymbolTables kSymbolTables;

}  // namespace

int LengthToSymbol(int length) {
  DPDPU_CHECK(length >= kMinMatch && length <= kMaxMatch);
  return 257 + kSymbolTables.length[length];
}

int DistanceToSymbol(int distance) {
  DPDPU_CHECK(distance >= 1 && distance <= kWindowSize);
  return kSymbolTables.distance[distance <= 256 ? distance - 1
                                                : 256 + ((distance - 1) >> 7)];
}

namespace {

// ---------------------------------------------------------------------------
// LZ77 tokenization with hash chains and lazy matching.
// ---------------------------------------------------------------------------

struct Token {
  // dist == 0: literal, len holds the byte value.
  // dist > 0:  match of `len` (3-258) at back-distance `dist` (1-32768).
  uint16_t len;
  uint16_t dist;
};

struct MatchParams {
  int max_chain;
  int nice_length;
  bool lazy;
};

MatchParams ParamsForLevel(int level) {
  level = std::clamp(level, 1, 9);
  switch (level) {
    case 1:
      return {8, 16, false};
    case 2:
      return {16, 32, false};
    case 3:
      return {32, 64, false};
    case 4:
      return {32, 64, true};
    case 5:
      return {64, 96, true};
    case 6:
      return {128, 128, true};
    case 7:
      return {256, 192, true};
    case 8:
      return {512, 258, true};
    default:
      return {1024, 258, true};
  }
}

class MatchFinder {
 public:
  MatchFinder(ByteSpan in, MatchParams params)
      : in_(in),
        params_(params),
        head_(kHashSize, -1),
        prev_(in.size(), -1) {}

  struct Match {
    int len = 0;
    int dist = 0;
  };

  /// Longest match at `pos` against strictly earlier inserted positions.
  Match Find(size_t pos) const {
    Match best;
    if (pos + kMinMatch > in_.size()) return best;
    size_t limit = pos > kWindowSize ? pos - kWindowSize : 0;
    int max_len =
        static_cast<int>(std::min<size_t>(kMaxMatch, in_.size() - pos));
    const uint8_t* here = in_.data() + pos;
    int chain = params_.max_chain;
    for (int cand = head_[Hash(pos)];
         cand >= 0 && static_cast<size_t>(cand) >= limit && chain > 0;
         cand = prev_[cand], --chain) {
      // A candidate that differs at offset best.len cannot beat best
      // (best.len < max_len here, so the byte is in range).
      const uint8_t* there = in_.data() + cand;
      if (there[best.len] != here[best.len]) continue;
      int len = MatchLength(static_cast<size_t>(cand), pos, max_len);
      if (len > best.len) {
        best.len = len;
        best.dist = static_cast<int>(pos) - cand;
        if (len >= params_.nice_length || len == max_len) break;
      }
    }
    if (best.len < kMinMatch) return Match{};
    return best;
  }

  /// Inserts all positions in [inserted_, end) into the hash chains.
  void InsertUpTo(size_t end) {
    for (; inserted_ < end; ++inserted_) {
      if (inserted_ + kMinMatch > in_.size()) continue;
      uint32_t h = Hash(inserted_);
      prev_[inserted_] = head_[h];
      head_[h] = static_cast<int32_t>(inserted_);
    }
  }

 private:
  static constexpr uint32_t kHashSize = 1u << 15;

  uint32_t Hash(size_t pos) const {
    uint32_t v = uint32_t(in_[pos]) << 16 | uint32_t(in_[pos + 1]) << 8 |
                 uint32_t(in_[pos + 2]);
    return (v * 2654435761u) >> 17;
  }

  // Word-wise match extension: compare 8 bytes per step, locate the first
  // mismatching byte from the XOR. Reading 8 bytes at `a + len` is safe
  // because a < b and b + max_len <= in_.size() bounds both windows.
  int MatchLength(size_t a, size_t b, int max_len) const {
    const uint8_t* pa = in_.data() + a;
    const uint8_t* pb = in_.data() + b;
    int len = 0;
    while (len + 8 <= max_len) {
      uint64_t wa, wb;
      std::memcpy(&wa, pa + len, 8);
      std::memcpy(&wb, pb + len, 8);
      uint64_t diff = wa ^ wb;
      if (diff != 0) {
        int bit = (std::endian::native == std::endian::little)
                      ? std::countr_zero(diff)
                      : std::countl_zero(diff);
        return len + (bit >> 3);
      }
      len += 8;
    }
    while (len < max_len && pa[len] == pb[len]) ++len;
    return len;
  }

  ByteSpan in_;
  MatchParams params_;
  std::vector<int32_t> head_;
  std::vector<int32_t> prev_;
  size_t inserted_ = 0;
};

// Produces the token stream and each token's starting input offset.
void Tokenize(ByteSpan in, MatchParams params, std::vector<Token>* tokens,
              std::vector<uint32_t>* token_pos) {
  MatchFinder finder(in, params);
  size_t pos = 0;
  // The lazy probe's result, reused as the search at the next position
  // (no position is inserted in between, so the chains are unchanged).
  std::optional<MatchFinder::Match> probed;
  while (pos < in.size()) {
    finder.InsertUpTo(pos);
    MatchFinder::Match m = probed ? *probed : finder.Find(pos);
    probed.reset();
    if (m.len >= kMinMatch && params.lazy && m.len < params.nice_length &&
        pos + 1 < in.size()) {
      // Lazy evaluation: prefer a longer match starting one byte later.
      finder.InsertUpTo(pos + 1);
      MatchFinder::Match next = finder.Find(pos + 1);
      if (next.len > m.len) {
        tokens->push_back(Token{uint16_t(in[pos]), 0});
        token_pos->push_back(static_cast<uint32_t>(pos));
        ++pos;
        probed = next;
        continue;
      }
    }
    if (m.len >= kMinMatch) {
      tokens->push_back(Token{uint16_t(m.len), uint16_t(m.dist)});
      token_pos->push_back(static_cast<uint32_t>(pos));
      pos += m.len;
    } else {
      tokens->push_back(Token{uint16_t(in[pos]), 0});
      token_pos->push_back(static_cast<uint32_t>(pos));
      ++pos;
    }
  }
}

// ---------------------------------------------------------------------------
// Block encoding.
// ---------------------------------------------------------------------------

struct BlockCodes {
  std::vector<uint8_t> litlen_lengths;
  std::vector<uint32_t> litlen_codes;
  std::vector<uint8_t> dist_lengths;
  std::vector<uint32_t> dist_codes;
};

// RLE'd code-length sequence entry: symbol 0-18 plus its repeat payload.
struct ClenEntry {
  uint8_t symbol;
  uint8_t extra;  // payload for 16/17/18
};

std::vector<ClenEntry> RleCodeLengths(const std::vector<uint8_t>& lengths) {
  std::vector<ClenEntry> out;
  size_t i = 0;
  while (i < lengths.size()) {
    uint8_t v = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == v) ++run;
    if (v == 0) {
      size_t left = run;
      while (left >= 11) {
        size_t r = std::min<size_t>(left, 138);
        out.push_back({18, uint8_t(r - 11)});
        left -= r;
      }
      if (left >= 3) {
        out.push_back({17, uint8_t(left - 3)});
        left = 0;
      }
      while (left-- > 0) out.push_back({0, 0});
    } else {
      out.push_back({v, 0});
      size_t left = run - 1;
      while (left >= 3) {
        size_t r = std::min<size_t>(left, 6);
        out.push_back({16, uint8_t(r - 3)});
        left -= r;
      }
      while (left-- > 0) out.push_back({v, 0});
    }
    i += run;
  }
  return out;
}

int ClenExtraBits(uint8_t symbol) {
  if (symbol == 16) return 2;
  if (symbol == 17) return 3;
  if (symbol == 18) return 7;
  return 0;
}

// Huffman-coded bits of a block's symbols (end-of-block included) under
// the given code lengths; extra bits are counted separately.
uint64_t CodedBits(const std::vector<uint64_t>& litlen_freq,
                   const std::vector<uint64_t>& dist_freq,
                   const std::vector<uint8_t>& litlen_lengths,
                   const std::vector<uint8_t>& dist_lengths) {
  uint64_t bits = 0;
  for (int s = 0; s < kNumLitLenSymbols; ++s) {
    bits += litlen_freq[s] * litlen_lengths[s];
  }
  for (int s = 0; s < kNumDistSymbols; ++s) {
    bits += dist_freq[s] * dist_lengths[s];
  }
  return bits;
}

void WriteTokens(BitWriter& bw, const std::vector<Token>& tokens,
                 const BlockCodes& codes) {
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      bw.WriteHuffmanCode(codes.litlen_codes[t.len],
                          codes.litlen_lengths[t.len]);
    } else {
      int lsym = LengthToSymbol(t.len);
      bw.WriteHuffmanCode(codes.litlen_codes[lsym],
                          codes.litlen_lengths[lsym]);
      bw.WriteBits(t.len - kLengthBase[lsym - 257], kLengthExtra[lsym - 257]);
      int dsym = DistanceToSymbol(t.dist);
      bw.WriteHuffmanCode(codes.dist_codes[dsym], codes.dist_lengths[dsym]);
      bw.WriteBits(t.dist - kDistBase[dsym], kDistExtra[dsym]);
    }
  }
  bw.WriteHuffmanCode(codes.litlen_codes[kEndOfBlock],
                      codes.litlen_lengths[kEndOfBlock]);
}

BlockCodes FixedCodes() {
  BlockCodes codes;
  codes.litlen_lengths.resize(kNumLitLenSymbols);
  for (int s = 0; s < kNumLitLenSymbols; ++s) {
    codes.litlen_lengths[s] = FixedLitLenLength(s);
  }
  codes.litlen_codes = CanonicalCodes(codes.litlen_lengths);
  codes.dist_lengths.assign(kNumDistSymbols, 5);
  codes.dist_codes = CanonicalCodes(codes.dist_lengths);
  return codes;
}

void WriteStored(BitWriter& bw, ByteSpan data, bool final) {
  size_t off = 0;
  do {
    size_t chunk = std::min<size_t>(data.size() - off, 65535);
    bool last = final && (off + chunk == data.size());
    bw.WriteBits(last ? 1 : 0, 1);
    bw.WriteBits(0, 2);  // BTYPE=00
    bw.AlignToByte();
    bw.WriteBits(static_cast<uint32_t>(chunk), 16);
    bw.WriteBits(static_cast<uint32_t>(~chunk) & 0xFFFF, 16);
    for (size_t i = 0; i < chunk; ++i) {
      bw.WriteBits(data[off + i], 8);
    }
    off += chunk;
  } while (off < data.size());
}

// Encodes one block of tokens covering input bytes [range_begin, range_end).
void EncodeBlock(BitWriter& bw, const std::vector<Token>& tokens,
                 ByteSpan block_input, bool final) {
  // Symbol frequencies.
  std::vector<uint64_t> litlen_freq(kNumLitLenSymbols, 0);
  std::vector<uint64_t> dist_freq(kNumDistSymbols, 0);
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      ++litlen_freq[t.len];
    } else {
      ++litlen_freq[LengthToSymbol(t.len)];
      ++dist_freq[DistanceToSymbol(t.dist)];
    }
  }
  ++litlen_freq[kEndOfBlock];
  // Length and distance extra bits: the same under every code.
  uint64_t extra_bits = 0;
  for (int i = 0; i < 29; ++i) {
    extra_bits += litlen_freq[257 + i] * kLengthExtra[i];
  }
  for (int s = 0; s < kNumDistSymbols; ++s) {
    extra_bits += dist_freq[s] * kDistExtra[s];
  }

  // Dynamic code construction.
  BlockCodes dyn;
  dyn.litlen_lengths = PackageMergeLengths(litlen_freq, kMaxHuffmanBits);
  dyn.dist_lengths = PackageMergeLengths(dist_freq, kMaxHuffmanBits);
  dyn.litlen_codes = CanonicalCodes(dyn.litlen_lengths);
  dyn.dist_codes = CanonicalCodes(dyn.dist_lengths);

  int hlit = 257;
  for (int s = kNumLitLenSymbols - 1; s >= 257; --s) {
    if (dyn.litlen_lengths[s] > 0) {
      hlit = s + 1;
      break;
    }
  }
  int hdist = 1;
  for (int s = kNumDistSymbols - 1; s >= 1; --s) {
    if (dyn.dist_lengths[s] > 0) {
      hdist = s + 1;
      break;
    }
  }

  // Code-length code over the concatenated litlen+dist lengths.
  std::vector<uint8_t> all_lengths(dyn.litlen_lengths.begin(),
                                   dyn.litlen_lengths.begin() + hlit);
  all_lengths.insert(all_lengths.end(), dyn.dist_lengths.begin(),
                     dyn.dist_lengths.begin() + hdist);
  std::vector<ClenEntry> rle = RleCodeLengths(all_lengths);
  std::vector<uint64_t> clen_freq(kNumClenSymbols, 0);
  for (const ClenEntry& e : rle) ++clen_freq[e.symbol];
  std::vector<uint8_t> clen_lengths = PackageMergeLengths(clen_freq, 7);
  std::vector<uint32_t> clen_codes = CanonicalCodes(clen_lengths);
  int hclen = 4;
  for (int i = kNumClenSymbols - 1; i >= 4; --i) {
    if (clen_lengths[kClenOrder[i]] > 0) {
      hclen = i + 1;
      break;
    }
  }

  // Cost comparison (all in bits, excluding the shared 3-bit header).
  uint64_t header_bits = 14;
  header_bits += uint64_t(hclen) * 3;
  for (const ClenEntry& e : rle) {
    header_bits += clen_lengths[e.symbol] + ClenExtraBits(e.symbol);
  }
  uint64_t dynamic_bits =
      header_bits + extra_bits +
      CodedBits(litlen_freq, dist_freq, dyn.litlen_lengths, dyn.dist_lengths);

  BlockCodes fixed = FixedCodes();
  uint64_t fixed_bits =
      extra_bits + CodedBits(litlen_freq, dist_freq, fixed.litlen_lengths,
                             fixed.dist_lengths);

  // Stored: per-chunk 3-bit header + up-to-7-bit pad + 32-bit LEN/NLEN.
  uint64_t nchunks = (block_input.size() + 65534) / 65535;
  if (nchunks == 0) nchunks = 1;
  uint64_t stored_bits = nchunks * (3 + 7 + 32) + 8 * block_input.size();

  if (stored_bits < dynamic_bits && stored_bits < fixed_bits &&
      !block_input.empty()) {
    WriteStored(bw, block_input, final);
    return;
  }
  if (fixed_bits <= dynamic_bits) {
    bw.WriteBits(final ? 1 : 0, 1);
    bw.WriteBits(1, 2);  // BTYPE=01 fixed
    WriteTokens(bw, tokens, fixed);
    return;
  }

  bw.WriteBits(final ? 1 : 0, 1);
  bw.WriteBits(2, 2);  // BTYPE=10 dynamic
  bw.WriteBits(hlit - 257, 5);
  bw.WriteBits(hdist - 1, 5);
  bw.WriteBits(hclen - 4, 4);
  for (int i = 0; i < hclen; ++i) {
    bw.WriteBits(clen_lengths[kClenOrder[i]], 3);
  }
  for (const ClenEntry& e : rle) {
    bw.WriteHuffmanCode(clen_codes[e.symbol], clen_lengths[e.symbol]);
    int extra = ClenExtraBits(e.symbol);
    if (extra > 0) bw.WriteBits(e.extra, extra);
  }
  WriteTokens(bw, tokens, dyn);
}

}  // namespace

Result<Buffer> DeflateCompress(ByteSpan input, const DeflateOptions& options) {
  Buffer out;
  BitWriter bw(&out);

  if (input.empty()) {
    // A single final fixed-Huffman block containing only end-of-block.
    bw.WriteBits(1, 1);
    bw.WriteBits(1, 2);
    BlockCodes fixed = FixedCodes();
    bw.WriteHuffmanCode(fixed.litlen_codes[kEndOfBlock],
                        fixed.litlen_lengths[kEndOfBlock]);
    bw.AlignToByte();
    return out;
  }

  std::vector<Token> tokens;
  std::vector<uint32_t> token_pos;
  Tokenize(input, ParamsForLevel(options.level), &tokens, &token_pos);

  constexpr size_t kMaxTokensPerBlock = 65536;
  size_t i = 0;
  while (i < tokens.size()) {
    size_t j = std::min(i + kMaxTokensPerBlock, tokens.size());
    size_t range_begin = token_pos[i];
    size_t range_end =
        (j == tokens.size()) ? input.size() : token_pos[j];
    std::vector<Token> block(tokens.begin() + i, tokens.begin() + j);
    bool final = (j == tokens.size());
    EncodeBlock(bw, block,
                input.subspan(range_begin, range_end - range_begin), final);
    i = j;
  }
  bw.AlignToByte();
  return out;
}

}  // namespace dpdpu::kern
