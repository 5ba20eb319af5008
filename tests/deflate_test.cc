// Tests for the DEFLATE codec: known-stream vectors, encode/decode
// round-trips across data shapes and levels (parameterized property
// sweep), Huffman utilities, and corruption handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "kern/bitio.h"
#include "kern/crc32.h"
#include "kern/deflate.h"
#include "kern/deflate_tables.h"
#include "kern/huffman.h"
#include "kern/textgen.h"

namespace dpdpu::kern {
namespace {

// --------------------------------------------------------------------------
// Bit I/O.
// --------------------------------------------------------------------------

TEST(BitIoTest, WriterReaderRoundTrip) {
  Buffer buf;
  BitWriter w(&buf);
  w.WriteBits(0b101, 3);
  w.WriteBits(0xFFFF, 16);
  w.WriteBits(0, 5);
  w.WriteBits(0b1101, 4);
  w.AlignToByte();

  BitReader r(buf.span());
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(3, &v));
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(r.ReadBits(16, &v));
  EXPECT_EQ(v, 0xFFFFu);
  ASSERT_TRUE(r.ReadBits(5, &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(r.ReadBits(4, &v));
  EXPECT_EQ(v, 0b1101u);
}

TEST(BitIoTest, LsbFirstPacking) {
  Buffer buf;
  BitWriter w(&buf);
  w.WriteBits(1, 1);  // bit 0 of first byte
  w.WriteBits(0, 1);
  w.WriteBits(1, 1);  // bit 2
  w.AlignToByte();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0b00000101);
}

TEST(BitIoTest, HuffmanCodeIsBitReversed) {
  Buffer buf;
  BitWriter w(&buf);
  // Code value 0b110 (MSB-first) must appear as bits 0,1,1.
  w.WriteHuffmanCode(0b110, 3);
  w.AlignToByte();
  EXPECT_EQ(buf[0], 0b00000011);
}

TEST(BitIoTest, ReaderUnderflow) {
  Buffer buf;
  buf.AppendU8(0xAA);
  BitReader r(buf.span());
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(8, &v));
  EXPECT_FALSE(r.ReadBits(1, &v));
}

TEST(BitIoTest, AlignToByteDiscardsPartial) {
  Buffer buf;
  buf.AppendU8(0xFF);
  buf.AppendU8(0x42);
  BitReader r(buf.span());
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(3, &v));
  r.AlignToByte();
  uint8_t b;
  ASSERT_TRUE(r.ReadAlignedByte(&b));
  EXPECT_EQ(b, 0x42);
}

TEST(BitIoTest, PeekConsumeMatchesReadBits) {
  // Interleave the bulk lookahead primitives with the classic ReadBits
  // path over a random stream: both views must see the same bits.
  Buffer data = GenerateRandomBytes(257, 42);
  BitReader peek_reader(data.span());
  BitReader read_reader(data.span());
  Pcg32 rng(7);
  size_t bits_left = data.size() * 8;
  while (bits_left > 0) {
    int count = int(1 + rng.NextBounded(16));
    if (size_t(count) > bits_left) count = int(bits_left);
    uint32_t expected;
    ASSERT_TRUE(read_reader.ReadBits(count, &expected));
    peek_reader.Refill();
    ASSERT_GE(peek_reader.bits_buffered(), count);
    EXPECT_EQ(peek_reader.PeekBits(count), expected);
    peek_reader.ConsumeBits(count);
    bits_left -= size_t(count);
  }
  // Fully drained: Refill at EOF leaves nothing and Peek pads with zeros.
  peek_reader.Refill();
  EXPECT_EQ(peek_reader.bits_buffered(), 0);
  EXPECT_EQ(peek_reader.PeekBits(10), 0u);
}

TEST(BitIoTest, RefillPreservesAlignedByteReads) {
  // Refill's masked bulk load must keep the "bits >= filled_ are zero"
  // invariant that ReadAlignedByte depends on after AlignToByte.
  Buffer data = GenerateRandomBytes(64, 5);
  BitReader r(data.span());
  r.Refill();
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(3, &v));
  r.AlignToByte();
  for (size_t i = 1; i < data.size(); ++i) {
    uint8_t b;
    ASSERT_TRUE(r.ReadAlignedByte(&b)) << i;
    EXPECT_EQ(b, data[i]) << i;
    if (i % 7 == 0) r.Refill();  // refill mid-stream must not corrupt
  }
  uint8_t b;
  EXPECT_FALSE(r.ReadAlignedByte(&b));
}

TEST(BitIoTest, RefillNearEndOfStream) {
  // Streams shorter than one bulk load go through the byte-wise path.
  for (size_t len : {size_t(1), size_t(3), size_t(7), size_t(8), size_t(9)}) {
    Buffer data = GenerateRandomBytes(len, 11);
    BitReader r(data.span());
    r.Refill();
    EXPECT_EQ(r.bits_buffered(), int(std::min<size_t>(len, 7) * 8))
        << "len=" << len;
    BitReader ref(data.span());
    for (size_t i = 0; i < len; ++i) {
      uint32_t expected;
      ASSERT_TRUE(ref.ReadBits(8, &expected));
      r.Refill();
      ASSERT_GE(r.bits_buffered(), 8);
      EXPECT_EQ(r.PeekBits(8), expected);
      r.ConsumeBits(8);
    }
  }
}

// --------------------------------------------------------------------------
// Huffman utilities.
// --------------------------------------------------------------------------

TEST(HuffmanTest, PackageMergeKraftEquality) {
  std::vector<uint64_t> freqs = {45, 13, 12, 16, 9, 5};
  std::vector<uint8_t> lengths = PackageMergeLengths(freqs, 15);
  double kraft = 0;
  for (uint8_t l : lengths) {
    ASSERT_GT(l, 0);
    kraft += 1.0 / double(1ull << l);
  }
  EXPECT_DOUBLE_EQ(kraft, 1.0);
}

TEST(HuffmanTest, PackageMergeIsOptimalForClassicExample) {
  // Frequencies 5,9,12,13,16,45: optimal Huffman cost = 224.
  std::vector<uint64_t> freqs = {5, 9, 12, 13, 16, 45};
  std::vector<uint8_t> lengths = PackageMergeLengths(freqs, 15);
  uint64_t cost = 0;
  for (size_t i = 0; i < freqs.size(); ++i) cost += freqs[i] * lengths[i];
  EXPECT_EQ(cost, 224u);
}

TEST(HuffmanTest, PackageMergeRespectsLengthLimit) {
  // Fibonacci-ish weights force deep unbounded Huffman trees.
  std::vector<uint64_t> freqs;
  uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    uint64_t next = a + b;
    a = b;
    b = next;
  }
  for (int limit : {15, 10, 7}) {
    std::vector<uint8_t> lengths = PackageMergeLengths(freqs, limit);
    double kraft = 0;
    for (uint8_t l : lengths) {
      ASSERT_LE(l, limit);
      ASSERT_GT(l, 0);
      kraft += 1.0 / double(1ull << l);
    }
    EXPECT_LE(kraft, 1.0 + 1e-12);
  }
}

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  std::vector<uint64_t> freqs = {0, 7, 0};
  std::vector<uint8_t> lengths = PackageMergeLengths(freqs, 15);
  EXPECT_EQ(lengths[0], 0);
  EXPECT_EQ(lengths[1], 1);
  EXPECT_EQ(lengths[2], 0);
}

TEST(HuffmanTest, CanonicalCodesMatchRfcExample) {
  // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) ->
  // codes 010,011,100,101,110,00,1110,1111.
  std::vector<uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  std::vector<uint32_t> codes = CanonicalCodes(lengths);
  EXPECT_EQ(codes, (std::vector<uint32_t>{2, 3, 4, 5, 6, 0, 14, 15}));
}

TEST(HuffmanTest, DecoderRoundTripsCanonicalCode) {
  std::vector<uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  std::vector<uint32_t> codes = CanonicalCodes(lengths);
  auto decoder_or = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(decoder_or.ok());
  const HuffmanDecoder& dec = *decoder_or;

  for (int sym = 0; sym < 8; ++sym) {
    Buffer buf;
    BitWriter w(&buf);
    w.WriteHuffmanCode(codes[sym], lengths[sym]);
    w.AlignToByte();
    BitReader r(buf.span());
    int got;
    ASSERT_TRUE(dec.Decode(r, &got).ok());
    EXPECT_EQ(got, sym);
  }
}

TEST(HuffmanTest, DecoderRejectsOversubscribed) {
  std::vector<uint8_t> lengths = {1, 1, 1};  // Kraft sum 1.5
  EXPECT_TRUE(HuffmanDecoder::Build(lengths).status().IsCorruption());
}

TEST(HuffmanTest, DecoderFlagsUnassignedCode) {
  // Single symbol of length 1: code '1' is unassigned.
  std::vector<uint8_t> lengths = {1};
  auto dec = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(dec.ok());
  Buffer buf;
  buf.AppendU8(0xFF);
  BitReader r(buf.span());
  int sym;
  EXPECT_TRUE(dec->Decode(r, &sym).IsCorruption())
      << "code of all ones must not decode";
}

// --------------------------------------------------------------------------
// Known DEFLATE streams (hand-built per RFC 1951).
// --------------------------------------------------------------------------

TEST(InflateTest, StoredBlockVector) {
  // BFINAL=1 BTYPE=00, LEN=3 NLEN=~3, payload "abc".
  const uint8_t stream[] = {0x01, 0x03, 0x00, 0xFC, 0xFF, 'a', 'b', 'c'};
  auto out = DeflateDecompress(ByteSpan(stream, sizeof(stream)));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->ToString(), "abc");
}

TEST(InflateTest, EmptyFixedBlockVector) {
  // BFINAL=1 BTYPE=01 then the 7-bit EOB code 0000000: bytes 03 00.
  const uint8_t stream[] = {0x03, 0x00};
  auto out = DeflateDecompress(ByteSpan(stream, sizeof(stream)));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->empty());
}

TEST(InflateTest, RejectsReservedBlockType) {
  const uint8_t stream[] = {0x07};  // BFINAL=1 BTYPE=11
  EXPECT_TRUE(DeflateDecompress(ByteSpan(stream, sizeof(stream)))
                  .status()
                  .IsCorruption());
}

TEST(InflateTest, RejectsBadStoredNlen) {
  const uint8_t stream[] = {0x01, 0x03, 0x00, 0x00, 0x00, 'a', 'b', 'c'};
  EXPECT_TRUE(DeflateDecompress(ByteSpan(stream, sizeof(stream)))
                  .status()
                  .IsCorruption());
}

TEST(InflateTest, RejectsTruncatedStream) {
  Buffer text = GenerateText(10000, {});
  auto compressed = DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  for (size_t cut : {size_t(0), size_t(1), compressed->size() / 2,
                     compressed->size() - 1}) {
    auto out = DeflateDecompress(compressed->span().subspan(0, cut));
    EXPECT_FALSE(out.ok()) << "cut=" << cut;
  }
}

TEST(InflateTest, RejectsDistanceBeforeStart) {
  // Fixed block: literal 'a' (0x61 -> code 0x91, 8 bits) then a match
  // would reference beyond output; simplest: match at output size 0.
  // Construct: BTYPE=01, immediately a length code then distance 1.
  Buffer buf;
  BitWriter w(&buf);
  w.WriteBits(1, 1);
  w.WriteBits(1, 2);
  // Length symbol 257 (len 3): fixed code for 257 = 0000001 (7 bits).
  w.WriteHuffmanCode(1, 7);
  // Distance symbol 0 (dist 1): 5-bit code 00000.
  w.WriteHuffmanCode(0, 5);
  // EOB.
  w.WriteHuffmanCode(0, 7);
  w.AlignToByte();
  EXPECT_TRUE(DeflateDecompress(buf.span()).status().IsCorruption());
}

TEST(InflateTest, OutputLimitEnforced) {
  Buffer text = GenerateText(100000, {});
  auto compressed = DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  auto out = DeflateDecompress(compressed->span(), 1000);
  EXPECT_TRUE(out.status().IsResourceExhausted());
}

// --------------------------------------------------------------------------
// Round trips.
// --------------------------------------------------------------------------

void ExpectRoundTrip(ByteSpan input, int level) {
  auto compressed = DeflateCompress(input, DeflateOptions{level});
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  auto restored = DeflateDecompress(compressed->span());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->size(), input.size());
  EXPECT_TRUE(std::equal(input.begin(), input.end(), restored->data()));
}

TEST(DeflateTest, EmptyInput) {
  ExpectRoundTrip(ByteSpan(), 6);
  auto compressed = DeflateCompress(ByteSpan());
  ASSERT_TRUE(compressed.ok());
  EXPECT_LE(compressed->size(), 2u);
}

TEST(DeflateTest, SingleByte) {
  uint8_t b = 'x';
  ExpectRoundTrip(ByteSpan(&b, 1), 6);
}

TEST(DeflateTest, ShortString) {
  Buffer in("hello, hello, hello world");
  ExpectRoundTrip(in.span(), 6);
}

TEST(DeflateTest, AllZeros) {
  Buffer in(size_t(100000));
  ExpectRoundTrip(in.span(), 6);
  auto compressed = DeflateCompress(in.span());
  ASSERT_TRUE(compressed.ok());
  // Highly repetitive input must compress drastically.
  EXPECT_LT(compressed->size(), in.size() / 100);
}

TEST(DeflateTest, TextCompressesWell) {
  Buffer text = GenerateText(1 << 20, {});
  auto compressed = DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  double ratio = double(text.size()) / double(compressed->size());
  // Zipfian synthetic text should land in the English-text range.
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 10.0);
  ExpectRoundTrip(text.span(), 6);
}

TEST(DeflateTest, RandomDataFallsBackToStored) {
  Buffer random = GenerateRandomBytes(1 << 16);
  auto compressed = DeflateCompress(random.span());
  ASSERT_TRUE(compressed.ok());
  // Incompressible: stored blocks cap expansion at a tiny overhead.
  EXPECT_LT(compressed->size(), random.size() + random.size() / 100 + 64);
  ExpectRoundTrip(random.span(), 6);
}

TEST(DeflateTest, MaxLengthMatches) {
  // Period-1 run longer than kMaxMatch exercises 258-byte matches.
  Buffer in(size_t(1000));
  for (size_t i = 0; i < in.size(); ++i) in[i] = 'A';
  ExpectRoundTrip(in.span(), 6);
}

TEST(DeflateTest, OverlappingCopySemantics) {
  // "abcabcabc..." gives dist=3 matches with len > dist.
  Buffer in;
  for (int i = 0; i < 5000; ++i) in.AppendU8("abc"[i % 3]);
  ExpectRoundTrip(in.span(), 6);
}

TEST(DeflateTest, ZipfianCorporaPropertySweep) {
  // inflate(deflate(x)) == x across Zipfian corpora with varied skew,
  // vocabulary, and seed: drives the LUT decode + bulk-refill + word-wise
  // copy fast paths over realistically shaped symbol distributions.
  for (uint64_t seed : {1ull, 77ull, 991ull}) {
    for (double theta : {0.5, 0.95}) {
      for (uint32_t vocab : {256u, 8192u}) {
        TextGenOptions options;
        options.seed = seed;
        options.vocabulary = vocab;
        options.zipf_theta = theta;
        Buffer text = GenerateText(96 * 1024, options);
        ExpectRoundTrip(text.span(), 1);
        ExpectRoundTrip(text.span(), 6);
      }
    }
  }
}

TEST(DeflateTest, WindowBoundaryMatches) {
  // Repeat a motif at exactly the 32 KB window distance.
  Buffer motif = GenerateRandomBytes(512, 3);
  Buffer in;
  in.Append(motif.span());
  Buffer filler = GenerateRandomBytes(kWindowSize - 512, 4);
  in.Append(filler.span());
  in.Append(motif.span());  // motif begins exactly 32768 bytes after itself
  ExpectRoundTrip(in.span(), 9);
}

TEST(DeflateTest, MultiBlockInput) {
  // > 65536 tokens forces multiple blocks.
  Buffer random = GenerateRandomBytes(300000, 9);
  ExpectRoundTrip(random.span(), 1);
}

TEST(DeflateTest, HigherLevelNeverMuchWorse) {
  Buffer text = GenerateText(1 << 18, {});
  auto fast = DeflateCompress(text.span(), DeflateOptions{1});
  auto best = DeflateCompress(text.span(), DeflateOptions{9});
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(best.ok());
  EXPECT_LE(best->size(), fast->size() + fast->size() / 50);
}

// Property sweep: (generator, size, level) grid round-trips.
class DeflateRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, size_t, int>> {};

TEST_P(DeflateRoundTrip, RoundTrips) {
  auto [gen, size, level] = GetParam();
  Buffer input;
  switch (gen) {
    case 0:
      input = GenerateText(size, {uint64_t(size + level), 4096, 0.95});
      break;
    case 1:
      input = GenerateRandomBytes(size, size + level);
      break;
    case 2: {  // low-entropy structured binary
      Pcg32 rng(size + level);
      input.resize(size);
      for (size_t i = 0; i < size; ++i) {
        input[i] = static_cast<uint8_t>(rng.NextBounded(4) * 7);
      }
      break;
    }
    default: {  // long runs with interspersed noise
      Pcg32 rng(size);
      while (input.size() < size) {
        uint8_t b = static_cast<uint8_t>(rng.Next());
        size_t run = 1 + rng.NextBounded(400);
        for (size_t i = 0; i < run && input.size() < size; ++i) {
          input.AppendU8(b);
        }
      }
      break;
    }
  }
  ExpectRoundTrip(input.span(), level);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DeflateRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(size_t(1), size_t(100),
                                         size_t(4096), size_t(70000)),
                       ::testing::Values(1, 6, 9)));

// Fuzz-ish: decompressing random garbage must never crash and must fail
// cleanly (or succeed, which random bytes occasionally do for tiny
// stored-block-shaped prefixes — either way, no UB).
TEST(InflateTest, RandomGarbageNeverCrashes) {
  Pcg32 rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 1 + rng.NextBounded(300);
    Buffer garbage(n);
    FillRandomBytes(rng, garbage.data(), n);
    auto out = DeflateDecompress(garbage.span(), 1 << 20);
    (void)out;  // outcome irrelevant; absence of crash is the assertion
  }
}

// Mutate valid streams: every single-bit corruption must be handled
// gracefully (clean error or output of bounded size, never a crash).
TEST(InflateTest, BitFlipsHandledGracefully) {
  Buffer text = GenerateText(5000, {});
  auto compressed = DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  Pcg32 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    Buffer mutated = *compressed;
    size_t byte = rng.NextBounded(static_cast<uint32_t>(mutated.size()));
    mutated[byte] ^= uint8_t(1u << rng.NextBounded(8));
    auto out = DeflateDecompress(mutated.span(), 1 << 22);
    (void)out;
  }
}

// The encoder's exact output. Every metric that depends on compressed
// sizes (compress ratios, simulated transfer and latency figures) moves
// with these bytes, so a change that alters them must update the values
// here and list what moved.
TEST(DeflateTest, OutputBytesArePinned) {
  struct Pin {
    int level;
    size_t size;
    uint32_t crc;
  };
  Buffer text = GenerateText(64 << 10, {});
  Buffer random = GenerateRandomBytes(64 << 10, 1);
  for (const Pin& pin : {Pin{1, 23713, 0xf95d01c7}, Pin{6, 21367, 0xae5f87f1},
                         Pin{9, 20881, 0x1b7e7fc3}}) {
    auto out = DeflateCompress(text.span(), DeflateOptions{pin.level});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), pin.size) << "text, level " << pin.level;
    EXPECT_EQ(Crc32(out->span()), pin.crc) << "text, level " << pin.level;
  }
  for (int level : {1, 6, 9}) {
    auto out = DeflateCompress(random.span(), DeflateOptions{level});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 65546u) << "random, level " << level;
    EXPECT_EQ(Crc32(out->span()), 0xff232f54u) << "random, level " << level;
  }
  // 1 MB splits into several 65536-token blocks.
  Buffer large = GenerateText(1 << 20, {});
  auto out = DeflateCompress(large.span(), DeflateOptions{1});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 369533u);
  EXPECT_EQ(Crc32(out->span()), 0x0a0465b3u);
}

TEST(LengthSymbolTest, BoundariesMatchRfcTables) {
  EXPECT_EQ(LengthToSymbol(3), 257);
  EXPECT_EQ(LengthToSymbol(4), 258);
  EXPECT_EQ(LengthToSymbol(10), 264);
  EXPECT_EQ(LengthToSymbol(11), 265);
  EXPECT_EQ(LengthToSymbol(12), 265);
  EXPECT_EQ(LengthToSymbol(13), 266);
  EXPECT_EQ(LengthToSymbol(257), 284);
  EXPECT_EQ(LengthToSymbol(258), 285);
}

TEST(DistanceSymbolTest, BoundariesMatchRfcTables) {
  EXPECT_EQ(DistanceToSymbol(1), 0);
  EXPECT_EQ(DistanceToSymbol(4), 3);
  EXPECT_EQ(DistanceToSymbol(5), 4);
  EXPECT_EQ(DistanceToSymbol(6), 4);
  EXPECT_EQ(DistanceToSymbol(7), 5);
  EXPECT_EQ(DistanceToSymbol(24577), 29);
  EXPECT_EQ(DistanceToSymbol(32768), 29);
}

TEST(SymbolTablesTest, EveryLengthAndDistanceInItsRfcRange) {
  for (int len = kMinMatch; len <= kMaxMatch; ++len) {
    int code = LengthToSymbol(len) - 257;
    ASSERT_GE(len, kLengthBase[code]) << len;
    ASSERT_LT(len - kLengthBase[code], 1 << kLengthExtra[code]) << len;
  }
  for (int dist = 1; dist <= kWindowSize; ++dist) {
    int code = DistanceToSymbol(dist);
    ASSERT_GE(dist, kDistBase[code]) << dist;
    ASSERT_LT(dist - kDistBase[code], 1 << kDistExtra[code]) << dist;
  }
}

}  // namespace
}  // namespace dpdpu::kern
