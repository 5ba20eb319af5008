// Tests for the non-DEFLATE software kernels: CRC32, ChaCha20 (RFC 8439
// vectors), regex engine, dedup chunker, relational kernels, textgen.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kern/chacha20.h"
#include "kern/crc32.h"
#include "kern/dedup.h"
#include "kern/regex.h"
#include "kern/relational.h"
#include "kern/textgen.h"
#include "kern/zlib_format.h"

namespace dpdpu::kern {
namespace {

// --------------------------------------------------------------------------
// CRC32.
// --------------------------------------------------------------------------

TEST(Crc32Test, StandardCheckValue) {
  Buffer in("123456789");
  EXPECT_EQ(Crc32(in.span()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(ByteSpan()), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Buffer in("the quick brown fox jumps over the lazy dog");
  uint32_t whole = Crc32(in.span());
  uint32_t crc = 0;
  crc = Crc32Update(crc, in.span().subspan(0, 10));
  crc = Crc32Update(crc, in.span().subspan(10));
  EXPECT_EQ(crc, whole);
}

TEST(Crc32Test, SliceBy8MatchesBytewiseReference) {
  // The slice-by-8 fast path must agree with the byte-at-a-time table
  // walk for every length and alignment, including chunks split at
  // arbitrary points (which exercises the <8-byte head/tail paths).
  Buffer data = GenerateRandomBytes(4096, 99);
  Pcg32 rng(1234);
  for (size_t len : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9),
                     size_t(63), size_t(64), size_t(65), size_t(1000),
                     size_t(4096)}) {
    ByteSpan span = data.span().subspan(0, len);
    uint32_t fast = Crc32(span);
    uint32_t slow = Crc32UpdateBytewise(0, span);
    EXPECT_EQ(fast, slow) << "len=" << len;

    // Random split points: incremental slice-by-8 over pieces must match
    // too (the CRC is a function of the byte stream, not the chunking).
    uint32_t pieced = 0;
    size_t pos = 0;
    while (pos < len) {
      size_t chunk = 1 + rng.NextBounded(uint32_t(len - pos));
      pieced = Crc32Update(pieced, span.subspan(pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(pieced, fast) << "len=" << len;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  Buffer in = GenerateRandomBytes(1024, 5);
  uint32_t orig = Crc32(in.span());
  for (int i = 0; i < 50; ++i) {
    Buffer mutated = in;
    mutated[i * 20] ^= 1;
    EXPECT_NE(Crc32(mutated.span()), orig);
  }
}

// --------------------------------------------------------------------------
// ChaCha20 (RFC 8439 §2.3.2 and §2.4.2 vectors).
// --------------------------------------------------------------------------

std::array<uint8_t, 32> Rfc8439Key() {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  return key;
}

TEST(ChaCha20Test, Rfc8439BlockFunctionVector) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  auto block = ChaCha20Block(key, nonce, 1);
  const uint8_t expected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  EXPECT_TRUE(std::equal(block.begin(), block.end(), expected));
}

TEST(ChaCha20Test, Rfc8439EncryptionVector) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  Buffer plaintext(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Buffer ct = ChaCha20Xor(key, nonce, 1, plaintext.span());
  const uint8_t expected_first16[16] = {0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68,
                                        0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
                                        0xdd, 0x0d, 0x69, 0x81};
  ASSERT_GE(ct.size(), 16u);
  EXPECT_TRUE(std::equal(expected_first16, expected_first16 + 16, ct.data()));
  // Last 4 bytes of the RFC ciphertext.
  const uint8_t expected_tail[4] = {0x5e, 0x42, 0x87, 0x4d};
  EXPECT_TRUE(std::equal(expected_tail, expected_tail + 4,
                         ct.data() + ct.size() - 4));
}

TEST(ChaCha20Test, XorIsItsOwnInverse) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> nonce{};
  Buffer plaintext = GenerateRandomBytes(10000, 77);
  Buffer ct = ChaCha20Xor(key, nonce, 0, plaintext.span());
  EXPECT_FALSE(ct == plaintext);
  Buffer back = ChaCha20Xor(key, nonce, 0, ct.span());
  EXPECT_EQ(back, plaintext);
}

TEST(ChaCha20Test, DifferentNoncesDiverge) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> n1{}, n2{};
  n2[0] = 1;
  Buffer pt = GenerateRandomBytes(256, 8);
  Buffer c1 = ChaCha20Xor(key, n1, 0, pt.span());
  Buffer c2 = ChaCha20Xor(key, n2, 0, pt.span());
  EXPECT_FALSE(c1 == c2);
}

TEST(ChaCha20Test, NonBlockAlignedLengths) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> nonce{};
  for (size_t n : {1u, 63u, 64u, 65u, 127u, 129u}) {
    Buffer pt = GenerateRandomBytes(n, n);
    Buffer ct = ChaCha20Xor(key, nonce, 0, pt.span());
    Buffer back = ChaCha20Xor(key, nonce, 0, ct.span());
    EXPECT_EQ(back, pt) << "n=" << n;
  }
}


// --------------------------------------------------------------------------
// zlib container format (RFC 1950).
// --------------------------------------------------------------------------

TEST(ZlibTest, Adler32KnownVectors) {
  // Adler-32 of "Wikipedia" (the RFC's worked example elsewhere).
  Buffer wiki("Wikipedia");
  EXPECT_EQ(Adler32(wiki.span()), 0x11E60398u);
  EXPECT_EQ(Adler32(ByteSpan()), 1u);
}

TEST(ZlibTest, Adler32IncrementalMatchesOneShot) {
  Buffer data = GenerateText(100000, {});
  uint32_t whole = Adler32(data.span());
  uint32_t adler = 1;
  adler = Adler32Update(adler, data.span().subspan(0, 33333));
  adler = Adler32Update(adler, data.span().subspan(33333));
  EXPECT_EQ(adler, whole);
}

TEST(ZlibTest, RoundTrip) {
  Buffer text = GenerateText(200000, {});
  auto z = ZlibCompress(text.span());
  ASSERT_TRUE(z.ok());
  // RFC 1950 header: 0x78 0x9C is the ubiquitous default marker.
  EXPECT_EQ((*z)[0], 0x78);
  EXPECT_EQ((*z)[1], 0x9C);
  auto back = ZlibDecompress(z->span());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, text);
}

TEST(ZlibTest, RejectsBadHeader) {
  Buffer text("hello zlib");
  auto z = ZlibCompress(text.span());
  ASSERT_TRUE(z.ok());
  Buffer bad = *z;
  bad[0] = 0x79;  // method nibble wrong
  EXPECT_TRUE(ZlibDecompress(bad.span()).status().IsCorruption());
  bad = *z;
  bad[1] ^= 1;  // FCHECK broken
  EXPECT_TRUE(ZlibDecompress(bad.span()).status().IsCorruption());
}

TEST(ZlibTest, DetectsPayloadCorruptionViaAdler) {
  Buffer text = GenerateText(50000, {});
  auto z = ZlibCompress(text.span());
  ASSERT_TRUE(z.ok());
  // Flip a bit in the stored checksum itself: inflate succeeds but the
  // Adler comparison must fail.
  Buffer bad = *z;
  bad[bad.size() - 1] ^= 1;
  EXPECT_TRUE(ZlibDecompress(bad.span()).status().IsCorruption());
}

TEST(ZlibTest, TooShortRejected) {
  Buffer tiny("ab");
  EXPECT_TRUE(ZlibDecompress(tiny.span()).status().IsCorruption());
}

// --------------------------------------------------------------------------
// Regex.
// --------------------------------------------------------------------------

bool Full(const std::string& pattern, const std::string& text) {
  auto re = Regex::Compile(pattern);
  EXPECT_TRUE(re.ok()) << pattern << ": " << re.status();
  return re.ok() && re->FullMatch(text);
}

bool Partial(const std::string& pattern, const std::string& text) {
  auto re = Regex::Compile(pattern);
  EXPECT_TRUE(re.ok()) << pattern << ": " << re.status();
  return re.ok() && re->PartialMatch(text);
}

TEST(RegexTest, Literals) {
  EXPECT_TRUE(Full("abc", "abc"));
  EXPECT_FALSE(Full("abc", "abd"));
  EXPECT_FALSE(Full("abc", "ab"));
  EXPECT_FALSE(Full("abc", "abcd"));
}

TEST(RegexTest, Dot) {
  EXPECT_TRUE(Full("a.c", "abc"));
  EXPECT_TRUE(Full("a.c", "axc"));
  EXPECT_FALSE(Full("a.c", "a\nc"));  // dot excludes newline
}

TEST(RegexTest, StarPlusQuestion) {
  EXPECT_TRUE(Full("ab*c", "ac"));
  EXPECT_TRUE(Full("ab*c", "abbbbc"));
  EXPECT_FALSE(Full("ab+c", "ac"));
  EXPECT_TRUE(Full("ab+c", "abc"));
  EXPECT_TRUE(Full("ab?c", "ac"));
  EXPECT_TRUE(Full("ab?c", "abc"));
  EXPECT_FALSE(Full("ab?c", "abbc"));
}

TEST(RegexTest, Alternation) {
  EXPECT_TRUE(Full("cat|dog", "cat"));
  EXPECT_TRUE(Full("cat|dog", "dog"));
  EXPECT_FALSE(Full("cat|dog", "cow"));
  EXPECT_TRUE(Full("a(b|c)d", "abd"));
  EXPECT_TRUE(Full("a(b|c)d", "acd"));
}

TEST(RegexTest, CharacterClasses) {
  EXPECT_TRUE(Full("[abc]+", "abcba"));
  EXPECT_FALSE(Full("[abc]+", "abd"));
  EXPECT_TRUE(Full("[a-z0-9]+", "abc123"));
  EXPECT_TRUE(Full("[^0-9]+", "hello"));
  EXPECT_FALSE(Full("[^0-9]+", "hell0"));
}

TEST(RegexTest, Escapes) {
  EXPECT_TRUE(Full("\\d+", "12345"));
  EXPECT_FALSE(Full("\\d+", "12a45"));
  EXPECT_TRUE(Full("\\w+", "hello_World9"));
  EXPECT_TRUE(Full("\\s", " "));
  EXPECT_TRUE(Full("\\D+", "abc"));
  EXPECT_TRUE(Full("a\\.b", "a.b"));
  EXPECT_FALSE(Full("a\\.b", "axb"));
  EXPECT_TRUE(Full("a\\\\b", "a\\b"));
}

TEST(RegexTest, BraceQuantifiers) {
  EXPECT_TRUE(Full("a{3}", "aaa"));
  EXPECT_FALSE(Full("a{3}", "aa"));
  EXPECT_FALSE(Full("a{3}", "aaaa"));
  EXPECT_TRUE(Full("a{2,4}", "aa"));
  EXPECT_TRUE(Full("a{2,4}", "aaaa"));
  EXPECT_FALSE(Full("a{2,4}", "aaaaa"));
  EXPECT_TRUE(Full("a{2,}", "aaaaaaa"));
  EXPECT_FALSE(Full("a{2,}", "a"));
}

TEST(RegexTest, Anchors) {
  EXPECT_TRUE(Partial("^abc", "abcdef"));
  EXPECT_FALSE(Partial("^abc", "xabc"));
  EXPECT_TRUE(Partial("def$", "abcdef"));
  EXPECT_FALSE(Partial("def$", "defabc"));
  EXPECT_TRUE(Full("^abc$", "abc"));
}

TEST(RegexTest, PartialVsFull) {
  EXPECT_TRUE(Partial("ell", "hello"));
  EXPECT_FALSE(Full("ell", "hello"));
  EXPECT_TRUE(Partial("\\d{3}", "order 12345 shipped"));
}

TEST(RegexTest, CountMatches) {
  auto re = Regex::Compile("\\d+");
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re->CountMatches("a1b22c333"), 3u);
  EXPECT_EQ(re->CountMatches("no digits"), 0u);
  EXPECT_EQ(re->CountMatches("123"), 1u);  // longest, not 3 separate
}

TEST(RegexTest, CountNonOverlapping) {
  auto re = Regex::Compile("aa");
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re->CountMatches("aaaa"), 2u);
}

TEST(RegexTest, PathologicalPatternStaysLinear) {
  // (a?){25}a{25} against "a"*25 kills backtrackers; the Pike VM is fine.
  std::string pattern;
  for (int i = 0; i < 25; ++i) pattern += "a?";
  for (int i = 0; i < 25; ++i) pattern += "a";
  std::string text(25, 'a');
  EXPECT_TRUE(Full(pattern, text));
}

TEST(RegexTest, SyntaxErrors) {
  EXPECT_TRUE(Regex::Compile("(abc").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("abc)").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("[abc").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("*a").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("a{5,2}").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("a{999}").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("a\\").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("[z-a]").status().IsInvalidArgument());
}

TEST(RegexTest, EmptyPatternMatchesEmpty) {
  EXPECT_TRUE(Full("", ""));
  EXPECT_FALSE(Full("", "x"));
  EXPECT_TRUE(Partial("", "anything"));
}

TEST(RegexTest, ClassWithLeadingBracket) {
  EXPECT_TRUE(Full("[]a]+", "]a]"));  // ']' first in class is a literal
}

// The lazy DFA against the Pike VM it falls back to: seeded random
// patterns over every supported construct, compared on all three entry
// points.
class RandomPattern {
 public:
  explicit RandomPattern(uint64_t seed) : rng_(seed) {}

  std::string Next() { return Alternate(2); }

 private:
  std::string Alternate(int depth) {
    std::string out = Concat(depth);
    while (rng_.NextBounded(4) == 0) {
      out += '|';
      out += Concat(depth);
    }
    return out;
  }

  std::string Concat(int depth) {
    std::string out;
    int pieces = int(rng_.NextBounded(4));  // 0 pieces: empty alternative
    for (int i = 0; i < pieces; ++i) out += Repeat(depth);
    return out;
  }

  std::string Repeat(int depth) {
    std::string atom = Atom(depth);
    switch (rng_.NextBounded(10)) {
      case 0: return atom + "*";
      case 1: return atom + "+";
      case 2: return atom + "?";
      case 3: return atom + "{" + Count() + "}";
      case 4: return atom + "{" + Count() + ",}";
      case 5: {
        uint32_t m = rng_.NextBounded(3);
        return atom + "{" + std::to_string(m) + "," +
               std::to_string(m + rng_.NextBounded(3)) + "}";
      }
      default: return atom;
    }
  }

  std::string Atom(int depth) {
    static constexpr const char* kLiterals[] = {"a", "b", "e", "t", "i",
                                                "n", " ", "\\."};
    static constexpr const char* kClasses[] = {
        "[ab]", "[a-e]", "[e-t]", "[^ab]", "[^a-z]", "[^ ]", ".",
        "\\w",  "\\d",   "\\s",   "\\W"};
    switch (rng_.NextBounded(depth > 0 ? 12 : 10)) {
      case 0: case 1: case 2: case 3:
        return kLiterals[rng_.NextBounded(8)];
      case 4: case 5: case 6:
        return kClasses[rng_.NextBounded(11)];
      case 7: return "^";
      case 8: return "$";
      case 9: return "a";
      default: {
        std::string group = "(";
        group += Alternate(depth - 1);
        return group + ")";
      }
    }
  }

  std::string Count() { return std::to_string(rng_.NextBounded(4)); }

  Pcg32 rng_;
};

void ExpectEnginesAgree(const Regex& re, std::string_view text) {
  using Engine = Regex::Engine;
  EXPECT_EQ(re.FullMatch(text), re.FullMatch(text, Engine::kPikeVm));
  EXPECT_EQ(re.PartialMatch(text), re.PartialMatch(text, Engine::kPikeVm));
  EXPECT_EQ(re.CountMatches(text), re.CountMatches(text, Engine::kPikeVm));
}

TEST(RegexTest, LazyDfaMatchesPikeVmOnRandomPatterns) {
  Buffer text = GenerateText(512, {});
  Buffer random = GenerateRandomBytes(512, 3);
  std::vector<std::string> patterns = {"x*", "a?b*", "", "^", "$", "^$",
                                       "(a|)*", "a*$", "^a*", "$a|b^"};
  RandomPattern gen(11);
  while (patterns.size() < 400) patterns.push_back(gen.Next());
  Pcg32 rng(5);
  int fallbacks = 0;
  for (const std::string& pattern : patterns) {
    SCOPED_TRACE("pattern: " + pattern);
    auto re = Regex::Compile(pattern);
    ASSERT_TRUE(re.ok()) << re.status();
    ExpectEnginesAgree(*re, text.view());
    ExpectEnginesAgree(*re, random.view());
    for (int i = 0; i < 12; ++i) {
      std::string ab(rng.NextBounded(9), 'a');
      for (char& c : ab) c = rng.NextBounded(2) ? 'a' : 'b';
      ExpectEnginesAgree(*re, ab);
    }
    Regex::ScanStats stats;
    re->CountMatches(text.view(), Regex::Engine::kLazyDfa, &stats);
    EXPECT_GT(stats.dfa_states, 1u);
    fallbacks += stats.pike_vm_fallback;
  }
  EXPECT_EQ(fallbacks, 0);  // these patterns all fit under the cap
}

TEST(RegexTest, StateCapFallsBackToPikeVmMidScan) {
  // (a|b)*a(a|b){12} needs one DFA state per distinct 13-byte window of
  // a's and b's: far more than the cap. 'c' separators end each match,
  // so the DFA counts the early runs and the Pike VM the later ones.
  Pcg32 rng(9);
  std::string text;
  while (text.size() < 12000) {
    size_t run = 100 + rng.NextBounded(400);
    for (size_t i = 0; i < run; ++i) text += rng.NextBounded(2) ? 'a' : 'b';
    text += 'c';
  }
  auto re = Regex::Compile("(a|b)*a(a|b){12}");
  ASSERT_TRUE(re.ok());
  Regex::ScanStats stats;
  size_t dfa = re->CountMatches(text, Regex::Engine::kLazyDfa, &stats);
  EXPECT_TRUE(stats.pike_vm_fallback);
  EXPECT_EQ(stats.dfa_states, Regex::kMaxDfaStates);
  EXPECT_EQ(dfa, re->CountMatches(text, Regex::Engine::kPikeVm));
  EXPECT_GT(dfa, 10u);
  EXPECT_EQ(re->PartialMatch(text), re->PartialMatch(text, Regex::Engine::kPikeVm));
  EXPECT_FALSE(re->FullMatch(text));
  EXPECT_FALSE(re->FullMatch(text, Regex::Engine::kPikeVm));
}

// --------------------------------------------------------------------------
// Dedup.
// --------------------------------------------------------------------------

TEST(DedupTest, ChunksCoverInputExactly) {
  Buffer data = GenerateText(500000, {});
  auto chunks = ChunkData(data.span());
  ASSERT_FALSE(chunks.empty());
  size_t expected_offset = 0;
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.offset, expected_offset);
    expected_offset += c.size;
  }
  EXPECT_EQ(expected_offset, data.size());
}

TEST(DedupTest, ChunkSizesRespectBounds) {
  Buffer data = GenerateRandomBytes(1 << 20, 42);
  ChunkerOptions opts;
  auto chunks = ChunkData(data.span(), opts);
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {  // last may be short
    EXPECT_GE(chunks[i].size, opts.min_size);
    EXPECT_LE(chunks[i].size, opts.max_size);
  }
  // Average within a reasonable factor of the target.
  double avg = double(data.size()) / double(chunks.size());
  EXPECT_GT(avg, opts.avg_size / 4.0);
  EXPECT_LT(avg, opts.avg_size * 4.0);
}

TEST(DedupTest, BoundariesShiftInvariant) {
  // Content-defined chunking: inserting bytes at the front must not
  // change chunk boundaries far from the edit.
  Buffer data = GenerateRandomBytes(300000, 11);
  Buffer shifted;
  shifted.Append("PREFIX-INSERTED-BYTES");
  shifted.Append(data.span());

  auto base = ChunkData(data.span());
  auto after = ChunkData(shifted.span());
  // Collect fingerprints; most of the original chunk set must survive.
  std::vector<uint64_t> base_fp, after_fp;
  for (const auto& c : base) base_fp.push_back(c.fingerprint);
  for (const auto& c : after) after_fp.push_back(c.fingerprint);
  size_t common = 0;
  for (uint64_t f : base_fp) {
    if (std::find(after_fp.begin(), after_fp.end(), f) != after_fp.end()) {
      ++common;
    }
  }
  EXPECT_GT(common, base_fp.size() * 7 / 10);
}

TEST(DedupTest, IndexDetectsDuplicates) {
  Buffer data = GenerateRandomBytes(200000, 21);
  DedupIndex index;
  DedupStats s1 = index.Add(data.span());
  EXPECT_EQ(s1.total_chunks, s1.unique_chunks);
  DedupStats s2 = index.Add(data.span());  // identical content again
  EXPECT_EQ(s2.unique_chunks, s1.unique_chunks);
  EXPECT_NEAR(s2.Ratio(), 2.0, 0.01);
}

TEST(DedupTest, HotChunksSortedByCountThenFingerprint) {
  Buffer once = GenerateRandomBytes(100000, 31);
  Buffer thrice = GenerateRandomBytes(100000, 32);
  DedupIndex index;
  index.Add(once.span());
  for (int i = 0; i < 3; ++i) index.Add(thrice.span());

  auto hot = index.HotChunks(1000);
  ASSERT_FALSE(hot.empty());
  // Deterministic total order: count descending, fingerprint ascending.
  for (size_t i = 0; i + 1 < hot.size(); ++i) {
    if (hot[i].count == hot[i + 1].count) {
      EXPECT_LT(hot[i].fingerprint, hot[i + 1].fingerprint);
    } else {
      EXPECT_GT(hot[i].count, hot[i + 1].count);
    }
  }
  // The thrice-added content dominates the head of the list.
  EXPECT_EQ(hot.front().count, 3u);
  // Truncation keeps the hottest prefix.
  auto top3 = index.HotChunks(3);
  ASSERT_EQ(top3.size(), 3u);
  for (size_t i = 0; i < top3.size(); ++i) EXPECT_EQ(top3[i], hot[i]);
  // Identical indexes produce byte-identical listings (the emission
  // contract simlint R2 is protecting).
  DedupIndex replay;
  replay.Add(once.span());
  for (int i = 0; i < 3; ++i) replay.Add(thrice.span());
  EXPECT_EQ(replay.HotChunks(1000), hot);
}

TEST(DedupTest, FingerprintsDifferForDifferentContent) {
  Buffer a = GenerateRandomBytes(8192, 1);
  Buffer b = GenerateRandomBytes(8192, 2);
  EXPECT_NE(Fingerprint64(a.span()), Fingerprint64(b.span()));
  EXPECT_EQ(Fingerprint64(a.span()), Fingerprint64(a.span()));
}

// --------------------------------------------------------------------------
// Relational.
// --------------------------------------------------------------------------

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"price", ColumnType::kDouble},
                 {"name", ColumnType::kString}});
}

Buffer BuildTestPage(int rows) {
  RowPageBuilder builder(TestSchema());
  for (int i = 0; i < rows; ++i) {
    Status s = builder.AddRow({Value(int64_t(i)), Value(i * 1.5),
                               Value(std::string("item") +
                                     std::to_string(i % 10))});
    EXPECT_TRUE(s.ok());
  }
  return builder.Finish();
}

TEST(RowPageTest, BuildAndReadBack) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(100);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->row_count(), 100u);
  auto v0 = reader->Get(7, 0);
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(std::get<int64_t>(*v0), 7);
  auto v1 = reader->Get(7, 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(*v1), 10.5);
  auto v2 = reader->Get(7, 2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(std::get<std::string>(*v2), "item7");
}

TEST(RowPageTest, TypeMismatchRejected) {
  RowPageBuilder builder(TestSchema());
  Status s = builder.AddRow({Value(1.0), Value(2.0), Value(std::string())});
  EXPECT_TRUE(s.IsInvalidArgument());
  s = builder.AddRow({Value(int64_t(1))});
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(RowPageTest, OutOfRangeAccess) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(5);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->Get(5, 0).status().IsOutOfRange());
  EXPECT_TRUE(reader->Get(0, 3).status().IsOutOfRange());
}

TEST(RowPageTest, CorruptPageRejected) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(5);
  page[0] ^= 0xFF;  // break magic
  EXPECT_TRUE(
      RowPageReader::Open(&schema, page.span()).status().IsCorruption());
  Buffer truncated(page.data(), 10);
  truncated[0] ^= 0xFF;  // restore nothing; still corrupt
}

TEST(RowPageTest, SchemaMismatchRejected) {
  Schema other({{"x", ColumnType::kInt64}});
  Buffer page = BuildTestPage(5);
  EXPECT_TRUE(RowPageReader::Open(&other, page.span())
                  .status()
                  .IsInvalidArgument());
}

TEST(SchemaTest, FindColumn) {
  Schema schema = TestSchema();
  EXPECT_EQ(schema.FindColumn("price"), 1);
  EXPECT_EQ(schema.FindColumn("missing"), -1);
}

TEST(PredicateTest, SimpleComparisons) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());

  auto lt5 = Predicate::Compare(0, CompareOp::kLt, Value(int64_t(5)));
  auto rows = FilterPage(*reader, *lt5);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);

  auto name3 = Predicate::Compare(2, CompareOp::kEq,
                                  Value(std::string("item3")));
  rows = FilterPage(*reader, *name3);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<uint32_t>{3}));
}

TEST(PredicateTest, BooleanComposition) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(100);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());

  // 20 <= id < 30 OR id == 50
  auto pred = Predicate::Or(
      Predicate::And(
          Predicate::Compare(0, CompareOp::kGe, Value(int64_t(20))),
          Predicate::Compare(0, CompareOp::kLt, Value(int64_t(30)))),
      Predicate::Compare(0, CompareOp::kEq, Value(int64_t(50))));
  auto rows = FilterPage(*reader, *pred);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 11u);

  auto inverse = Predicate::Not(
      Predicate::Compare(0, CompareOp::kLt, Value(int64_t(20))));
  rows = FilterPage(*reader, *inverse);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 80u);
}

TEST(PredicateTest, NumericCrossTypeComparison) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  // Compare int64 column against a double literal.
  auto pred = Predicate::Compare(0, CompareOp::kLt, Value(4.5));
  auto rows = FilterPage(*reader, *pred);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

TEST(PredicateTest, StringVsNumberFails) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(3);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  auto pred = Predicate::Compare(2, CompareOp::kEq, Value(int64_t(1)));
  EXPECT_TRUE(FilterPage(*reader, *pred).status().IsInvalidArgument());
}

TEST(MaterializeTest, SelectedRowsRoundTrip) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(50);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  std::vector<uint32_t> picks = {0, 10, 49};
  auto out = MaterializeRows(*reader, picks);
  ASSERT_TRUE(out.ok());
  auto out_reader = RowPageReader::Open(&schema, out->span());
  ASSERT_TRUE(out_reader.ok());
  EXPECT_EQ(out_reader->row_count(), 3u);
  EXPECT_EQ(std::get<int64_t>(*out_reader->Get(2, 0)), 49);
  EXPECT_EQ(std::get<std::string>(*out_reader->Get(1, 2)), "item0");
}

TEST(AggregateTest, AllKinds) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);  // ids 0..9, price = 1.5*id
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());

  EXPECT_EQ(std::get<int64_t>(
                *AggregateColumn(*reader, 0, AggregateKind::kCount)),
            10);
  EXPECT_EQ(
      std::get<int64_t>(*AggregateColumn(*reader, 0, AggregateKind::kSum)),
      45);
  EXPECT_EQ(
      std::get<int64_t>(*AggregateColumn(*reader, 0, AggregateKind::kMin)),
      0);
  EXPECT_EQ(
      std::get<int64_t>(*AggregateColumn(*reader, 0, AggregateKind::kMax)),
      9);
  EXPECT_DOUBLE_EQ(
      std::get<double>(*AggregateColumn(*reader, 1, AggregateKind::kAvg)),
      6.75);
}

TEST(AggregateTest, SubsetRows) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  std::vector<uint32_t> rows = {1, 3, 5};
  auto sum = AggregateColumn(*reader, 0, AggregateKind::kSum, &rows);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(std::get<int64_t>(*sum), 9);
}

TEST(AggregateTest, ErrorsOnStringAndEmpty) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(AggregateColumn(*reader, 2, AggregateKind::kSum)
                  .status()
                  .IsInvalidArgument());
  std::vector<uint32_t> empty;
  EXPECT_TRUE(AggregateColumn(*reader, 0, AggregateKind::kSum, &empty)
                  .status()
                  .IsInvalidArgument());
}

TEST(GroupByTest, SumPerGroup) {
  Schema schema({{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
  RowPageBuilder builder(schema);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        builder.AddRow({Value(int64_t(i % 3)), Value(int64_t(i))}).ok());
  }
  Buffer page = builder.Finish();
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  auto groups = GroupByAggregate(*reader, 0, 1, AggregateKind::kSum);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 3u);
  EXPECT_EQ(std::get<int64_t>(groups->at(0)), 0 + 3 + 6 + 9);
  EXPECT_EQ(std::get<int64_t>(groups->at(1)), 1 + 4 + 7 + 10);
  EXPECT_EQ(std::get<int64_t>(groups->at(2)), 2 + 5 + 8 + 11);
}

// --------------------------------------------------------------------------
// Textgen.
// --------------------------------------------------------------------------

TEST(TextGenTest, DeterministicPerSeed) {
  Buffer a = GenerateText(10000, {7, 4096, 0.9});
  Buffer b = GenerateText(10000, {7, 4096, 0.9});
  Buffer c = GenerateText(10000, {8, 4096, 0.9});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(TextGenTest, ProducesExactSize) {
  for (size_t n : {size_t(1), size_t(100), size_t(12345)}) {
    EXPECT_EQ(GenerateText(n, {}).size(), n);
  }
}

TEST(TextGenTest, LooksLikeText) {
  Buffer t = GenerateText(50000, {});
  size_t letters = 0, spaces = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    uint8_t ch = t[i];
    if ((ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')) ++letters;
    if (ch == ' ') ++spaces;
  }
  EXPECT_GT(letters, t.size() * 7 / 10);
  EXPECT_GT(spaces, t.size() / 20);
}

}  // namespace
}  // namespace dpdpu::kern
