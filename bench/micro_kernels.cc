// google-benchmark microbenchmarks for the real software kernels and
// core data structures (wall-clock performance of the actual
// implementations, independent of the simulator's cost models).

#include <benchmark/benchmark.h>

#include "common/histogram.h"
#include "common/logging.h"
#include "kern/chacha20.h"
#include "kern/crc32.h"
#include "kern/dedup.h"
#include "kern/deflate.h"
#include "kern/huffman.h"
#include "kern/regex.h"
#include "kern/relational.h"
#include "kern/textgen.h"
#include "netsub/ring.h"
#include "sim/simulator.h"

namespace dpdpu {
namespace {

void BM_DeflateCompress(benchmark::State& state) {
  size_t size = size_t(state.range(0));
  int level = int(state.range(1));
  Buffer text = kern::GenerateText(size, {});
  for (auto _ : state) {
    auto out = kern::DeflateCompress(text.span(),
                                     kern::DeflateOptions{level});
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(size));
}
BENCHMARK(BM_DeflateCompress)
    ->Args({64 << 10, 1})
    ->Args({64 << 10, 6})
    ->Args({64 << 10, 9})
    ->Args({1 << 20, 6});

void BM_DeflateDecompress(benchmark::State& state) {
  Buffer text = kern::GenerateText(size_t(state.range(0)), {});
  auto compressed = kern::DeflateCompress(text.span());
  for (auto _ : state) {
    auto out = kern::DeflateDecompress(compressed->span());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DeflateDecompress)->Arg(64 << 10)->Arg(1 << 20);

void BM_ChaCha20(benchmark::State& state) {
  Buffer data = kern::GenerateRandomBytes(size_t(state.range(0)), 1);
  std::array<uint8_t, 32> key{};
  std::array<uint8_t, 12> nonce{};
  for (auto _ : state) {
    Buffer out = kern::ChaCha20Xor(key, nonce, 0, data.span());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(64 << 10)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) {
  Buffer data = kern::GenerateRandomBytes(size_t(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kern::Crc32(data.span()));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64 << 10)->Arg(1 << 20);

void BM_HuffmanDecode(benchmark::State& state) {
  // Encode a text corpus's byte stream with its own optimal length-limited
  // code, then measure pure symbol decode throughput through DecodeFast.
  Buffer text = kern::GenerateText(size_t(state.range(0)), {});
  std::vector<uint64_t> freqs(256, 0);
  for (size_t i = 0; i < text.size(); ++i) freqs[text.span()[i]]++;
  std::vector<uint8_t> lengths =
      kern::PackageMergeLengths(freqs, kern::kMaxHuffmanBits);
  std::vector<uint32_t> codes = kern::CanonicalCodes(lengths);
  Buffer encoded;
  {
    kern::BitWriter writer(&encoded);
    for (size_t i = 0; i < text.size(); ++i) {
      uint8_t s = text.span()[i];
      writer.WriteHuffmanCode(codes[s], lengths[s]);
    }
    writer.AlignToByte();
  }
  auto decoder = kern::HuffmanDecoder::Build(lengths);
  DPDPU_CHECK(decoder.ok());
  for (auto _ : state) {
    kern::BitReader reader(encoded.span());
    int symbol = 0;
    uint64_t sum = 0;
    for (size_t i = 0; i < text.size(); ++i) {
      DPDPU_CHECK(decoder->DecodeFast(reader, &symbol).ok());
      sum += uint64_t(symbol);
    }
    benchmark::DoNotOptimize(sum);
  }
  // One symbol decodes to one byte of the original corpus.
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HuffmanDecode)->Arg(64 << 10)->Arg(1 << 20);

// Arg 1 picks the pattern: a word-suffix scan, or the alternation the
// ce_offload benchmark and abl_placement count.
constexpr const char* kRegexBenchPatterns[] = {"[a-z]+tion", "tion|ing"};

void BM_RegexCount(benchmark::State& state) {
  Buffer text = kern::GenerateText(size_t(state.range(0)), {});
  const char* pattern = kRegexBenchPatterns[state.range(1)];
  auto re = kern::Regex::Compile(pattern);
  for (auto _ : state) {
    benchmark::DoNotOptimize(re->CountMatches(text.view()));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
  state.SetLabel(pattern);
}
BENCHMARK(BM_RegexCount)
    ->Args({16 << 10, 0})
    ->Args({64 << 10, 0})
    ->Args({64 << 10, 1});

void BM_DedupChunk(benchmark::State& state) {
  Buffer data = kern::GenerateText(size_t(state.range(0)), {});
  for (auto _ : state) {
    auto chunks = kern::ChunkData(data.span());
    benchmark::DoNotOptimize(chunks);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DedupChunk)->Arg(1 << 20);

void BM_FilterPage(benchmark::State& state) {
  kern::Schema schema(
      {{"id", kern::ColumnType::kInt64}, {"v", kern::ColumnType::kDouble}});
  kern::RowPageBuilder builder(schema);
  for (int i = 0; i < int(state.range(0)); ++i) {
    Status added =
        builder.AddRow({kern::Value(int64_t(i)), kern::Value(i * 0.5)});
    DPDPU_CHECK(added.ok());
  }
  Buffer page = builder.Finish();
  auto reader = kern::RowPageReader::Open(&schema, page.span());
  auto pred = kern::Predicate::Compare(0, kern::CompareOp::kLt,
                                       kern::Value(int64_t(100)));
  for (auto _ : state) {
    auto rows = kern::FilterPage(*reader, *pred);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FilterPage)->Arg(1024)->Arg(16384);

void BM_SpscRing(benchmark::State& state) {
  netsub::SpscRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.TryPush(1));
    benchmark::DoNotOptimize(ring.TryPop(&v));
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_SpscRing);

void BM_MpmcRing(benchmark::State& state) {
  netsub::MpmcRing<uint64_t> ring(1024);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.TryPush(1));
    benchmark::DoNotOptimize(ring.TryPop(&v));
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MpmcRing);

void BM_SimulatorEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(uint64_t(i % 37), [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEvents);

void BM_SimulatorEventsDeep(benchmark::State& state) {
  // The same 1000-event batch run while 4096 far-future events stay
  // pending: the heap depth MiniTCP's RTO timers give a fleet.
  sim::Simulator sim;
  for (int i = 0; i < 4096; ++i) {
    sim.Schedule(1000 * sim::kSecond + uint64_t(i), [] {});
  }
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(uint64_t(i % 37), [] {});
    }
    sim.RunFor(37);
  }
  benchmark::DoNotOptimize(sim.events_executed());
  state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventsDeep);

void BM_PeriodicTaskTicks(benchmark::State& state) {
  // Steady-state periodic sampling: exercises the once-wrapped callback
  // path (per tick, one shared_ptr-sized closure in the SBO buffer).
  for (auto _ : state) {
    sim::Simulator sim;
    sim::PeriodicTask task;
    uint64_t ticks = 0;
    task.Start(&sim, 10, [&] {
      if (++ticks == 1000) task.Cancel();
    });
    sim.Run();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_PeriodicTaskTicks);

void BM_Histogram(benchmark::State& state) {
  Histogram h;
  uint64_t v = 12345;
  for (auto _ : state) {
    h.Add(v);
    v = v * 1664525 + 1013904223;
    benchmark::DoNotOptimize(h.count());
  }
}
BENCHMARK(BM_Histogram);

}  // namespace
}  // namespace dpdpu

BENCHMARK_MAIN();
