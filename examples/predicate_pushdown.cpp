// Predicate pushdown (paper Section 4's second composition example):
// "the storage server first reads the database records from SSDs through
// the Storage Engine. It then directly applies predicates on these tuples
// using the Compute Engine, and only sends the qualified tuples back to
// the remote database server via the Network Engine."
//
// Compares bytes on the wire with and without pushdown.
//
//   ./build/examples/predicate_pushdown

#include <cstdio>

#include "common/logging.h"
#include "core/runtime/pipeline.h"
#include "core/runtime/platform.h"
#include "kern/relational.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: example brevity

namespace {

constexpr char kSchemaParam[] = "order_id:i64,amount:f64,region:str";

// Builds one row page of synthetic orders.
Buffer BuildOrdersPage(int page_index, int rows_per_page, Pcg32& rng) {
  kern::Schema schema({{"order_id", kern::ColumnType::kInt64},
                       {"amount", kern::ColumnType::kDouble},
                       {"region", kern::ColumnType::kString}});
  kern::RowPageBuilder builder(schema);
  static const char* kRegions[] = {"emea", "apac", "amer", "anz"};
  for (int r = 0; r < rows_per_page; ++r) {
    int64_t id = int64_t(page_index) * rows_per_page + r;
    double amount = double(rng.NextBounded(100000)) / 100.0;
    std::string region = kRegions[rng.NextBounded(4)];
    dpdpu::Status added = builder.AddRow(
        {kern::Value(id), kern::Value(amount), kern::Value(region)});
    DPDPU_CHECK(added.ok());
  }
  return builder.Finish();
}

}  // namespace

int main() {
  sim::Simulator sim;
  netsub::Network fabric(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  co.node = 2;
  rt::Platform storage_node(&sim, &fabric, so);
  rt::Platform db_node(&sim, &fabric, co);

  // Seed 32 pages of orders into the storage node's file system.
  constexpr int kPages = 32;
  constexpr int kRowsPerPage = 512;
  Pcg32 rng(7);
  auto file = storage_node.fs().Create("orders");
  if (!file.ok()) return 1;
  std::vector<uint64_t> page_offsets;
  std::vector<uint32_t> page_sizes;
  uint64_t offset = 0;
  uint64_t total_rows = 0;
  for (int p = 0; p < kPages; ++p) {
    Buffer page = BuildOrdersPage(p, kRowsPerPage, rng);
    page_offsets.push_back(offset);
    page_sizes.push_back(uint32_t(page.size()));
    if (!storage_node.fs().Write(*file, offset, page.span()).ok()) return 1;
    offset += page.size();
    total_rows += kRowsPerPage;
  }

  // The database node receives qualified tuples.
  uint64_t wire_bytes_pushdown = 0;
  db_node.network().Listen(7200, [&](ne::NeSocket* s) {
    s->SetReceiveCallback(
        [&](ByteSpan d) { wire_bytes_pushdown += d.size(); });
  });
  ne::NeSocket* out = storage_node.network().Connect(2, 7200);

  // Pushdown pipeline on the storage server:
  //   SE read page -> CE filter kernel (amount > 900) -> NE send.
  uint64_t qualified_rows = 0;
  rt::Pipeline pipeline;
  int next_page = 0;
  pipeline
      .AddStage([&](Buffer, UniqueFunction<void(Result<Buffer>)> done) {
        int p = next_page++;
        storage_node.storage().file_service().ReadAsync(
            *file, page_offsets[p], page_sizes[p],
            [done = std::move(done)](Result<Buffer> data) mutable {
              done(std::move(data));
            });
      })
      .AddStage([&](Buffer page, UniqueFunction<void(Result<Buffer>)> done) {
        auto work = storage_node.compute().Invoke(
            ce::kKernelFilter, std::move(page),
            {{"schema", kSchemaParam},
             {"col", "amount"},
             {"op", ">"},
             {"value", "900"},
             {"value_type", "f64"}});
        if (!work.ok()) {
          done(work.status());
          return;
        }
        (*work)->OnComplete(
            [done = std::move(done)](ce::WorkItem& item) mutable {
              done(item.result());
            });
      })
      .AddStage([&](Buffer filtered,
                    UniqueFunction<void(Result<Buffer>)> done) {
        kern::Schema schema({{"order_id", kern::ColumnType::kInt64},
                             {"amount", kern::ColumnType::kDouble},
                             {"region", kern::ColumnType::kString}});
        auto reader = kern::RowPageReader::Open(&schema, filtered.span());
        if (reader.ok()) qualified_rows += reader->row_count();
        out->Send(filtered.span());
        done(std::move(filtered));
      });

  for (int p = 0; p < kPages; ++p) pipeline.Push(Buffer());
  sim.Run();

  // Baseline: ship every page uncompressed and filter at the database.
  uint64_t wire_bytes_baseline = 0;
  for (uint32_t size : page_sizes) {
    wire_bytes_baseline += size;
  }

  std::printf("DPDPU predicate pushdown (Section 4 example)\n");
  std::printf("pages scanned        : %d (%llu rows)\n", kPages,
              (unsigned long long)total_rows);
  std::printf("qualified rows       : %llu (%.1f%% selectivity)\n",
              (unsigned long long)qualified_rows,
              100.0 * double(qualified_rows) / double(total_rows));
  std::printf("bytes shipped (all)  : %llu\n",
              (unsigned long long)wire_bytes_baseline);
  std::printf("bytes shipped (push) : %llu\n",
              (unsigned long long)wire_bytes_pushdown);
  std::printf("network reduction    : %.1fx\n",
              double(wire_bytes_baseline) /
                  double(std::max<uint64_t>(wire_bytes_pushdown, 1)));
  std::printf("virtual time         : %.3f ms\n", double(sim.now()) / 1e6);
  return pipeline.completed() == kPages ? 0 : 1;
}
