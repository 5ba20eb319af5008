// Log-replay storage server (paper Section 7's partial-offload
// motivation): cloud-native DBMSs apply transaction updates on
// disaggregated storage via log replay, whose hot-page cache is an order
// of magnitude larger than DPU memory — so log-append requests must run
// on the host, while page reads offload to the DPU.
//
// This example builds that split: a Socrates/Aurora-style page server
// where WAL appends go to the host (which maintains a page table and
// applies records), GET-page requests are served by the DPU, and the
// paper's "fast persistence" path acknowledges appends once they are
// durable on the DPU log device.
//
//   ./build/examples/log_replay

#include <cstdio>
#include <map>

#include "core/runtime/metrics.h"
#include "core/runtime/platform.h"
#include "core/storage/storage_engine.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: example brevity

namespace {

constexpr uint32_t kPageBytes = 8192;
constexpr uint32_t kNumPages = 256;

// A log record: u32 page, u32 offset_in_page, u32 len, bytes.
Buffer EncodeLogRecord(uint32_t page, uint32_t offset, ByteSpan bytes) {
  Buffer r;
  r.AppendU32(page);
  r.AppendU32(offset);
  r.AppendU32(uint32_t(bytes.size()));
  r.Append(bytes);
  return r;
}

}  // namespace

int main() {
  sim::Simulator sim;
  netsub::Network fabric(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  so.storage.persist_mode = se::PersistMode::kDpuLogAck;
  co.node = 2;
  rt::Platform server(&sim, &fabric, so);
  rt::Platform compute(&sim, &fabric, co);

  // The page file.
  auto file = server.fs().Create("pages");
  if (!file.ok()) return 1;
  Buffer zero(size_t{kNumPages} * kPageBytes);
  if (!server.fs().Write(*file, 0, zero.span()).ok()) return 1;

  // Host-side log replay state: page LSNs (the "100s GB hot page cache"
  // stand-in — host memory, not DPU memory).
  std::map<uint32_t, uint64_t> page_lsn;
  uint64_t next_lsn = 1;
  uint64_t host_appends = 0;

  server.storage().SetHostHandler(
      [&](se::RemoteRequest request, se::ReplyFn reply) {
        // Parse the log record, apply it to the page, bump the LSN.
        ++host_appends;
        ByteReader r(request.data.span());
        uint32_t page, offset, len;
        ByteSpan bytes;
        bool ok = r.ReadU32(&page) && r.ReadU32(&offset) &&
                  r.ReadU32(&len) && r.ReadSpan(len, &bytes);
        if (!ok || offset + len > kPageBytes) {
          reply(Status::InvalidArgument("malformed log record"));
          return;
        }
        // Replay work on host cores (parse + apply).
        server.server().host_cpu().Execute(
            4000 + len, [&, page, offset,
                         data = Buffer(bytes.data(), bytes.size()),
                         reply = std::move(reply)]() mutable {
              page_lsn[page] = next_lsn++;
              // Persist through the DPU file service with fast-ack.
              server.storage().file_service().WriteAsync(
                  *file, uint64_t(page) * kPageBytes + offset,
                  std::move(data), se::PersistMode::kDpuLogAck,
                  se::AckWrite(std::move(reply)));
            });
      });
  server.storage().Serve();

  se::RemoteStorageClient client(&compute.network(), 1, 9000);

  // Workload: a stream of log appends (host path) and page reads (DPU
  // path), interleaved.
  Pcg32 rng(11);
  int appends_ok = 0, reads_ok = 0;

  constexpr int kAppends = 400;
  constexpr int kReads = 1200;
  rt::UtilizationProbe probe(&server.server());
  probe.Start();

  for (int i = 0; i < kAppends; ++i) {
    uint32_t page = rng.NextBounded(kNumPages);
    uint32_t offset = rng.NextBounded(kPageBytes - 64);
    Buffer payload = kern::GenerateRandomBytes(48, i);
    client.Write(*file, 0, EncodeLogRecord(page, offset, payload.span()),
                 [&](Status s) { appends_ok += s.ok() ? 1 : 0; },
                 se::kRequestFlagRequiresHost);
  }
  for (int i = 0; i < kReads; ++i) {
    uint32_t page = rng.NextBounded(kNumPages);
    client.Read(*file, uint64_t(page) * kPageBytes, kPageBytes,
                [&](Result<Buffer> d, uint64_t) {
                  if (d.ok() && d->size() == kPageBytes) ++reads_ok;
                });
  }
  sim.Run();
  probe.Stop();

  std::printf("DPDPU log-replay page server (partial offloading)\n");
  std::printf("log appends (host)   : %d ok / %d (host handled %llu)\n",
              appends_ok, kAppends, (unsigned long long)host_appends);
  std::printf("page reads (DPU)     : %d ok / %d\n", reads_ok, kReads);
  std::printf("fast-acked writes    : %llu\n",
              (unsigned long long)server.storage()
                  .file_service()
                  .stats()
                  .log_acked_writes);
  std::printf("routed to DPU / host : %llu / %llu\n",
              (unsigned long long)server.storage().director()
                  .routed_to_dpu(),
              (unsigned long long)server.storage().director()
                  .routed_to_host());
  std::printf("host cores           : %.3f\n", probe.host_cores());
  std::printf("dpu cores            : %.3f\n", probe.dpu_cores());
  std::printf("distinct pages LSN'd : %zu (max lsn %llu)\n",
              page_lsn.size(), (unsigned long long)(next_lsn - 1));
  std::printf("virtual time         : %.3f ms\n", double(sim.now()) / 1e6);
  return (appends_ok == kAppends && reads_ok == kReads) ? 0 : 1;
}
