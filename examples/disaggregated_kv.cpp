// Disaggregated key-value store over the DDS data path (paper Section 9:
// "We integrated DDS with FASTER (a KV store)").
//
// The storage server keeps a KV table as a file: a fixed-bucket hash
// index whose layout the DPU knows, so GET requests can be answered
// entirely on the DPU — the offload engine's UDF translates a key lookup
// into a file read of the right bucket. PUTs mutate the index and are
// routed to the host (the partial-offloading split).
//
//   ./build/examples/disaggregated_kv

#include <cstdio>

#include "core/runtime/metrics.h"
#include "core/runtime/platform.h"
#include "core/storage/storage_engine.h"
#include "kern/dedup.h"
#include "kern/textgen.h"

using namespace dpdpu;  // NOLINT: example brevity

namespace {

// Fixed-size bucket KV layout inside one file:
//   bucket b at offset b * kBucketBytes
//   bucket: u32 used, u32 key_len, u32 value_len, key bytes, value bytes
constexpr uint32_t kBuckets = 4096;
constexpr uint32_t kBucketBytes = 512;

uint32_t BucketOf(std::string_view key) {
  return uint32_t(kern::Fingerprint64(ByteSpan(
             reinterpret_cast<const uint8_t*>(key.data()), key.size())) %
         kBuckets);
}

Buffer EncodeBucket(std::string_view key, std::string_view value) {
  Buffer b;
  b.AppendU32(1);
  b.AppendU32(uint32_t(key.size()));
  b.AppendU32(uint32_t(value.size()));
  b.Append(key);
  b.Append(value);
  b.resize(kBucketBytes);
  return b;
}

bool DecodeBucket(ByteSpan bucket, std::string* key, std::string* value) {
  ByteReader r(bucket);
  uint32_t used, klen, vlen;
  if (!r.ReadU32(&used) || used != 1) return false;
  if (!r.ReadU32(&klen) || !r.ReadU32(&vlen)) return false;
  ByteSpan k, v;
  if (!r.ReadSpan(klen, &k) || !r.ReadSpan(vlen, &v)) return false;
  key->assign(reinterpret_cast<const char*>(k.data()), k.size());
  value->assign(reinterpret_cast<const char*>(v.data()), v.size());
  return true;
}

}  // namespace

int main() {
  sim::Simulator sim;
  netsub::Network fabric(&sim);
  rt::PlatformOptions so, co;
  so.node = 1;
  co.node = 2;
  rt::Platform server(&sim, &fabric, so);
  rt::Platform app(&sim, &fabric, co);

  // Create the KV table file, pre-zeroed.
  auto file = server.fs().Create("kv.table");
  if (!file.ok()) return 1;
  Buffer zero(size_t{kBuckets} * kBucketBytes);
  if (!server.fs().Write(*file, 0, zero.span()).ok()) return 1;

  // GETs are offloadable; PUTs carry the requires-host flag and are
  // applied by a host handler (index mutation logic lives on the host).
  uint64_t host_puts = 0;
  server.storage().SetHostHandler(
      [&](se::RemoteRequest request, se::ReplyFn reply) {
        ++host_puts;
        // Host-side PUT: write the bucket through the DPU file service.
        server.storage().file_service().WriteAsync(
            request.file, request.offset, std::move(request.data),
            se::PersistMode::kDpuLogAck, se::AckWrite(std::move(reply)));
      });
  server.storage().Serve();

  se::RemoteStorageClient kv(&app.network(), 1, 9000);
  auto put = [&](const std::string& key, const std::string& value,
                 std::function<void(Status)> cb) {
    kv.Write(*file, uint64_t(BucketOf(key)) * kBucketBytes,
             EncodeBucket(key, value), std::move(cb),
             se::kRequestFlagRequiresHost);
  };
  auto get = [&](const std::string& key,
                 std::function<void(Result<std::string>)> cb) {
    kv.Read(*file, uint64_t(BucketOf(key)) * kBucketBytes, kBucketBytes,
            [key, cb = std::move(cb)](Result<Buffer> bucket, uint64_t) {
              if (!bucket.ok()) {
                cb(bucket.status());
                return;
              }
              std::string k, v;
              if (!DecodeBucket(bucket->span(), &k, &v) || k != key) {
                cb(Status::NotFound("key " + key));
                return;
              }
              cb(v);
            });
  };

  // Load phase: 300 keys (PUT -> host path).
  constexpr int kKeys = 300;
  int put_ok = 0;
  for (int i = 0; i < kKeys; ++i) {
    put("user:" + std::to_string(i), "profile-" + std::to_string(i * 17),
        [&](Status s) { put_ok += s.ok() ? 1 : 0; });
  }
  sim.Run();

  // Read phase: Zipfian GETs (offloaded to the DPU).
  rt::UtilizationProbe probe(&server.server());
  probe.Start();
  Pcg32 rng(3);
  ZipfGenerator zipf(kKeys, 0.99);
  constexpr int kGets = 2000;
  int get_ok = 0, get_bad = 0;
  for (int i = 0; i < kGets; ++i) {
    int id = int(zipf.Next(rng));
    get("user:" + std::to_string(id),
        [&, id](Result<std::string> value) {
          if (value.ok() &&
              *value == "profile-" + std::to_string(id * 17)) {
            ++get_ok;
          } else {
            ++get_bad;
          }
        });
  }
  sim.Run();
  probe.Stop();

  std::printf("DPDPU disaggregated KV store (DDS integration example)\n");
  std::printf("puts (host path)     : %d ok, host handled %llu\n", put_ok,
              (unsigned long long)host_puts);
  std::printf("gets (DPU offloaded) : %d ok, %d failed\n", get_ok, get_bad);
  std::printf("dpu cache hit rate   : %.1f%%\n",
              100.0 *
                  server.storage().file_service().cache_stats().HitRate());
  std::printf("host cores (reads)   : %.4f\n", probe.host_cores());
  std::printf("dpu cores (reads)    : %.4f\n", probe.dpu_cores());
  std::printf("requests offloaded   : %llu to DPU, %llu to host\n",
              (unsigned long long)server.storage().director()
                  .routed_to_dpu(),
              (unsigned long long)server.storage().director()
                  .routed_to_host());
  std::printf("virtual time         : %.3f ms\n", double(sim.now()) / 1e6);
  // Hash collisions make a handful of NotFound GETs legitimate.
  return (put_ok == kKeys && get_ok > kGets * 9 / 10) ? 0 : 1;
}
