// The DPU file service (paper Section 7, "Offloading file execution"):
// DpuFs runs on the DPU behind an SPDK-style userspace I/O path, with a
// DPU-memory page cache and the Section 9 "faster persistence" option
// (acknowledge once the write is durable on the DPU's fast log device,
// complete the SSD write in the background).

#ifndef DPDPU_CORE_STORAGE_FILE_SERVICE_H_
#define DPDPU_CORE_STORAGE_FILE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/buffer.h"
#include "common/function.h"
#include "common/result.h"
#include "fssub/dpufs.h"
#include "fssub/page_cache.h"
#include "hw/machine.h"
#include "sim/simrace.h"

namespace dpdpu::se {

/// Durability mode for writes.
enum class PersistMode : uint8_t {
  /// Acknowledge after the SSD write completes.
  kWriteThrough,
  /// Acknowledge once persisted on the DPU fast log device; the SSD write
  /// completes in the background (Section 9 "faster persistence").
  kDpuLogAck,
};

struct FileServiceStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t cache_hit_reads = 0;  // served entirely from DPU cache
  uint64_t log_acked_writes = 0;
};

class FileService {
 public:
  using ReadCallback = UniqueFunction<void(Result<Buffer>)>;
  using WriteCallback = UniqueFunction<void(Status)>;

  /// `dpu_cache_bytes` is allocated from the server's DPU memory pool —
  /// the 16 GB constraint the paper's partial-offload argument rests on.
  FileService(hw::Server* server, fssub::DpuFs* fs,
              uint64_t dpu_cache_bytes);
  ~FileService();

  FileService(const FileService&) = delete;
  FileService& operator=(const FileService&) = delete;

  fssub::DpuFs& fs() { return *fs_; }
  hw::Server& server() { return *server_; }

  /// Namespace operations execute on a DPU core.
  void CreateAsync(const std::string& name,
                   UniqueFunction<void(Result<fssub::FileId>)> cb);
  Result<fssub::FileId> Lookup(const std::string& name) const {
    return fs_->Lookup(name);
  }

  /// Read with DPU-cache lookup; misses pay SPDK cycles + SSD latency.
  void ReadAsync(fssub::FileId file, uint64_t offset, uint32_t length,
                 ReadCallback cb);

  /// Write; durability per `mode`.
  void WriteAsync(fssub::FileId file, uint64_t offset, Buffer data,
                  PersistMode mode, WriteCallback cb);

  const FileServiceStats& stats() const { return stats_; }
  const fssub::PageCacheStats& cache_stats() const {
    return cache_->stats();
  }
  void ResizeCache(uint64_t bytes);

 private:
  bool TryServeFromCache(fssub::FileId file, uint64_t offset,
                         uint32_t length, Buffer* out);
  void PopulateCache(fssub::FileId file, uint64_t offset, ByteSpan data);
  void InvalidateRange(fssub::FileId file, uint64_t offset, size_t length);

  hw::Server* server_;
  fssub::DpuFs* fs_;
  std::unique_ptr<fssub::PageCache> cache_;
  uint64_t cache_reservation_ = 0;
  FileServiceStats stats_;
  /// All FileService work — request dispatch and SSD/DMA completion
  /// callbacks — runs on one SPDK reactor thread, which serializes it.
  /// Each such event steps this chain so same-timestamp cache accesses
  /// are reactor-ordered, not racing (see DESIGN.md §7).
  sim::HbChain reactor_;
  sim::RaceTag race_tag_;
};

}  // namespace dpdpu::se

#endif  // DPDPU_CORE_STORAGE_FILE_SERVICE_H_
