#include "core/storage/file_service.h"

#include "common/logging.h"
#include "hw/calibration.h"

namespace dpdpu::se {

namespace cal = hw::cal;

namespace {
constexpr uint32_t kCachePageBytes = 4096;
}  // namespace

FileService::FileService(hw::Server* server, fssub::DpuFs* fs,
                         uint64_t dpu_cache_bytes)
    : server_(server), fs_(fs) {
  // The cache must fit in DPU memory; shrink to whatever is available.
  uint64_t granted = std::min(dpu_cache_bytes,
                              server->dpu_memory().available());
  DPDPU_CHECK(server->dpu_memory().Allocate(granted).ok());
  cache_reservation_ = granted;
  cache_ = std::make_unique<fssub::PageCache>(granted);
}

FileService::~FileService() {
  server_->dpu_memory().Free(cache_reservation_);
}

void FileService::ResizeCache(uint64_t bytes) {
  if (bytes > cache_reservation_) {
    uint64_t extra = bytes - cache_reservation_;
    if (!server_->dpu_memory().Allocate(extra).ok()) return;
    cache_reservation_ = bytes;
  } else {
    server_->dpu_memory().Free(cache_reservation_ - bytes);
    cache_reservation_ = bytes;
  }
  cache_->Resize(bytes);
}

void FileService::CreateAsync(
    const std::string& name,
    UniqueFunction<void(Result<fssub::FileId>)> cb) {
  server_->dpu_cpu().Execute(
      cal::kSpdkCyclesPerIo,
      [this, name, cb = std::move(cb)]() mutable {
        reactor_.Step();
        cb(fs_->Create(name));
      });
}

bool FileService::TryServeFromCache(fssub::FileId file, uint64_t offset,
                                    uint32_t length, Buffer* out) {
  uint64_t first_page = offset / kCachePageBytes;
  uint64_t last_page = (offset + length - 1) / kCachePageBytes;
  Buffer assembled;
  assembled.reserve(length);
  for (uint64_t p = first_page; p <= last_page; ++p) {
    const Buffer* page = cache_->Get({file, p});
    if (page == nullptr) return false;
    uint64_t page_base = p * kCachePageBytes;
    size_t begin = p == first_page ? size_t(offset - page_base) : 0;
    size_t end = p == last_page
                     ? size_t(offset + length - page_base)
                     : page->size();
    if (end > page->size()) return false;  // partial tail page
    assembled.Append(page->span().subspan(begin, end - begin));
  }
  *out = std::move(assembled);
  return true;
}

void FileService::PopulateCache(fssub::FileId file, uint64_t offset,
                                ByteSpan data) {
  // Only full, aligned pages enter the cache (partial pages would serve
  // truncated reads).
  uint64_t page = offset / kCachePageBytes;
  size_t skip = size_t(page * kCachePageBytes < offset
                           ? kCachePageBytes - (offset % kCachePageBytes)
                           : 0);
  if (offset % kCachePageBytes != 0) {
    ++page;
  }
  size_t pos = skip;
  while (pos + kCachePageBytes <= data.size()) {
    cache_->Put({file, page},
                Buffer(data.data() + pos, kCachePageBytes));
    ++page;
    pos += kCachePageBytes;
  }
}

void FileService::InvalidateRange(fssub::FileId file, uint64_t offset,
                                  size_t length) {
  if (length == 0) return;
  uint64_t first_page = offset / kCachePageBytes;
  uint64_t last_page = (offset + length - 1) / kCachePageBytes;
  for (uint64_t p = first_page; p <= last_page; ++p) {
    cache_->Erase({file, p});
  }
}

void FileService::ReadAsync(fssub::FileId file, uint64_t offset,
                            uint32_t length, ReadCallback cb) {
  // Request counters: bumped in the caller's event (before the
  // reactor hop), so two same-tick clients collide — commutative.
  DPDPU_SIM_ACCESS(race_tag_, "FileService", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  ++stats_.reads;
  // SPDK-style request processing on a DPU core.
  server_->dpu_cpu().Execute(
      cal::kSpdkCyclesPerIo,
      [this, file, offset, length, cb = std::move(cb)]() mutable {
        reactor_.Step();
        Buffer cached;
        if (length > 0 && TryServeFromCache(file, offset, length, &cached)) {
          DPDPU_SIM_ACCESS(race_tag_, "FileService", /*key=*/0,
                           sim::AccessKind::kCommutativeWrite);
          ++stats_.cache_hit_reads;
          cb(std::move(cached));
          return;
        }
        // Miss: fetch at page granularity (read-around) so the cache
        // fills even for sub-page requests — the SSD access, then the
        // PCIe P2P transfer into DPU memory (the Figure 8 direct path),
        // then the real bytes from DpuFs.
        uint64_t aligned_off = offset / kCachePageBytes * kCachePageBytes;
        uint32_t aligned_len = static_cast<uint32_t>(
            (offset + length + kCachePageBytes - 1) / kCachePageBytes *
                kCachePageBytes -
            aligned_off);
        server_->ssd().SubmitRead(
            aligned_len, [this, file, offset, length, aligned_off,
                          aligned_len, cb = std::move(cb)]() mutable {
              server_->pcie().Dma(
                  aligned_len,
                  [this, file, offset, length, aligned_off,
                   cb = std::move(cb)]() mutable {
                    reactor_.Step();
                    uint32_t aligned_len_again = static_cast<uint32_t>(
                        (offset + length + kCachePageBytes - 1) /
                            kCachePageBytes * kCachePageBytes -
                        aligned_off);
                    Result<Buffer> page_data =
                        fs_->Read(file, aligned_off, aligned_len_again);
                    if (!page_data.ok()) {
                      cb(std::move(page_data));
                      return;
                    }
                    PopulateCache(file, aligned_off, page_data->span());
                    // Slice the requested range out of the aligned read
                    // (short when the file ends inside it).
                    size_t skip = static_cast<size_t>(offset - aligned_off);
                    if (skip >= page_data->size()) {
                      cb(Buffer());
                      return;
                    }
                    size_t n = std::min<size_t>(length,
                                                page_data->size() - skip);
                    cb(Buffer(page_data->data() + skip, n));
                  });
            });
      });
}

void FileService::WriteAsync(fssub::FileId file, uint64_t offset,
                             Buffer data, PersistMode mode,
                             WriteCallback cb) {
  DPDPU_SIM_ACCESS(race_tag_, "FileService", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  ++stats_.writes;
  server_->dpu_cpu().Execute(
      cal::kSpdkCyclesPerIo,
      [this, file, offset, data = std::move(data), mode,
       cb = std::move(cb)]() mutable {
        reactor_.Step();
        InvalidateRange(file, offset, data.size());
        size_t bytes = data.size();
        hw::SsdDevice* log = server_->dpu_log_device();
        if (mode == PersistMode::kDpuLogAck && log != nullptr) {
          DPDPU_SIM_ACCESS(race_tag_, "FileService", /*key=*/0,
                           sim::AccessKind::kCommutativeWrite);
          ++stats_.log_acked_writes;
          // Durable on the DPU log -> acknowledge immediately; the SSD
          // write and file-system update drain in the background.
          log->SubmitWrite(
              bytes, [this, file, offset, data = std::move(data),
                      cb = std::move(cb)]() mutable {
                reactor_.Step();
                cb(Status::Ok());
                server_->ssd().SubmitWrite(
                    data.size(),
                    [this, file, offset, data = std::move(data)] {
                      reactor_.Step();
                      InvalidateRange(file, offset, data.size());
                      Status s = fs_->Write(file, offset, data.span());
                      if (!s.ok()) {
                        DPDPU_LOG(Error)
                            << "background write failed: " << s;
                      }
                    });
              });
          return;
        }
        server_->ssd().SubmitWrite(
            bytes, [this, file, offset, data = std::move(data),
                    cb = std::move(cb)]() mutable {
              reactor_.Step();
              // Invalidate again at completion: a read that raced this
              // write through the SSD queue may have re-populated the
              // cache with the pre-write block after the submit-time
              // invalidate, and would otherwise serve that stale copy
              // until the next write or eviction.
              InvalidateRange(file, offset, data.size());
              cb(fs_->Write(file, offset, data.span()));
            });
      });
}

}  // namespace dpdpu::se
