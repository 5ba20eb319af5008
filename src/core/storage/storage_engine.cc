#include "core/storage/storage_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "hw/calibration.h"

namespace dpdpu::se {

namespace cal = hw::cal;

// ---------------------------------------------------------------------------
// Protocol.
// ---------------------------------------------------------------------------

Buffer EncodeRemoteRequest(const RemoteRequest& request) {
  Buffer out;
  out.AppendU64(request.tag);
  out.AppendU8(static_cast<uint8_t>(request.op));
  out.AppendU8(request.flags);
  // The version rides the wire only for versioned traffic, so the legacy
  // frame layout (and every unversioned bench trace) is unchanged.
  if (request.flags & kRequestFlagVersioned) {
    out.AppendU64(request.version);
  }
  out.AppendU32(request.file);
  out.AppendU64(request.offset);
  out.AppendU32(request.length);
  out.AppendU32(static_cast<uint32_t>(request.data.size()));
  out.Append(request.data.span());
  return out;
}

Result<RemoteRequest> ParseRemoteRequest(ByteSpan payload) {
  ByteReader r(payload);
  RemoteRequest request;
  uint8_t op;
  uint32_t data_len;
  if (!r.ReadU64(&request.tag) || !r.ReadU8(&op) ||
      !r.ReadU8(&request.flags)) {
    return Status::Corruption("remote request: truncated header");
  }
  if ((request.flags & kRequestFlagVersioned) &&
      !r.ReadU64(&request.version)) {
    return Status::Corruption("remote request: truncated version");
  }
  if (!r.ReadU32(&request.file) || !r.ReadU64(&request.offset) ||
      !r.ReadU32(&request.length) || !r.ReadU32(&data_len)) {
    return Status::Corruption("remote request: truncated header");
  }
  if (op != static_cast<uint8_t>(RemoteOp::kRead) &&
      op != static_cast<uint8_t>(RemoteOp::kWrite)) {
    return Status::Corruption("remote request: bad op");
  }
  request.op = static_cast<RemoteOp>(op);
  if (!r.ReadBytes(data_len, &request.data)) {
    return Status::Corruption("remote request: truncated payload");
  }
  return request;
}

namespace {
constexpr uint8_t kResponseFlagOk = 1;
constexpr uint8_t kResponseFlagHasVersion = 2;
/// Unversioned response header: tag, flags, data length.
constexpr size_t kResponseHeaderBytes = 8 + 1 + 4;
constexpr char kRequestFailed[] = "remote request failed";
}  // namespace

Buffer EncodeRemoteResponse(const RemoteResponse& response) {
  Buffer out;
  out.AppendU64(response.tag);
  uint8_t flags = (response.ok ? kResponseFlagOk : 0) |
                  (response.has_version ? kResponseFlagHasVersion : 0);
  out.AppendU8(flags);
  if (response.has_version) out.AppendU64(response.version);
  out.AppendU32(static_cast<uint32_t>(response.data.size()));
  out.Append(response.data.span());
  return out;
}

Result<RemoteResponse> ParseRemoteResponse(ByteSpan payload) {
  ByteReader r(payload);
  RemoteResponse response;
  uint8_t flags;
  uint32_t data_len;
  if (!r.ReadU64(&response.tag) || !r.ReadU8(&flags)) {
    return Status::Corruption("remote response: truncated header");
  }
  response.ok = (flags & kResponseFlagOk) != 0;
  response.has_version = (flags & kResponseFlagHasVersion) != 0;
  if (response.has_version && !r.ReadU64(&response.version)) {
    return Status::Corruption("remote response: truncated version");
  }
  if (!r.ReadU32(&data_len)) {
    return Status::Corruption("remote response: truncated header");
  }
  if (!r.ReadBytes(data_len, &response.data)) {
    return Status::Corruption("remote response: truncated payload");
  }
  return response;
}

FileService::WriteCallback AckWrite(ReplyFn reply) {
  return [reply = std::move(reply)](Status s) mutable {
    if (s.ok()) {
      reply(Buffer());
    } else {
      reply(std::move(s));
    }
  };
}

// ---------------------------------------------------------------------------
// VersionMap.
// ---------------------------------------------------------------------------

bool VersionMap::Admit(fssub::FileId file, uint64_t offset, uint32_t length,
                       uint64_t version) {
  DPDPU_SIM_ACCESS(race_tag_, "se::VersionMap", sim::RaceKey(file, offset),
                   sim::AccessKind::kCommutativeWrite);
  Entry& entry = entries_[Key{file, offset}];
  if (version < entry.pending) return false;
  entry.pending = version;
  entry.length = length;
  return true;
}

void VersionMap::MarkDurable(fssub::FileId file, uint64_t offset,
                             uint64_t version) {
  DPDPU_SIM_ACCESS(race_tag_, "se::VersionMap", sim::RaceKey(file, offset),
                   sim::AccessKind::kCommutativeWrite);
  Entry& entry = entries_[Key{file, offset}];
  entry.version = std::max(entry.version, version);
}

uint64_t VersionMap::Lookup(fssub::FileId file, uint64_t offset) const {
  DPDPU_SIM_ACCESS(race_tag_, "se::VersionMap", sim::RaceKey(file, offset),
                   sim::AccessKind::kRead);
  auto it = entries_.find(Key{file, offset});
  return it == entries_.end() ? 0 : it->second.version;
}

// ---------------------------------------------------------------------------
// HostFileClient.
// ---------------------------------------------------------------------------

void HostFileClient::Create(
    const std::string& name,
    UniqueFunction<void(Result<fssub::FileId>)> cb) {
  server_->host_cpu().Execute(
      cal::kHostRingSubmitCycles,
      [this, name, cb = std::move(cb)]() mutable {
        files_->CreateAsync(name, std::move(cb));
      });
}

namespace {
constexpr uint32_t kHostCachePageBytes = 4096;
}  // namespace

HostFileClient::~HostFileClient() {
  if (host_cache_reservation_ > 0) {
    server_->host_memory().Free(host_cache_reservation_);
  }
}

void HostFileClient::EnableHostCache(uint64_t bytes) {
  uint64_t granted = std::min(bytes, server_->host_memory().available());
  DPDPU_CHECK(server_->host_memory().Allocate(granted).ok());
  host_cache_reservation_ = granted;
  host_cache_ = std::make_unique<fssub::PageCache>(granted);
}

const fssub::PageCacheStats* HostFileClient::host_cache_stats() const {
  return host_cache_ == nullptr ? nullptr : &host_cache_->stats();
}

bool HostFileClient::TryHostCache(fssub::FileId file, uint64_t offset,
                                  uint32_t length, Buffer* out) {
  if (host_cache_ == nullptr || length == 0) return false;
  uint64_t first = offset / kHostCachePageBytes;
  uint64_t last = (offset + length - 1) / kHostCachePageBytes;
  Buffer assembled;
  assembled.reserve(length);
  for (uint64_t p = first; p <= last; ++p) {
    const Buffer* page = host_cache_->Get({file, p});
    if (page == nullptr) return false;
    uint64_t base = p * kHostCachePageBytes;
    size_t begin = p == first ? size_t(offset - base) : 0;
    size_t end =
        p == last ? size_t(offset + length - base) : page->size();
    if (end > page->size()) return false;
    assembled.Append(page->span().subspan(begin, end - begin));
  }
  *out = std::move(assembled);
  return true;
}

void HostFileClient::PopulateHostCache(fssub::FileId file, uint64_t offset,
                                       ByteSpan data) {
  if (host_cache_ == nullptr) return;
  uint64_t page = (offset + kHostCachePageBytes - 1) / kHostCachePageBytes;
  size_t pos = size_t(page * kHostCachePageBytes - offset);
  while (pos + kHostCachePageBytes <= data.size()) {
    host_cache_->Put({file, page},
                     Buffer(data.data() + pos, kHostCachePageBytes));
    ++page;
    pos += kHostCachePageBytes;
  }
}

void HostFileClient::Read(fssub::FileId file, uint64_t offset,
                          uint32_t length, FileService::ReadCallback cb) {
  // Host-memory cache hits bypass even the ring crossing (a host-local
  // memory copy plus negligible lookup cost).
  Buffer cached;
  if (path_ == HostIoPath::kDpuOffload &&
      TryHostCache(file, offset, length, &cached)) {
    cb(std::move(cached));
    return;
  }
  if (path_ == HostIoPath::kLinuxBaseline) {
    // Traditional path: the host storage stack burns host cycles per I/O
    // (Figure 2's 18 K cycles/page), then the device access.
    server_->host_cpu().ExecuteFor(
        server_->host_cpu().CyclesToTime(cal::kLinuxStorageStackCyclesPerIo),
        [this, file, offset, length, cb = std::move(cb)]() mutable {
          server_->ssd().SubmitRead(
              length,
              [this, file, offset, length, cb = std::move(cb)]() mutable {
                cb(files_->fs().Read(file, offset, length));
              });
        });
    return;
  }
  // DPDPU path: ring submit, DPU service, data DMA back, host poll.
  server_->host_cpu().Execute(
      cal::kHostRingSubmitCycles,
      [this, file, offset, length, cb = std::move(cb)]() mutable {
        files_->ReadAsync(
            file, offset, length,
            [this, file, offset, cb = std::move(cb)](
                Result<Buffer> data) mutable {
              size_t bytes = data.ok() ? data->size() : 0;
              server_->pcie().Dma(
                  bytes, [this, file, offset, cb = std::move(cb),
                          data = std::move(data)]() mutable {
                    server_->host_cpu().Execute(
                        cal::kHostRingPollCycles,
                        [this, file, offset, cb = std::move(cb),
                         data = std::move(data)]() mutable {
                          if (data.ok()) {
                            PopulateHostCache(file, offset, data->span());
                          }
                          cb(std::move(data));
                        });
                  });
            });
      });
}

void HostFileClient::Write(fssub::FileId file, uint64_t offset, Buffer data,
                           FileService::WriteCallback cb) {
  if (host_cache_ != nullptr && !data.empty()) {
    uint64_t first = offset / kHostCachePageBytes;
    uint64_t last = (offset + data.size() - 1) / kHostCachePageBytes;
    for (uint64_t p = first; p <= last; ++p) {
      host_cache_->Erase({file, p});
    }
  }
  if (path_ == HostIoPath::kLinuxBaseline) {
    server_->host_cpu().ExecuteFor(
        server_->host_cpu().CyclesToTime(cal::kLinuxStorageStackCyclesPerIo),
        [this, file, offset, data = std::move(data),
         cb = std::move(cb)]() mutable {
          // Size read before the move-capture consumes data (argument
          // evaluation order is unspecified).
          size_t bytes = data.size();
          server_->ssd().SubmitWrite(
              bytes, [this, file, offset, data = std::move(data),
                      cb = std::move(cb)]() mutable {
                cb(files_->fs().Write(file, offset, data.span()));
              });
        });
    return;
  }
  server_->host_cpu().Execute(
      cal::kHostRingSubmitCycles,
      [this, file, offset, data = std::move(data),
       cb = std::move(cb)]() mutable {
        size_t bytes = data.size();
        server_->pcie().Dma(
            bytes, [this, file, offset, data = std::move(data),
                    cb = std::move(cb)]() mutable {
              files_->WriteAsync(
                  file, offset, std::move(data), PersistMode::kWriteThrough,
                  [this, cb = std::move(cb)](Status s) mutable {
                    server_->host_cpu().Execute(
                        cal::kHostRingPollCycles,
                        [cb = std::move(cb), s]() mutable { cb(s); });
                  });
            });
      });
}

// ---------------------------------------------------------------------------
// StorageEngine.
// ---------------------------------------------------------------------------

StorageEngine::StorageEngine(hw::Server* server, ne::NetworkEngine* network,
                             fssub::DpuFs* fs, StorageEngineOptions options)
    : server_(server), network_(network), options_(options) {
  files_ = std::make_unique<FileService>(server, fs,
                                         options.dpu_cache_bytes);
  host_client_ = std::make_unique<HostFileClient>(server, files_.get());
  director_ = std::make_unique<TrafficDirector>(server, nullptr);
  offload_ = std::make_unique<OffloadEngine>(server, files_.get());
  offload_->SetPersistMode(options.persist_mode);
}

void StorageEngine::Serve() {
  network_->Listen(options_.listen_port, [this](ne::NeSocket* socket) {
    // The server endpoint is the DPU itself: requests are classified and
    // (when offloadable) served without a host crossing (Figure 8).
    socket->SetLanding(ne::SocketLanding::kDpu);
    socket->SetReceiveCallback(
        [this, socket, frames = ne::FrameReader()](ByteSpan data) mutable {
          frames.Append(data);
          ByteSpan message;
          while (frames.Next(&message)) {
            Result<RemoteRequest> request = ParseRemoteRequest(message);
            // A malformed request is dropped; the connection stays up.
            if (request.ok()) {
              HandleRequest(std::move(request).value(), socket);
            }
          }
        });
  });
}

void StorageEngine::HandleRequest(RemoteRequest request,
                                  ne::NeSocket* socket) {
  bool versioned = (request.flags & kRequestFlagVersioned) != 0;
  // Admit versioned writes through the version map on the DPU-side
  // path. A stale version (a hint replay or retried write racing a
  // newer write to the same block) is acknowledged with the stored
  // version without being applied — last-writer-wins keeps catch-up
  // idempotent.
  if (versioned && request.op == RemoteOp::kWrite &&
      !versions_.Admit(request.file, request.offset,
                       static_cast<uint32_t>(request.data.size()),
                       request.version)) {
    RemoteResponse stale;
    stale.tag = request.tag;
    stale.has_version = true;
    stale.version = versions_.Lookup(request.file, request.offset);
    ne::SendFrame(socket, EncodeRemoteResponse(stale).span());
    return;
  }
  // Every other response is encoded here, once, when the DPU or host
  // path replies.
  ReplyFn reply = [this, socket, tag = request.tag, versioned,
                   op = request.op, file = request.file,
                   offset = request.offset,
                   version = request.version](Result<Buffer> result) {
    RemoteResponse resp;
    resp.tag = tag;
    resp.ok = result.ok();
    if (result.ok()) resp.data = std::move(result).value();
    if (versioned && op == RemoteOp::kWrite) {
      // The version becomes read-visible only once the data write has
      // completed (the reply fires after the write-through) — a read
      // racing the in-flight write must see the old version, or it
      // would trust a block whose content hasn't landed.
      if (resp.ok) versions_.MarkDurable(file, offset, version);
    } else if (versioned) {
      // Stamp the stored block version onto the read response so the
      // client can detect a stale replica (read-repair backstop).
      resp.has_version = true;
      resp.version = versions_.Lookup(file, offset);
    }
    ne::SendFrame(socket, EncodeRemoteResponse(resp).span());
  };
  TrafficDirector::Route route = director_->Classify(request);
  if (route == TrafficDirector::Route::kDpu) {
    offload_->Execute(std::move(request), std::move(reply));
  } else {
    HostFallback(std::move(request), std::move(reply));
  }
}

void StorageEngine::HostFallback(RemoteRequest request, ReplyFn reply) {
  if (host_handler_) {
    // The request crosses PCIe to the host application first.
    server_->pcie().Dma(
        request.data.size() + 64,
        [this, request = std::move(request),
         reply = std::move(reply)]() mutable {
          host_handler_(std::move(request), std::move(reply));
        });
    return;
  }
  // Default host fallback: PCIe to host, host storage-stack processing,
  // then the file operation (still via the unified DPU file system).
  server_->pcie().Dma(
      request.data.size() + 64,
      [this, request = std::move(request),
       reply = std::move(reply)]() mutable {
        server_->host_cpu().ExecuteFor(
            server_->host_cpu().CyclesToTime(
                cal::kLinuxStorageStackCyclesPerIo),
            [this, request = std::move(request),
             reply = std::move(reply)]() mutable {
              // Host-processed results cross PCIe again on the way back
              // to the NIC — the extra round trips Figure 8 highlights.
              // The DMA moves the unversioned response.
              ReplyFn respond = [this, reply = std::move(reply)](
                                    Result<Buffer> data) mutable {
                size_t bytes =
                    kResponseHeaderBytes + (data.ok() ? data->size() : 0);
                server_->pcie().Dma(
                    bytes, [reply = std::move(reply),
                            data = std::move(data)]() mutable {
                      reply(std::move(data));
                    });
              };
              if (request.op == RemoteOp::kRead) {
                files_->ReadAsync(request.file, request.offset,
                                  request.length, std::move(respond));
              } else {
                files_->WriteAsync(request.file, request.offset,
                                   std::move(request.data),
                                   PersistMode::kWriteThrough,
                                   AckWrite(std::move(respond)));
              }
            });
      });
}

// ---------------------------------------------------------------------------
// RemoteStorageClient.
// ---------------------------------------------------------------------------

RemoteStorageClient::RemoteStorageClient(ne::NetworkEngine* network,
                                         netsub::NodeId server,
                                         uint16_t port)
    : sim_(network->simulator()), alive_(std::make_shared<bool>(true)) {
  socket_ = network->Connect(server, port);
  socket_->SetReceiveCallback([this](ByteSpan data) { OnResponse(data); });
  socket_->SetCloseCallback([this, alive = alive_] {
    closed_ = true;
    // Fail pendings from a fresh event so callers may destroy this
    // client from inside the failure callbacks (the connection's close
    // callback is still on the stack here).
    // The alive token guards `this`; zero delay is the point (callers
    // may destroy the client from inside the failure callbacks) and the
    // parent edge keeps the deferred event causally ordered.
    // simlint:allow(R6): alive-token-guarded, parent-edge-ordered defer
    sim_->Schedule(0, [this, alive] {
      if (*alive) FailAllPending();
    });
  });
}

RemoteStorageClient::~RemoteStorageClient() {
  *alive_ = false;
  socket_->SetReceiveCallback(nullptr);
  socket_->SetCloseCallback(nullptr);
}

void RemoteStorageClient::FailAllPending() {
  DPDPU_SIM_ACCESS(race_tag_, "RemoteStorageClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  auto pending = std::move(pending_);
  pending_.clear();
  // Tag order (std::map) keeps the failure dispatch deterministic. The
  // callbacks may re-enter and destroy this client; only locals are
  // touched from here on.
  for (auto& [tag, cb] : pending) cb(Status::IoError(kRequestFailed), 0);
}

void RemoteStorageClient::Read(fssub::FileId file, uint64_t offset,
                               uint32_t length, ReadCallback cb,
                               uint8_t flags) {
  RemoteRequest request;
  request.op = RemoteOp::kRead;
  request.file = file;
  request.offset = offset;
  request.length = length;
  request.flags = flags;
  Call(std::move(request), std::move(cb));
}

void RemoteStorageClient::Write(fssub::FileId file, uint64_t offset,
                                Buffer data, UniqueFunction<void(Status)> cb,
                                uint8_t flags, uint64_t version) {
  RemoteRequest request;
  request.op = RemoteOp::kWrite;
  request.file = file;
  request.offset = offset;
  request.data = std::move(data);
  request.flags = flags;
  request.version = version;
  Call(std::move(request),
       [cb = std::move(cb)](Result<Buffer> ack, uint64_t) mutable {
         cb(ack.status());
       });
}

void RemoteStorageClient::Call(RemoteRequest request, ReadCallback done) {
  // Issue and completion both touch next_tag_/pending_ (see the tag's
  // header comment); distinct-tag table motion commutes.
  DPDPU_SIM_ACCESS(race_tag_, "RemoteStorageClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  request.tag = next_tag_++;
  pending_[request.tag] = std::move(done);
  if (!closed_) {
    ne::SendFrame(socket_, EncodeRemoteRequest(request).span());
    return;
  }
  // The connection is gone; fail this request from a fresh event the
  // same way the close path fails in-flight ones. The alive token
  // guards `this`; zero delay is the point and the parent edge keeps
  // the deferred event causally ordered.
  // simlint:allow(R6): alive-token-guarded, parent-edge-ordered defer
  sim_->Schedule(0, [this, alive = alive_, tag = request.tag] {
    if (!*alive) return;
    DPDPU_SIM_ACCESS(race_tag_, "RemoteStorageClient", /*key=*/0,
                     sim::AccessKind::kCommutativeWrite);
    auto it = pending_.find(tag);
    if (it == pending_.end()) return;
    auto cb = std::move(it->second);
    pending_.erase(it);
    cb(Status::IoError(kRequestFailed), 0);
  });
}

void RemoteStorageClient::OnResponse(ByteSpan data) {
  DPDPU_SIM_ACCESS(race_tag_, "RemoteStorageClient", /*key=*/0,
                   sim::AccessKind::kCommutativeWrite);
  auto alive = alive_;
  frames_.Append(data);
  ByteSpan message;
  while (frames_.Next(&message)) {
    Result<RemoteResponse> resp = ParseRemoteResponse(message);
    if (!resp.ok()) continue;
    auto it = pending_.find(resp->tag);
    if (it == pending_.end()) continue;
    auto cb = std::move(it->second);
    pending_.erase(it);
    if (resp->ok) {
      cb(std::move(resp->data), resp->version);
    } else {
      cb(Status::IoError(kRequestFailed), 0);
    }
    // Destroying the callback may drop the owner's last reference to
    // this client (e.g. a catch-up job completing from inside its own
    // response); stop touching members if so.
    cb = nullptr;
    if (!*alive) return;
  }
}

}  // namespace dpdpu::se
