// Tests for the Storage Engine: file service with DPU cache, host file
// client paths (Linux baseline vs DPU offload), persist modes, the
// remote-request protocol, traffic director routing, UDF translation,
// and end-to-end remote serving (the DDS data path).

#include <gtest/gtest.h>

#include "core/runtime/metrics.h"
#include "core/runtime/platform.h"
#include "core/storage/storage_engine.h"
#include "hw/calibration.h"
#include "kern/textgen.h"

namespace dpdpu::se {
namespace {

// Single-platform fixture for local storage paths.
struct SeFixture {
  SeFixture() : net(&sim), platform(&sim, &net) {}

  sim::Simulator sim;
  netsub::Network net;
  rt::Platform platform;

  FileService& files() { return platform.storage().file_service(); }
  HostFileClient& host() { return platform.storage().host_client(); }
};

TEST(FileServiceTest, CreateWriteReadThroughService) {
  SeFixture f;
  fssub::FileId file = 0;
  bool created = false;
  f.files().CreateAsync("t", [&](Result<fssub::FileId> id) {
    ASSERT_TRUE(id.ok());
    file = *id;
    created = true;
  });
  f.sim.Run();
  ASSERT_TRUE(created);

  Buffer data = kern::GenerateText(50000, {});
  bool wrote = false;
  f.files().WriteAsync(file, 0, data, PersistMode::kWriteThrough,
                       [&](Status s) {
                         ASSERT_TRUE(s.ok());
                         wrote = true;
                       });
  f.sim.Run();
  ASSERT_TRUE(wrote);

  Buffer got;
  f.files().ReadAsync(file, 0, uint32_t(data.size()),
                      [&](Result<Buffer> d) {
                        ASSERT_TRUE(d.ok());
                        got = std::move(d).value();
                      });
  f.sim.Run();
  EXPECT_EQ(got, data);
}

TEST(FileServiceTest, SecondReadHitsDpuCache) {
  SeFixture f;
  fssub::FileId file = 0;
  f.files().CreateAsync("t", [&](Result<fssub::FileId> id) { file = *id; });
  f.sim.Run();
  Buffer data = kern::GenerateRandomBytes(64 * 1024, 3);
  f.files().WriteAsync(file, 0, data, PersistMode::kWriteThrough,
                       [](Status) {});
  f.sim.Run();

  // First read misses (SSD), second hits (DPU cache), and is faster.
  sim::SimTime t0 = f.sim.now();
  f.files().ReadAsync(file, 0, 64 * 1024, [](Result<Buffer>) {});
  f.sim.Run();
  sim::SimTime miss_latency = f.sim.now() - t0;

  t0 = f.sim.now();
  Buffer got;
  f.files().ReadAsync(file, 0, 64 * 1024, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  f.sim.Run();
  sim::SimTime hit_latency = f.sim.now() - t0;

  EXPECT_EQ(got, data);
  EXPECT_EQ(f.files().stats().cache_hit_reads, 1u);
  EXPECT_LT(hit_latency * 5, miss_latency)
      << "cache hit must skip the SSD access latency";
}

TEST(FileServiceTest, WriteInvalidatesCache) {
  SeFixture f;
  fssub::FileId file = 0;
  f.files().CreateAsync("t", [&](Result<fssub::FileId> id) { file = *id; });
  f.sim.Run();
  Buffer v1 = kern::GenerateRandomBytes(8192, 1);
  Buffer v2 = kern::GenerateRandomBytes(8192, 2);
  f.files().WriteAsync(file, 0, v1, PersistMode::kWriteThrough,
                       [](Status) {});
  f.sim.Run();
  f.files().ReadAsync(file, 0, 8192, [](Result<Buffer>) {});  // warm cache
  f.sim.Run();
  f.files().WriteAsync(file, 0, v2, PersistMode::kWriteThrough,
                       [](Status) {});
  f.sim.Run();
  Buffer got;
  f.files().ReadAsync(file, 0, 8192, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(got, v2) << "stale cache page served after overwrite";
}

TEST(FileServiceTest, DpuLogAckIsFasterThanWriteThrough) {
  SeFixture f;
  fssub::FileId file = 0;
  f.files().CreateAsync("t", [&](Result<fssub::FileId> id) { file = *id; });
  f.sim.Run();
  Buffer data = kern::GenerateRandomBytes(8192, 5);

  sim::SimTime t0 = f.sim.now();
  sim::SimTime through_ack = 0;
  f.files().WriteAsync(file, 0, data, PersistMode::kWriteThrough,
                       [&](Status s) {
                         ASSERT_TRUE(s.ok());
                         through_ack = f.sim.now() - t0;
                       });
  f.sim.Run();

  t0 = f.sim.now();
  sim::SimTime log_ack = 0;
  f.files().WriteAsync(file, 8192, data, PersistMode::kDpuLogAck,
                       [&](Status s) {
                         ASSERT_TRUE(s.ok());
                         log_ack = f.sim.now() - t0;
                       });
  f.sim.Run();

  EXPECT_LT(log_ack, through_ack)
      << "Section 9 fast persistence: log ack must beat the SSD write";
  EXPECT_EQ(f.files().stats().log_acked_writes, 1u);

  // The background SSD write still lands: the data is readable.
  Buffer got;
  f.files().ReadAsync(file, 8192, 8192, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(got, data);
}

TEST(HostFileClientTest, OffloadPathSavesHostCycles) {
  auto run = [](HostIoPath path) {
    SeFixture f;
    f.host().set_path(path);
    fssub::FileId file = 0;
    f.files().CreateAsync("t",
                          [&](Result<fssub::FileId> id) { file = *id; });
    f.sim.Run();
    Buffer data = kern::GenerateRandomBytes(8192, 1);
    f.files().WriteAsync(file, 0, data, PersistMode::kWriteThrough,
                         [](Status) {});
    f.sim.Run();

    rt::UtilizationProbe probe(&f.platform.server());
    probe.Start();
    int done = 0;
    for (int i = 0; i < 200; ++i) {
      f.host().Read(file, 0, 8192, [&](Result<Buffer> d) {
        EXPECT_TRUE(d.ok());
        ++done;
      });
    }
    f.sim.Run();
    probe.Stop();
    EXPECT_EQ(done, 200);
    return double(probe.host_cores()) * double(probe.window_ns());
  };
  double linux_host_ns = run(HostIoPath::kLinuxBaseline);
  double offload_host_ns = run(HostIoPath::kDpuOffload);
  EXPECT_GT(linux_host_ns, offload_host_ns * 10)
      << "Figure 2: the DPU path frees host storage-stack cycles";
}

// --------------------------------------------------------------------------
// Protocol.
// --------------------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  RemoteRequest request;
  request.tag = 77;
  request.op = RemoteOp::kWrite;
  request.file = 3;
  request.offset = 4096;
  request.data = Buffer("payload");
  request.flags = kRequestFlagRequiresHost;
  Buffer encoded = EncodeRemoteRequest(request);
  auto parsed = ParseRemoteRequest(encoded.span());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tag, 77u);
  EXPECT_EQ(parsed->op, RemoteOp::kWrite);
  EXPECT_EQ(parsed->file, 3u);
  EXPECT_EQ(parsed->offset, 4096u);
  EXPECT_EQ(parsed->data.ToString(), "payload");
  EXPECT_EQ(parsed->flags, kRequestFlagRequiresHost);
}

TEST(ProtocolTest, MalformedRequestRejected) {
  Buffer junk("xx");
  EXPECT_TRUE(ParseRemoteRequest(junk.span()).status().IsCorruption());
  RemoteRequest request;
  Buffer encoded = EncodeRemoteRequest(request);
  encoded[8] = 99;  // invalid op
  EXPECT_TRUE(ParseRemoteRequest(encoded.span()).status().IsCorruption());
}

TEST(ProtocolTest, ResponseRoundTrip) {
  RemoteResponse resp;
  resp.tag = 5;
  resp.ok = false;
  resp.data = Buffer("err");
  Buffer encoded = EncodeRemoteResponse(resp);
  auto parsed = ParseRemoteResponse(encoded.span());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tag, 5u);
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->data.ToString(), "err");
}

TEST(ProtocolTest, VersionedRequestRoundTrip) {
  RemoteRequest request;
  request.tag = 9;
  request.op = RemoteOp::kWrite;
  request.file = 2;
  request.offset = 8192;
  request.data = Buffer("v");
  request.flags = kRequestFlagVersioned | kRequestFlagRequiresHost;
  request.version = 0x0102030405060708ull;
  Buffer encoded = EncodeRemoteRequest(request);
  auto parsed = ParseRemoteRequest(encoded.span());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tag, 9u);
  EXPECT_EQ(parsed->flags, request.flags);
  EXPECT_EQ(parsed->version, request.version);
  EXPECT_EQ(parsed->file, 2u);
  EXPECT_EQ(parsed->offset, 8192u);
  EXPECT_EQ(parsed->data.ToString(), "v");
}

TEST(ProtocolTest, VersionedResponseRoundTrip) {
  RemoteResponse resp;
  resp.tag = 11;
  resp.data = Buffer("block");
  resp.has_version = true;
  resp.version = 42;
  Buffer encoded = EncodeRemoteResponse(resp);
  auto parsed = ParseRemoteResponse(encoded.span());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tag, 11u);
  EXPECT_TRUE(parsed->ok);
  EXPECT_TRUE(parsed->has_version);
  EXPECT_EQ(parsed->version, 42u);
  EXPECT_EQ(parsed->data.ToString(), "block");
}

TEST(ProtocolTest, TruncatedVersionIsCorruption) {
  // Cut each frame in the middle of its version field.
  RemoteRequest request;
  request.flags = kRequestFlagVersioned;
  request.version = 7;
  Buffer req = EncodeRemoteRequest(request);
  constexpr size_t kRequestVersionAt = 8 + 1 + 1;  // tag, op, flags
  EXPECT_TRUE(ParseRemoteRequest(req.span().subspan(0, kRequestVersionAt + 4))
                  .status()
                  .IsCorruption());

  RemoteResponse resp;
  resp.has_version = true;
  resp.version = 7;
  Buffer rsp = EncodeRemoteResponse(resp);
  constexpr size_t kResponseVersionAt = 8 + 1;  // tag, flags
  EXPECT_TRUE(
      ParseRemoteResponse(rsp.span().subspan(0, kResponseVersionAt + 4))
          .status()
          .IsCorruption());
}

TEST(ProtocolTest, UnversionedFramesCarryNoVersionBytes) {
  // The version is on the wire only when the versioned flag is set, so
  // unversioned traffic keeps the original layout byte for byte.
  RemoteRequest request;
  request.op = RemoteOp::kWrite;
  request.data = Buffer("abc");
  request.version = 99;  // ignored without kRequestFlagVersioned
  // tag, op, flags, file, offset, length, data length, data
  EXPECT_EQ(EncodeRemoteRequest(request).size(),
            8u + 1 + 1 + 4 + 8 + 4 + 4 + 3);
  request.flags = kRequestFlagVersioned;
  EXPECT_EQ(EncodeRemoteRequest(request).size(),
            8u + 1 + 1 + 8 + 4 + 8 + 4 + 4 + 3);

  RemoteResponse resp;
  resp.data = Buffer("abc");
  resp.version = 99;  // ignored without has_version
  // tag, flags, data length, data
  EXPECT_EQ(EncodeRemoteResponse(resp).size(), 8u + 1 + 4 + 3);
  resp.has_version = true;
  EXPECT_EQ(EncodeRemoteResponse(resp).size(), 8u + 1 + 8 + 4 + 3);
}

// --------------------------------------------------------------------------
// Remote serving end to end (two platforms over the fabric).
// --------------------------------------------------------------------------

struct RemoteFixture {
  RemoteFixture() : net(&sim) {
    rt::PlatformOptions server_options;
    server_options.node = 1;
    server = std::make_unique<rt::Platform>(&sim, &net, server_options);
    rt::PlatformOptions client_options;
    client_options.node = 2;
    client = std::make_unique<rt::Platform>(&sim, &net, client_options);
    server->storage().Serve();
  }

  /// Creates a file with `data` on the storage server.
  fssub::FileId Prepare(ByteSpan data) {
    auto file = server->fs().Create("obj");
    DPDPU_CHECK(file.ok());
    DPDPU_CHECK(server->fs().Write(*file, 0, data).ok());
    return *file;
  }

  sim::Simulator sim;
  netsub::Network net;
  std::unique_ptr<rt::Platform> server, client;
};

TEST(RemoteStorageTest, ReadRoundTrip) {
  RemoteFixture f;
  Buffer data = kern::GenerateText(100000, {});
  fssub::FileId file = f.Prepare(data.span());

  RemoteStorageClient rsc(&f.client->network(), 1, 9000);
  Buffer got;
  int errors = 0;
  rsc.Read(file, 0, uint32_t(data.size()), [&](Result<Buffer> d, uint64_t) {
    if (d.ok()) {
      got = std::move(d).value();
    } else {
      ++errors;
    }
  });
  f.sim.Run();
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(got, data);
  EXPECT_EQ(f.server->storage().director().routed_to_dpu(), 1u);
  EXPECT_EQ(f.server->storage().offload_engine().requests_executed(), 1u);
}

TEST(RemoteStorageTest, WriteThenReadBack) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("seed").span());
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);

  Buffer payload = kern::GenerateRandomBytes(32 * 1024, 9);
  bool wrote = false;
  rsc.Write(file, 0, payload, [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  f.sim.Run();
  ASSERT_TRUE(wrote);

  Buffer got;
  rsc.Read(file, 0, 32 * 1024, [&](Result<Buffer> d, uint64_t) {
    ASSERT_TRUE(d.ok());
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(got, payload);
}

TEST(RemoteStorageTest, ManyConcurrentRequestsAllComplete) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(1 << 20, 4);
  fssub::FileId file = f.Prepare(data.span());
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);

  constexpr int kRequests = 100;
  int done = 0;
  for (int i = 0; i < kRequests; ++i) {
    uint64_t offset = uint64_t(i) * 8192;
    rsc.Read(file, offset, 8192, [&, offset](Result<Buffer> d, uint64_t) {
      ASSERT_TRUE(d.ok());
      ASSERT_EQ(d->size(), 8192u);
      EXPECT_EQ(std::memcmp(d->data(), data.data() + offset, 8192), 0);
      ++done;
    });
  }
  f.sim.Run();
  EXPECT_EQ(done, kRequests);
}

TEST(RemoteStorageTest, FlaggedRequestsRouteToHost) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(8192, 2);
  fssub::FileId file = f.Prepare(data.span());
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);

  Buffer got;
  rsc.Read(file, 0, 8192,
           [&](Result<Buffer> d, uint64_t) { got = std::move(d).value(); },
           kRequestFlagRequiresHost);
  f.sim.Run();
  EXPECT_EQ(got, data);
  EXPECT_EQ(f.server->storage().director().routed_to_host(), 1u);
  EXPECT_EQ(f.server->storage().director().routed_to_dpu(), 0u);
}

TEST(RemoteStorageTest, OffloadKeepsHostIdle) {
  // The DDS headline: offloaded remote reads leave the host untouched.
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(1 << 20, 4);
  fssub::FileId file = f.Prepare(data.span());
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);

  rt::UtilizationProbe probe(&f.server->server());
  probe.Start();
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    rsc.Read(file, (uint64_t(i) * 4096) % (1 << 20), 4096,
             [&](Result<Buffer> d, uint64_t) {
               ASSERT_TRUE(d.ok());
               ++done;
             });
  }
  f.sim.Run();
  probe.Stop();
  EXPECT_EQ(done, 200);
  EXPECT_LT(probe.host_cores(), 0.01)
      << "offloaded requests must not consume storage-server host cores";
  EXPECT_GT(probe.dpu_cores(), 0.0);
}

TEST(RemoteStorageTest, CustomHostHandlerReceivesForwards) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("x").span());
  int host_handled = 0;
  f.server->storage().SetHostHandler(
      [&](RemoteRequest, ReplyFn reply) {
        ++host_handled;
        reply(Buffer("from-host"));
      });
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);
  Buffer got;
  rsc.Read(
      file, 0, 1,
      [&](Result<Buffer> d, uint64_t) { got = std::move(d).value(); },
      kRequestFlagRequiresHost);
  f.sim.Run();
  EXPECT_EQ(host_handled, 1);
  EXPECT_EQ(got.ToString(), "from-host");
}

TEST(RemoteStorageTest, UdfTranslatesRequests) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(16384, 6);
  fssub::FileId file = f.Prepare(data.span());
  // UDF: redirect every read to offset 8192 (e.g. translating an
  // application key to a physical location).
  f.server->storage().offload_engine().SetUdf(
      [](const RemoteRequest& in) -> Result<RemoteRequest> {
        RemoteRequest out = in;
        out.offset = 8192;
        return out;
      });
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);
  Buffer got;
  rsc.Read(file, 0, 4096, [&](Result<Buffer> d, uint64_t) {
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(std::memcmp(got.data(), data.data() + 8192, 4096), 0);
}

// --------------------------------------------------------------------------
// Traffic director policy (partial offload, DDS question Q2).
// --------------------------------------------------------------------------

TEST(TrafficDirectorTest, DefaultPolicySplitsOnRequiresHostFlag) {
  SeFixture f;
  TrafficDirector& director = f.platform.storage().director();
  RemoteRequest offloadable;
  RemoteRequest host_only;
  host_only.flags = kRequestFlagRequiresHost;
  EXPECT_EQ(director.Classify(offloadable), TrafficDirector::Route::kDpu);
  EXPECT_EQ(director.Classify(host_only), TrafficDirector::Route::kHost);
  EXPECT_EQ(director.Classify(offloadable), TrafficDirector::Route::kDpu);
  EXPECT_EQ(director.routed_to_dpu(), 2u);
  EXPECT_EQ(director.routed_to_host(), 1u);
}

TEST(TrafficDirectorTest, CustomClassifierOverridesFlag) {
  SeFixture f;
  TrafficDirector& director = f.platform.storage().director();
  // Policy by offset range instead of by flag: only the first 1 MB of a
  // file is DPU-resident (e.g. a hot index prefix).
  director.SetClassifier([](const RemoteRequest& request) {
    return request.offset < (1u << 20);
  });
  RemoteRequest low, high;
  low.offset = 4096;
  low.flags = kRequestFlagRequiresHost;  // custom policy ignores flags
  high.offset = 2u << 20;
  EXPECT_EQ(director.Classify(low), TrafficDirector::Route::kDpu);
  EXPECT_EQ(director.Classify(high), TrafficDirector::Route::kHost);
  EXPECT_EQ(director.routed_to_dpu(), 1u);
  EXPECT_EQ(director.routed_to_host(), 1u);
}

TEST(TrafficDirectorTest, ClassifyChargesTheDpuNotTheHost) {
  SeFixture f;
  TrafficDirector& director = f.platform.storage().director();
  rt::UtilizationProbe probe(&f.platform.server());
  probe.Start();
  RemoteRequest request;
  for (int i = 0; i < 1000; ++i) director.Classify(request);
  f.sim.Run();
  probe.Stop();
  EXPECT_GT(probe.dpu_cores(), 0.0)
      << "the per-packet decision must cost DPU cycles";
  EXPECT_EQ(probe.host_cores(), 0.0)
      << "classification must not touch host cores";
}

TEST(RemoteStorageTest, PartialOffloadSplitMatchesDirectorCounters) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(256 * 1024, 11);
  fssub::FileId file = f.Prepare(data.span());
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);

  // 70/30 offloadable/host split, deterministic pattern.
  constexpr int kRequests = 100;
  int done = 0, flagged = 0;
  for (int i = 0; i < kRequests; ++i) {
    uint8_t flags = (i % 10) < 3 ? kRequestFlagRequiresHost : 0;
    flagged += flags ? 1 : 0;
    rsc.Read(file, uint64_t(i) * 2048, 2048,
             [&](Result<Buffer> d, uint64_t) {
               ASSERT_TRUE(d.ok());
               ++done;
             },
             flags);
  }
  f.sim.Run();
  EXPECT_EQ(done, kRequests);
  TrafficDirector& director = f.server->storage().director();
  EXPECT_EQ(director.routed_to_host(), uint64_t(flagged));
  EXPECT_EQ(director.routed_to_dpu(), uint64_t(kRequests - flagged));
  // Every DPU-routed request executed on the offload engine; host-routed
  // ones did not.
  EXPECT_EQ(f.server->storage().offload_engine().requests_executed(),
            uint64_t(kRequests - flagged));
}

// --------------------------------------------------------------------------
// Offload engine (UDF translation edge cases, persist mode).
// --------------------------------------------------------------------------

TEST(RemoteStorageTest, UdfFailureProducesErrorResponse) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(8192, 13);
  fssub::FileId file = f.Prepare(data.span());
  f.server->storage().offload_engine().SetUdf(
      [](const RemoteRequest& in) -> Result<RemoteRequest> {
        if (in.offset == 0) {
          return Status::InvalidArgument("UDF rejects offset 0");
        }
        return in;
      });
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);

  bool rejected = false, served = false;
  rsc.Read(file, 0, 4096, [&](Result<Buffer> d, uint64_t) {
    EXPECT_FALSE(d.ok()) << "UDF rejection must reach the client as !ok";
    rejected = true;
  });
  rsc.Read(file, 4096, 4096, [&](Result<Buffer> d, uint64_t) {
    EXPECT_TRUE(d.ok());
    served = true;
  });
  f.sim.Run();
  EXPECT_TRUE(rejected);
  EXPECT_TRUE(served);
  // Both requests reached the engine; failure still counts as executed.
  EXPECT_EQ(f.server->storage().offload_engine().requests_executed(), 2u);
}

TEST(RemoteStorageTest, OffloadEnginePersistModeAppliesToRemoteWrites) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("seed").span());
  f.server->storage().offload_engine().SetPersistMode(
      PersistMode::kDpuLogAck);
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);

  Buffer payload = kern::GenerateRandomBytes(8192, 21);
  bool wrote = false;
  rsc.Write(file, 0, payload, [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  f.sim.Run();
  ASSERT_TRUE(wrote);
  EXPECT_EQ(f.server->storage().file_service().stats().log_acked_writes, 1u)
      << "offloaded writes must honor the engine's persist mode";

  Buffer got;
  rsc.Read(file, 0, 8192, [&](Result<Buffer> d, uint64_t) {
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(got, payload);
}

TEST(RemoteStorageTest, ReadBeyondFileFailsCleanly) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("tiny").span());
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);
  bool got_short = false;
  // Reads past EOF return the short prefix (empty here).
  rsc.Read(file, 100, 50, [&](Result<Buffer> d, uint64_t) {
    ASSERT_TRUE(d.ok());
    EXPECT_TRUE(d->empty());
    got_short = true;
  });
  // Unknown file id errors.
  bool got_error = false;
  rsc.Read(999, 0, 10, [&](Result<Buffer> d, uint64_t) {
    EXPECT_FALSE(d.ok());
    got_error = true;
  });
  f.sim.Run();
  EXPECT_TRUE(got_short);
  EXPECT_TRUE(got_error);
}

// --------------------------------------------------------------------------
// Versioned requests and connection robustness.
// --------------------------------------------------------------------------

/// Speaks the wire protocol directly, to send frames RemoteStorageClient
/// never would and to see every response field.
struct RawConnection {
  explicit RawConnection(ne::NetworkEngine* network)
      : socket(network->Connect(1, 9000)) {
    socket->SetReceiveCallback([this](ByteSpan data) {
      frames.Append(data);
      ByteSpan message;
      while (frames.Next(&message)) {
        Result<RemoteResponse> resp = ParseRemoteResponse(message);
        EXPECT_TRUE(resp.ok());
        if (resp.ok()) responses.push_back(std::move(resp).value());
      }
    });
  }

  void Send(const RemoteRequest& request) {
    ne::SendFrame(socket, EncodeRemoteRequest(request).span());
  }

  ne::NeSocket* socket;
  ne::FrameReader frames;
  std::vector<RemoteResponse> responses;
};

RemoteRequest VersionedWrite(uint64_t tag, fssub::FileId file,
                             uint64_t version, Buffer data) {
  RemoteRequest request;
  request.tag = tag;
  request.op = RemoteOp::kWrite;
  request.file = file;
  request.flags = kRequestFlagVersioned;
  request.version = version;
  request.data = std::move(data);
  return request;
}

TEST(RemoteStorageTest, StaleVersionWriteIsAckedWithStoredVersion) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer(size_t{4096}).span());
  Buffer fresh = kern::GenerateRandomBytes(4096, 1);
  Buffer stale = kern::GenerateRandomBytes(4096, 2);
  RawConnection raw(&f.client->network());
  raw.Send(VersionedWrite(1, file, 5, fresh));
  f.sim.Run();
  raw.Send(VersionedWrite(2, file, 3, stale));
  f.sim.Run();

  ASSERT_EQ(raw.responses.size(), 2u);
  EXPECT_EQ(raw.responses[0].tag, 1u);
  EXPECT_TRUE(raw.responses[0].ok);
  EXPECT_FALSE(raw.responses[0].has_version);
  const RemoteResponse& ack = raw.responses[1];
  EXPECT_EQ(ack.tag, 2u);
  EXPECT_TRUE(ack.ok) << "a stale write is acknowledged, not failed";
  EXPECT_TRUE(ack.has_version);
  EXPECT_EQ(ack.version, 5u);
  EXPECT_EQ(f.server->storage().versions().Lookup(file, 0), 5u);
  auto stored = f.server->fs().Read(file, 0, 4096);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, fresh) << "the stale write must not be applied";
  EXPECT_EQ(f.server->storage().file_service().stats().writes, 1u);
}

TEST(RemoteStorageTest, VersionedReadReturnsDurableVersionOnBothPaths) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer(size_t{8192}).span());
  Buffer payload = kern::GenerateRandomBytes(4096, 3);
  RemoteStorageClient rsc(&f.client->network(), 1, 9000);
  bool wrote = false;
  rsc.Write(
      file, 4096, payload, [&](Status s) { wrote = s.ok(); },
      kRequestFlagVersioned, 7);
  f.sim.Run();
  ASSERT_TRUE(wrote);

  struct Probe {
    uint8_t flags;
    uint64_t want_version;
  };
  for (Probe probe : {Probe{kRequestFlagVersioned, 7},
                      Probe{kRequestFlagVersioned | kRequestFlagRequiresHost,
                            7},
                      Probe{0, 0}, Probe{kRequestFlagRequiresHost, 0}}) {
    SCOPED_TRACE(int(probe.flags));
    Buffer got;
    uint64_t version = 99;
    rsc.Read(
        file, 4096, 4096,
        [&](Result<Buffer> d, uint64_t v) {
          ASSERT_TRUE(d.ok());
          got = std::move(d).value();
          version = v;
        },
        probe.flags);
    f.sim.Run();
    EXPECT_EQ(got, payload);
    EXPECT_EQ(version, probe.want_version);
  }
  EXPECT_EQ(f.server->storage().director().routed_to_host(), 2u);
  EXPECT_EQ(f.server->storage().director().routed_to_dpu(), 3u);
}

TEST(RemoteStorageTest, MalformedFrameIsDroppedAndConnectionServes) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(4096, 4);
  fssub::FileId file = f.Prepare(data.span());
  RawConnection raw(&f.client->network());
  ne::SendFrame(raw.socket, Buffer("not a request").span());
  RemoteRequest read;
  read.tag = 42;
  read.file = file;
  read.length = 4096;
  raw.Send(read);
  f.sim.Run();

  ASSERT_EQ(raw.responses.size(), 1u);
  EXPECT_EQ(raw.responses[0].tag, 42u);
  EXPECT_TRUE(raw.responses[0].ok);
  EXPECT_EQ(raw.responses[0].data, data);
}

TEST(RemoteStorageTest, ClientDestroyedInsideItsOwnCallback) {
  // The owner may drop its last reference to the client from inside a
  // response callback (a catch-up job finishing); the client must stop
  // touching itself, and later responses must be ignored. Under ASan a
  // use-after-free here fails the test.
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(8192, 5);
  fssub::FileId file = f.Prepare(data.span());
  auto rsc =
      std::make_unique<RemoteStorageClient>(&f.client->network(), 1, 9000);
  int callbacks = 0;
  for (int i = 0; i < 4; ++i) {
    rsc->Read(file, uint64_t(i) * 2048, 2048,
              [&](Result<Buffer> d, uint64_t) {
                EXPECT_TRUE(d.ok());
                ++callbacks;
                rsc.reset();
              });
  }
  f.sim.Run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(rsc, nullptr);
}

}  // namespace
}  // namespace dpdpu::se
