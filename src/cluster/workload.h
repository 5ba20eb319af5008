// Fleet workload drivers: a per-client request issuer that routes
// through the shard router (with replica re-steer on timeout, for hard
// node failures), plus open-loop (Poisson arrival) and closed-loop
// (fixed in-flight) generators over the disaggregated_kv / log_replay
// request shapes — 8 KB-class reads and replicated writes against each
// storage server's shard file.

#ifndef DPDPU_CLUSTER_WORKLOAD_H_
#define DPDPU_CLUSTER_WORKLOAD_H_

#include <map>
#include <memory>
#include <vector>

#include "cluster/fleet.h"
#include "common/function.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/storage/storage_engine.h"

namespace dpdpu::cluster {

struct WorkloadOptions {
  /// Fraction of operations that are reads; writes replicate to every
  /// live server in the key's preference list.
  double read_fraction = 1.0;
  /// Fraction of requests the DPU may serve; the rest carry the
  /// requires-host flag (the partial-offload split).
  double offload_fraction = 1.0;
  uint32_t request_bytes = 8192;
  /// Keys are ids in [0, keyspace); key k maps to shard-file offset
  /// k * request_bytes, so keyspace * request_bytes must fit the shard.
  uint64_t keyspace = 4000;
  /// 0 = uniform key popularity; otherwise Zipfian skew theta.
  double zipf_theta = 0.0;
  uint64_t seed = 1;
  /// When > 0, an unanswered read re-steers to the next live replica
  /// after this long, and an unanswered per-replica write is retried
  /// (hard-failure recovery). 0 disables timeouts — right for graceful
  /// failover, where in-flight requests complete. Independent of the
  /// timeout, a connection abort (MiniTCP's retransmission cap firing
  /// the close callback) fails the RPC immediately, so failover latency
  /// is bounded by TcpConfig::max_retransmit_time even with timeouts
  /// off.
  sim::SimTime retry_timeout = 0;
  uint32_t max_attempts = 3;
};

/// One client node's view of the fleet: lazily opens a remote-storage
/// connection per storage server and issues routed operations.
class FleetClient {
 public:
  struct Stats {
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;     // exhausted replicas/attempts
    uint64_t resteered = 0;  // re-steers to a replica (timeout, error,
                             // connection abort, or stale version)
    /// Completed reads whose payload content was older than the version
    /// committed before the read started — the stale-read bug made
    /// measurable by stamped payloads.
    uint64_t stale_reads = 0;
    /// Reads re-steered because the replica's served version was behind
    /// the committed one (consistency layer on).
    uint64_t stale_replica_resteers = 0;
    /// Background read-repairs this client completed.
    uint64_t read_repairs = 0;
    uint64_t write_retries = 0;  // per-replica retries after a timeout/abort
    uint64_t write_giveups = 0;  // replicas abandoned after max_attempts
  };

  FleetClient(Fleet* fleet, uint32_t client_index, WorkloadOptions options);

  /// Completion of one operation: ok is false when it was abandoned
  /// (replicas or attempts exhausted).
  using DoneFn = UniqueFunction<void(bool ok)>;

  /// Issues one operation (key, read/write, and offloadability drawn
  /// from this client's deterministic RNG). `done` fires when the
  /// operation completes or is abandoned.
  void IssueOne(UniqueFunction<void()> done = {});

  /// Deterministic targeted operations for tests and benches: no RNG
  /// draws, offloadable flags. `done` reports the op's outcome; simex
  /// scenarios key per-op ground truth (which write versions were acked
  /// to the caller) on it.
  void IssueRead(uint64_t key, DoneFn done = {});
  void IssueWrite(uint64_t key, DoneFn done = {});

  const Stats& stats() const { return stats_; }
  const Histogram& latency_ns() const { return latency_; }
  const WorkloadOptions& options() const { return options_; }
  Fleet* fleet() const { return fleet_; }

 private:
  struct Op;

  se::RemoteStorageClient* ClientFor(netsub::NodeId node);
  void Issue(uint64_t key, bool is_read, uint8_t flags, DoneFn done);
  void AttemptRead(std::shared_ptr<Op> op);
  void OnReadReply(std::shared_ptr<Op> op, netsub::NodeId server,
                   Result<Buffer> data, uint64_t version);
  void CompleteRead(std::shared_ptr<Op> op, Buffer data, uint64_t version);
  bool HasUntriedReadReplica(const std::shared_ptr<Op>& op) const;
  void RepairReplica(netsub::NodeId node, uint64_t offset,
                     uint64_t version, const Buffer& data);
  void StartWrite(std::shared_ptr<Op> op);
  void AttemptWriteSub(std::shared_ptr<Op> op, size_t sub_index);
  void SettleWriteSub(std::shared_ptr<Op> op, size_t sub_index, bool acked);
  void GiveUpWriteSub(std::shared_ptr<Op> op, size_t sub_index);
  void FinishWrite(std::shared_ptr<Op> op);
  void Finish(std::shared_ptr<Op> op, bool ok);

  Fleet* fleet_;
  uint32_t client_index_;
  WorkloadOptions options_;
  /// Requests issued so far; keys each request's counter-derived RNG.
  uint64_t issue_counter_ = 0;
  ZipfGenerator zipf_;
  uint64_t stamp_seed_;
  std::map<netsub::NodeId, std::unique_ptr<se::RemoteStorageClient>>
      connections_;
  Stats stats_;
  Histogram latency_;
  /// Client-side accounting (stats_, latency_, issue_counter_) is
  /// written from every RPC continuation; all accesses are commutative
  /// — counter bumps and histogram adds — so unordered same-timestamp
  /// completions converge. The per-op protocol fields (Op::generation
  /// and friends) are NOT under this tag: their interleavings are
  /// adjudicated by the generation guard, see the allowlist.
  sim::RaceTag race_tag_;
};

/// Open-loop driver: Poisson arrivals at `rate_per_sec` spread uniformly
/// over the clients, for a fixed window. Arrival times are drawn up
/// front (deterministic in the seed); routing happens at issue time, so
/// mid-window failures re-steer the remaining arrivals.
class OpenLoopDriver {
 public:
  OpenLoopDriver(std::vector<FleetClient*> clients, double rate_per_sec,
                 uint64_t seed);

  /// Schedules all arrivals in [now, now + window).
  void Run(sim::SimTime window);

  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }

 private:
  std::vector<FleetClient*> clients_;
  double rate_;
  Pcg32 rng_;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
};

/// Closed-loop driver: each client keeps `inflight_per_client`
/// operations outstanding until `total_ops` have been issued.
class ClosedLoopDriver {
 public:
  ClosedLoopDriver(std::vector<FleetClient*> clients,
                   uint32_t inflight_per_client, uint64_t total_ops);

  void Start();

  uint64_t issued() const { return issued_; }
  uint64_t completed() const { return completed_; }

 private:
  void IssueNext(FleetClient* client);

  std::vector<FleetClient*> clients_;
  uint32_t inflight_per_client_;
  uint64_t total_ops_;
  uint64_t issued_ = 0;
  uint64_t completed_ = 0;
};

/// Merges every client's latency histogram (Histogram::Merge) and sums
/// their counters — the fleet-level view a single server cannot give.
struct FleetWorkloadSummary {
  FleetClient::Stats totals;
  Histogram latency_ns;
};
FleetWorkloadSummary Summarize(const std::vector<FleetClient*>& clients);

}  // namespace dpdpu::cluster

#endif  // DPDPU_CLUSTER_WORKLOAD_H_
