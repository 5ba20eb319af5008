// dds_read and kv_write (and kv_mixed, which the benchmark does not
// run): open-loop traffic against an 8-server / 32-client fleet
// (cluster::Fleet), issued through FleetClient::IssueOne at arrival
// times the benchmark draws from the seed.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/workload.h"
#include "host_time.h"
#include "layer_metrics.h"
#include "sim/simrace.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dpdpu;  // NOLINT: benchmark brevity

struct FleetShape {
  double read_fraction = 1.0;
  double offload_fraction = 1.0;
  double zipf_theta = 0.0;
  uint32_t replication = 2;
  bool consistency = false;
  double rate_per_server = 0;  // ops per simulated second
  uint64_t warm_ops = 0;
  uint64_t measured_ops = 0;
};

constexpr uint32_t kStorageServers = 8;
constexpr uint32_t kClients = 32;
constexpr uint64_t kKeyspace = 4000;  // x 8 KB = the 32 MB shard
constexpr uint64_t kDpuCacheBytes = 8ull << 20;

Episode RunFleet(const FleetShape& shape, const EpisodeOptions& options) {
  Episode ep;
  Tracer& tracer = Tracer::Get();
  const uint32_t issue_span = tracer.Intern("cluster.issue");
  const uint32_t run_span = tracer.Intern("sim.run");

  auto setup_start = std::chrono::steady_clock::now();
  sim::Simulator sim;
  sim::RaceChecker* race = nullptr;
  if (options.race_check) {
    sim::RaceChecker::Options race_options;
    race_options.quiet = true;
    race = &sim.EnableRaceCheck(race_options);
  }
  cluster::FleetSpec spec;
  spec.storage_servers = kStorageServers;
  spec.clients = kClients;
  spec.routing.replication = shape.replication;
  spec.consistency.enabled = shape.consistency;
  spec.storage_template.storage.dpu_cache_bytes = kDpuCacheBytes;
  spec.storage_template.fs_device_blocks = 16 * 1024;  // 64 MB device
  spec.storage_template.network.tcp_mode = ne::TcpMode::kDpuOffload;
  spec.client_template.fs_device_blocks = 1024;  // clients store nothing
  spec.shard_fill_seed = options.seed;
  auto build_start = std::chrono::steady_clock::now();
  cluster::Fleet fleet(&sim, spec);
  ep.build_s = SecondsSince(build_start);

  cluster::WorkloadOptions wopts;
  wopts.read_fraction = shape.read_fraction;
  wopts.offload_fraction = shape.offload_fraction;
  wopts.zipf_theta = shape.zipf_theta;
  wopts.keyspace = kKeyspace;
  wopts.seed = options.seed;
  std::vector<std::unique_ptr<cluster::FleetClient>> clients;
  std::vector<cluster::FleetClient*> client_ptrs;
  for (uint32_t i = 0; i < kClients; ++i) {
    clients.push_back(
        std::make_unique<cluster::FleetClient>(&fleet, i, wopts));
    client_ptrs.push_back(clients.back().get());
  }

  // Inputs: arrival times and the issuing client of every op.
  const double rate = shape.rate_per_server * kStorageServers;
  Pcg32 rng(sim::SplitMix64(options.seed ^ 0x6172726976616c73ull));
  std::vector<sim::SimTime> due =
      ArrivalTimes(shape.warm_ops, shape.measured_ops, rate, rng);
  std::vector<uint32_t> issuer(due.size());
  for (uint32_t& c : issuer) c = rng.NextBounded(kClients);
  const sim::SimTime measured_start = MeasuredStart(shape.warm_ops, rate);
  ep.setup_s = SecondsSince(setup_start);

  // One self-rescheduling arrival event keeps the event queue small.
  const uint64_t total_ops = due.size();
  std::vector<uint64_t> latency(shape.measured_ops, 0);
  uint64_t done_ops = 0;
  sim::SimTime last_measured_done = measured_start;
  std::function<void(uint64_t)> arrive = [&](uint64_t i) {
    if (i + 1 < total_ops) {
      sim.ScheduleAt(due[i + 1], [&arrive, i] { arrive(i + 1); });
    }
    auto done = [&, i] {
      ++done_ops;
      if (i >= shape.warm_ops) {
        latency[i - shape.warm_ops] = uint64_t(sim.now() - due[i]);
        last_measured_done = std::max(last_measured_done, sim.now());
      }
    };
    ScopedSpan span(issue_span, i);
    client_ptrs[issuer[i]]->IssueOne(done);
  };
  sim.ScheduleAt(due[0], [&arrive] { arrive(0); });

  // Warm-up: fills the DPU caches (and opens every connection).
  sim.RunUntil(measured_start);

  std::vector<Node> nodes;
  for (uint32_t i = 0; i < kStorageServers; ++i) {
    rt::Platform& p = fleet.storage(i);
    nodes.push_back({&p.server(), &p.compute(), &p.storage()});
  }
  cluster::FleetWorkloadSummary warm = cluster::Summarize(client_ptrs);
  uint64_t commits_before = fleet.consistency().stats().commits;
  uint64_t delivered_before = fleet.fabric().packets_delivered();
  uint64_t dropped_before = fleet.fabric().packets_dropped();
  uint64_t events_before = sim.events_executed();
  LayerCounters before = LayerCounters::Read(nodes);
  fleet.StartProbes();

  tracer.set_enabled(options.traced);
  HostTime host = RunMeasured(sim, due.back(), run_span);
  ep.measure_s = host.raw_s;
  ep.measure_norm_s = host.normalised_s;
  ep.scale = host.scale;
  tracer.set_enabled(false);

  fleet.StopProbes();
  LayerCounters after = LayerCounters::Read(nodes);
  cluster::FleetWorkloadSummary summary = cluster::Summarize(client_ptrs);
  cluster::FleetUsage usage = fleet.Usage();
  const cluster::ConsistencyManager::Stats& cstats =
      fleet.consistency().stats();

  ep.attempted = shape.measured_ops;
  ep.failed = summary.totals.failed - warm.totals.failed;
  auto& m = ep.sim;
  AddLatencyMetrics(latency, &m);
  m["sim_ops_per_s"] =
      double(shape.measured_ops) /
      (double(last_measured_done - measured_start) / 1e9);
  // Fleet-wide: with full offload the storage hosts use no cores at
  // all, so the storage-server figure alone (hw.host_cpu.busy_cores)
  // can be exactly 0.
  m["sim_host_cores"] = usage.host_cores;
  m["compress_ratio"] = 1.0;  // payloads are stored as written
  m["sim.events"] = double(sim.events_executed() - events_before);
  m["hw.host_cpu.busy_cores"] = usage.storage_host_cores;
  m["hw.dpu_cpu.busy_cores"] = usage.storage_dpu_cores;
  m["netsub.fabric_bytes"] = double(usage.fabric_bytes);
  m["netsub.packets_delivered"] =
      double(fleet.fabric().packets_delivered() - delivered_before);
  m["netsub.packets_dropped"] =
      double(fleet.fabric().packets_dropped() - dropped_before);
  m["cluster.resteers"] =
      double(summary.totals.resteered - warm.totals.resteered);
  m["cluster.write_retries"] =
      double(summary.totals.write_retries - warm.totals.write_retries);
  m["cluster.read_repairs"] =
      double(summary.totals.read_repairs - warm.totals.read_repairs);
  m["cluster.consistency.commits"] = double(cstats.commits - commits_before);
  AddLayerMetrics(nodes, before, after, &m);

  // Output checks.
  auto check = [&ep](bool ok, const std::string& what) {
    if (!ok) ep.errors.push_back(what);
  };
  const cluster::FleetClient::Stats& t = summary.totals;
  check(done_ops == total_ops, "not every op reported completion");
  check(t.issued == total_ops, "issued != ops due");
  check(t.issued == t.completed + t.failed, "issued != completed + failed");
  check(t.stale_reads == 0, "stale reads");
  check(cstats.phantom_commits == 0, "phantom commits");
  for (uint32_t i = 0; i < kStorageServers; ++i) {
    check(fleet.inflight_rpcs(i) == 0, "RPCs still in flight after drain");
  }
  if (race != nullptr) {
    sim.FinishRaceCheck();
    check(race->race_count() == 0,
          "simrace found " + std::to_string(race->race_count()) + " races");
  }
  return ep;
}

}  // namespace

Episode RunDdsRead(const EpisodeOptions& options) {
  FleetShape shape;
  shape.read_fraction = 1.0;
  shape.offload_fraction = 1.0;
  shape.zipf_theta = 0.99;
  shape.replication = 2;
  shape.rate_per_server = 200e3;
  shape.warm_ops = 16'000;
  shape.measured_ops = 24'000;
  return RunFleet(shape, options);
}

// Replication 3 with the consistency layer on; half the requests carry
// the requires-host flag.
static FleetShape KvShape(double read_fraction) {
  FleetShape shape;
  shape.read_fraction = read_fraction;
  shape.offload_fraction = 0.5;
  shape.zipf_theta = 0.0;
  shape.replication = 3;
  shape.consistency = true;
  shape.rate_per_server = 100e3;
  shape.warm_ops = 2'000;
  shape.measured_ops = 10'000;
  return shape;
}

// Writes only: a read that overlaps a write to its block can be served
// the old data stamped with the new version (README.md, "Known
// failure"), so the benchmark workload issues no reads.
Episode RunKvWrite(const EpisodeOptions& options) {
  return RunFleet(KvShape(0.0), options);
}

// kv_write with 30% reads: a reproducer of that defect for the tests,
// not a benchmark workload; about one seed in three fails its
// stale_reads check.
Episode RunKvMixed(const EpisodeOptions& options) {
  return RunFleet(KvShape(0.3), options);
}

}  // namespace perfbench
