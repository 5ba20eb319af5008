// ce_offload: a stream of 64 KB records through one BlueField-2 server's
// Compute Engine with scheduled (kAuto) placement. Each record is
// ingested with fused compress -> encrypt, then scanned back with fused
// decrypt -> decompress and a regex_count over the result.

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/compute/compute_engine.h"
#include "core/runtime/metrics.h"
#include "hw/calibration.h"
#include "hw/machine.h"
#include "kern/regex.h"
#include "kern/textgen.h"
#include "host_time.h"
#include "layer_metrics.h"
#include "sim/simrace.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dpdpu;  // NOLINT: benchmark brevity

constexpr size_t kRecordBytes = 64 * 1024;
// Offered load: 1 GB/s of records (about 15.3K records/s), the byte rate
// the BlueField-2 compression ASIC is calibrated to (hw::cal, the paper's
// Figure 1). Fused chains never run on an on-DPU ASIC, so kAuto splits
// them between DPU cores and host cores, while regex_count goes to the
// RegEx ASIC. README.md records the rate sweep behind this choice.
constexpr double kRecordsPerSecond =
    hw::cal::kBf2CompressAsicBytesPerSec / double(kRecordBytes);
// Warm-up: arrivals over more than one record's latency (about 1.5 ms,
// 23 records), so the measured phase starts with every stage in flight
// and its per-target job counts at their steady level.
constexpr uint64_t kWarmRecords = 32;
constexpr uint64_t kMeasuredRecords = 192;
constexpr char kPattern[] = "tion|ing";
constexpr char kKey[] = "perfbench-record-key";
constexpr char kOpParam[] = "perfbench_op";

/// The kernels the workload invokes, each wrapped in a "kern.<name>" span
/// that also counts its input bytes. Builtin kernels ignore the extra
/// op-id parameter the traced run passes.
ce::KernelRegistry TracedRegistry() {
  ce::KernelRegistry builtin = ce::KernelRegistry::Builtin();
  ce::KernelRegistry traced;
  for (const std::string& name : builtin.List()) {
    ce::DpKernel kernel = *builtin.Find(name);
    uint32_t span_name = Tracer::Get().Intern("kern." + name);
    kernel.fn = [inner = kernel.fn, span_name](
                    ByteSpan input,
                    const ce::KernelParams& params) -> Result<Buffer> {
      auto it = params.find(kOpParam);
      uint64_t op = it == params.end()
                        ? 0
                        : std::strtoull(it->second.c_str(), nullptr, 10);
      ScopedSpan span(span_name, op);
      Tracer::Get().AddBytes(span_name, input.size());
      return inner(input, params);
    };
    Status s = traced.Register(std::move(kernel));
    DPDPU_CHECK(s.ok());
  }
  return traced;
}

uint64_t DirectRegexCount(const Buffer& record) {
  Result<kern::Regex> re = kern::Regex::Compile(kPattern);
  DPDPU_CHECK(re.ok());
  return re->CountMatches(record.view());
}

}  // namespace

Episode RunCeOffload(const EpisodeOptions& options) {
  Episode ep;
  Tracer& tracer = Tracer::Get();
  const uint32_t invoke_span = tracer.Intern("ce.invoke");
  const uint32_t run_span = tracer.Intern("sim.run");

  auto setup_start = std::chrono::steady_clock::now();
  sim::Simulator sim;
  sim::RaceChecker* race = nullptr;
  if (options.race_check) {
    sim::RaceChecker::Options race_options;
    race_options.quiet = true;
    race = &sim.EnableRaceCheck(race_options);
  }
  auto build_start = std::chrono::steady_clock::now();
  hw::Server server(&sim, hw::DefaultServerSpec("ce_server"));
  ce::ComputeEngine engine(&server, options.traced
                                        ? TracedRegistry()
                                        : ce::KernelRegistry::Builtin());
  ep.build_s = SecondsSince(build_start);

  // Inputs: records (three text records and one incompressible record
  // per group of four, in a seeded order) and their arrival times.
  Pcg32 rng(sim::SplitMix64(options.seed ^ 0x7265636f726473ull));
  const uint64_t total = kWarmRecords + kMeasuredRecords;
  std::vector<Buffer> records;
  records.reserve(total);
  uint32_t random_slot = 0;
  for (uint64_t i = 0; i < total; ++i) {
    if (i % 4 == 0) random_slot = rng.NextBounded(4);
    uint64_t content_seed = sim::SplitMix64(options.seed + i + 1);
    if (i % 4 == random_slot) {
      records.push_back(kern::GenerateRandomBytes(kRecordBytes, content_seed));
    } else {
      kern::TextGenOptions text;
      text.seed = content_seed;
      records.push_back(kern::GenerateText(kRecordBytes, text));
    }
  }
  std::vector<sim::SimTime> due =
      ArrivalTimes(kWarmRecords, kMeasuredRecords, kRecordsPerSecond, rng);
  const sim::SimTime measured_start =
      MeasuredStart(kWarmRecords, kRecordsPerSecond);
  ep.setup_s = SecondsSince(setup_start);

  struct OpState {
    uint64_t stored_bytes = 0;
    uint64_t matches = 0;
    sim::SimTime done_at = 0;
    bool done = false;
  };
  std::vector<OpState> ops(total);
  std::vector<std::string> errors;

  // Builds a step's params; the traced run tags each with the op id.
  auto params = [&options](uint64_t i, ce::KernelParams p) {
    if (options.traced) p[kOpParam] = std::to_string(i);
    return p;
  };
  auto fail = [&errors](uint64_t i, const std::string& what) {
    if (errors.size() < 8) {
      std::string error = "record ";
      error += std::to_string(i);
      error += ": ";
      error += what;
      errors.push_back(error);
    }
  };
  auto crypt = [&params](uint64_t i) {
    std::string nonce = "n";
    nonce += std::to_string(i);
    return params(i, {{"key", kKey}, {"nonce", nonce}});
  };

  // op i: ingest -> scan -> regex_count, each stage invoked from the
  // completion of the one before.
  std::function<void(uint64_t)> scan_regex = [&](uint64_t i) {
    ScopedSpan span(invoke_span, i);
    auto item = engine.Invoke(ce::kKernelRegexCount, records[i],
                              params(i, {{"pattern", kPattern}}));
    if (!item.ok()) return fail(i, item.status().ToString());
    (*item)->OnComplete([&, i](ce::WorkItem& w) {
      uint64_t count = 0;
      ByteReader reader(w.result().ok() ? w.result()->span() : ByteSpan());
      if (!w.result().ok() || !reader.ReadU64(&count)) {
        return fail(i, "regex_count failed");
      }
      ops[i].matches = count;
      ops[i].done_at = sim.now();
      ops[i].done = true;
    });
  };
  std::function<void(uint64_t)> arrive = [&](uint64_t i) {
    if (i + 1 < total) {
      sim.ScheduleAt(due[i + 1], [&arrive, i] { arrive(i + 1); });
    }
    ScopedSpan span(invoke_span, i);
    auto ingest = engine.InvokeFused(
        {{ce::kKernelCompress, params(i, {})}, {ce::kKernelEncrypt, crypt(i)}},
        records[i]);
    if (!ingest.ok()) return fail(i, ingest.status().ToString());
    (*ingest)->OnComplete([&, i](ce::WorkItem& stored) {
      if (!stored.result().ok()) return fail(i, "ingest failed");
      ops[i].stored_bytes = stored.result()->size();
      ScopedSpan scan_span(invoke_span, i);
      auto scan = engine.InvokeFused(
          {{ce::kKernelDecrypt, crypt(i)},
           {ce::kKernelDecompress, params(i, {})}},
          *stored.result());
      if (!scan.ok()) return fail(i, scan.status().ToString());
      (*scan)->OnComplete([&, i](ce::WorkItem& back) {
        if (!back.result().ok() || *back.result() != records[i]) {
          return fail(i, "round trip differs");
        }
        scan_regex(i);
      });
    });
  };
  sim.ScheduleAt(due[0], [&arrive] { arrive(0); });

  sim.RunUntil(measured_start);

  std::vector<Node> nodes = {{&server, &engine, nullptr}};
  rt::UtilizationProbe probe(&server);
  LayerCounters before = LayerCounters::Read(nodes);
  uint64_t events_before = sim.events_executed();
  probe.Start();

  tracer.set_enabled(options.traced);
  HostTime host = RunMeasured(sim, due.back(), run_span);
  ep.measure_s = host.raw_s;
  ep.measure_norm_s = host.normalised_s;
  ep.scale = host.scale;
  tracer.set_enabled(false);

  probe.Stop();
  LayerCounters after = LayerCounters::Read(nodes);

  ep.attempted = kMeasuredRecords;
  std::vector<uint64_t> latency;
  uint64_t in_bytes = 0, stored_bytes = 0;
  sim::SimTime last_done = measured_start;
  for (uint64_t i = kWarmRecords; i < total; ++i) {
    const OpState& op = ops[i];
    if (!op.done) {
      ++ep.failed;
      continue;
    }
    latency.push_back(uint64_t(op.done_at - due[i]));
    last_done = std::max(last_done, op.done_at);
    in_bytes += records[i].size();
    stored_bytes += op.stored_bytes;
    ep.check_values.push_back(op.matches);
  }
  auto& m = ep.sim;
  AddLatencyMetrics(latency, &m);
  m["sim_ops_per_s"] = double(latency.size()) /
                       (double(last_done - measured_start) / 1e9);
  m["sim_host_cores"] = probe.host_cores();
  m["compress_ratio"] = Ratio(double(in_bytes), double(stored_bytes));
  m["sim.events"] = double(sim.events_executed() - events_before);
  m["hw.host_cpu.busy_cores"] = probe.host_cores();
  m["hw.dpu_cpu.busy_cores"] = probe.dpu_cores();
  for (const char* name :
       {"netsub.fabric_bytes", "netsub.packets_delivered",
        "netsub.packets_dropped", "cluster.resteers", "cluster.write_retries",
        "cluster.read_repairs", "cluster.consistency.commits"}) {
    m[name] = 0;  // no fabric and no fleet in this workload
  }
  AddLayerMetrics(nodes, before, after, &m);

  // Output checks: every record completed, which needs its round trip to
  // match byte for byte (checked in the continuation above), and regex
  // counts match a direct kern call.
  ep.errors = errors;
  if (ep.failed > 0) {
    ep.errors.push_back(std::to_string(ep.failed) + " records incomplete");
  }
  if (options.verify_kernels) {
    for (uint64_t i = 0; i < total; ++i) {
      if (ops[i].done && ops[i].matches != DirectRegexCount(records[i])) {
        ep.errors.push_back("regex_count differs from kern::Regex on record " +
                            std::to_string(i));
        break;
      }
    }
  }
  if (race != nullptr) {
    sim.FinishRaceCheck();
    if (race->race_count() != 0) {
      ep.errors.push_back("simrace found " +
                          std::to_string(race->race_count()) + " races");
    }
  }
  return ep;
}

}  // namespace perfbench
