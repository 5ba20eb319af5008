// simrace: a causality-aware race detector for simulated time.
//
// The simulator's determinism contract orders events by (time, tie,
// sequence). Two causally-unordered events that share a timestamp and
// touch the same state are a latent race: the outcome is decided by an
// accident of tie-break order, exactly the bug class behind the
// page-cache coherence and commit-before-durable fixes. simrace finds
// those races while the schedule that hides them is still winning:
//
//  * Causal DAG — the Simulator records each event's provenance (the
//    event executing when it was scheduled). Components contribute the
//    happens-before edges the scheduler cannot see: Resource FIFO grant
//    order, MiniTCP buffered-segment delivery, per-link in-order frame
//    delivery, ring publish-before-consume (HbToken / HbChain below).
//  * Shadow-state access tracking — shared hot structures carry a
//    RaceTag and annotate reads/writes with DPDPU_SIM_ACCESS; the
//    checker groups accesses per (object, key) within each timestamp
//    bucket and flags conflicting accesses from causally-unordered
//    events, with a full provenance chain for each side. Every racing
//    *event pair* is reported, deduplicated per run on
//    (object, event-pair) — so hot objects with several aliasing racing
//    pairs hand simex its full persistent set in one run instead of one
//    reversal per run.
//
// The checker only observes — it never schedules, reads time, or draws
// randomness — so enabling it cannot change any simulated metric.
// Enabled by default in Debug builds, via DPDPU_SIM_RACECHECK=1, or
// explicitly through Simulator::EnableRaceCheck().

#ifndef DPDPU_SIM_SIMRACE_H_
#define DPDPU_SIM_SIMRACE_H_

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace dpdpu::sim {

/// Sentinel: "no event" (accesses outside any event are not tracked).
inline constexpr uint64_t kNoEvent = ~0ull;

/// How an annotated access touches the object.
///  kRead             observes state.
///  kWrite            mutates state; outcome may depend on access order.
///  kCommutativeWrite mutates state whose final value is independent of
///                    the order of other commutative writes (counters,
///                    monotone maxima, version-guarded last-writer-wins).
///                    Conflicts with reads and plain writes, not with
///                    other commutative writes.
enum class AccessKind : uint8_t { kRead = 0, kWrite = 1, kCommutativeWrite = 2 };

/// Identity stub embedded in an annotated structure. Lazily registered
/// with the active checker on first access; ids are assigned in access
/// order, which is deterministic under a fixed schedule. Never keyed on
/// the object's address (pointer order is not reproducible).
struct RaceTag {
  mutable uint32_t id = 0;  // 0 = unregistered
};

/// A happens-before token: names the event that published it. Components
/// stash one next to handed-off state (a queued job, a buffered segment,
/// a ring slot) and consume it from the event that picks the state up,
/// contributing the edge publisher -> consumer to the causal DAG.
struct HbToken {
  uint64_t event = kNoEvent;
};

/// One side of a reported race.
struct RaceAccess {
  uint64_t event = kNoEvent;
  AccessKind kind = AccessKind::kRead;
  /// Scheduling-provenance chain, self first: (event id, virtual time)
  /// for the event and its scheduling ancestors (truncated at the
  /// provenance window or the configured depth).
  std::vector<std::pair<uint64_t, uint64_t>> provenance;
};

struct RaceReport {
  std::string object;   // registered name
  uint32_t object_id = 0;
  uint64_t key = 0;
  uint64_t time = 0;    // the shared timestamp
  RaceAccess first;     // executed earlier under the current tie-break
  RaceAccess second;
};

/// Happens-before race checker. Owned by a Simulator; at most one is
/// active at a time (the simulator is single-threaded by design), so
/// instrumentation reaches it through Current() with zero coupling.
class RaceChecker {
 public:
  struct Options {
    /// Abort (after printing every report) when Finalize() finds races.
    /// Set for env/Debug auto-enablement so racy tests fail loudly;
    /// callers that inspect races() themselves leave it false.
    bool fatal = false;
    /// Keep at most this many full reports; further races only count.
    uint32_t max_reports = 16;
    /// Suppress the stderr report dump in Finalize(). Set by callers
    /// that consume races() programmatically — simex runs hundreds of
    /// deliberately-racy schedules per exploration.
    bool quiet = false;
    /// Provenance chain depth per side.
    uint32_t max_provenance_depth = 12;
  };

  RaceChecker();  // default Options (GCC rejects `= Options()` here)
  explicit RaceChecker(Options options);
  RaceChecker(const RaceChecker&) = delete;
  RaceChecker& operator=(const RaceChecker&) = delete;
  ~RaceChecker();

  /// The checker attached to the currently executing event, or nullptr.
  /// Atomic so real-thread ring tests may probe it concurrently (they
  /// always observe nullptr: no simulator event is executing there).
  static RaceChecker* Current();

  // --- Simulator integration ----------------------------------------------

  /// Records provenance for a newly scheduled event.
  void OnSchedule(uint64_t event, uint64_t time, uint64_t parent);
  /// Enters an event: flushes the previous timestamp bucket when `time`
  /// advanced, then makes this checker Current().
  void BeginEvent(uint64_t event, uint64_t time, uint64_t parent);
  void EndEvent();
  /// Flushes the final bucket, prints any unprinted reports to stderr,
  /// and aborts if Options::fatal and races were found. Idempotent;
  /// called from ~Simulator().
  void Finalize();

  // --- instrumentation ------------------------------------------------------

  /// Logs an access by the currently executing event. `object` names the
  /// structure (stored on first registration of `tag`); `key` sub-divides
  /// it (block id, page id, ...) so independent entries never conflict.
  void RecordAccess(const RaceTag& tag, const char* object, uint64_t key,
                    AccessKind kind);

  /// Token naming the currently executing event (empty outside events).
  HbToken Publish() const { return HbToken{current_event_}; }
  /// Adds the edge token.event -> current event to the causal DAG.
  void Consume(const HbToken& token);

  // --- results --------------------------------------------------------------

  /// Total races found (reports beyond max_reports are counted only).
  uint64_t race_count() const { return race_count_; }
  const std::vector<RaceReport>& races() const { return races_; }
  uint64_t accesses_recorded() const { return accesses_recorded_; }
  /// Distinct object names that recorded at least one access, sorted.
  /// simscope --xcheck diffs these against statically reachable
  /// annotations; Finalize() appends them to the file named by
  /// DPDPU_SIM_RACE_COVERAGE when that variable is set.
  std::vector<std::string> observed_objects() const;
  std::string FormatReport(const RaceReport& report) const;

 private:
  struct Access {
    uint32_t object = 0;
    AccessKind kind = AccessKind::kRead;
    uint64_t key = 0;
    uint64_t event = kNoEvent;
  };
  struct Provenance {
    uint64_t event = kNoEvent;
    uint64_t parent = kNoEvent;
    uint64_t time = 0;
  };

  void FlushBucket();
  bool HappensBefore(uint64_t a, uint64_t b);
  /// Bucket index of `event`, or kNotInBucket.
  uint32_t BucketIndex(uint64_t event);
  std::vector<std::pair<uint64_t, uint64_t>> Chain(uint64_t event) const;
  void ReportRace(const Access& a, const Access& b);
  void PrintNewReports();

  Options options_;
  uint64_t current_event_ = kNoEvent;
  uint64_t bucket_time_ = 0;
  /// The current timestamp bucket as flat arrays, reused across buckets:
  /// its events in execution order, each event's first index into
  /// preds_, and every event's happens-before predecessors. Edges only
  /// ever target the executing event — the newest in the bucket — so an
  /// event's predecessors are contiguous. Empty between buckets.
  std::vector<uint64_t> events_;
  std::vector<uint32_t> pred_begin_;
  std::vector<uint64_t> preds_;
  /// HappensBefore scratch: (event id, bucket index) sorted by id, built
  /// on a flush's first query; the DFS stack; per-index visit stamps.
  std::vector<std::pair<uint64_t, uint32_t>> index_;
  std::vector<uint32_t> dfs_stack_;
  std::vector<uint64_t> visited_;
  uint64_t visit_stamp_ = 0;
  std::vector<Access> accesses_;  // current bucket, execution order
  /// Scheduling provenance, ring-buffered by event id (chains through
  /// ancestors older than the window are truncated when printed).
  std::vector<Provenance> provenance_;
  std::vector<std::string> object_names_;  // by id - 1
  /// Multi-report dedup: one report per (object, first event, second
  /// event) per run. Event ids are run-unique, so a pair racing on
  /// several keys of one object still reports once.
  std::set<std::tuple<uint32_t, uint64_t, uint64_t>> reported_pairs_;
  std::vector<RaceReport> races_;
  uint64_t race_count_ = 0;
  uint64_t accesses_recorded_ = 0;
  size_t printed_ = 0;
  bool finalized_ = false;
};

/// Serialization-order helper: call Step() from each event that handles
/// the next item of a FIFO-ordered stream (per-link frame delivery,
/// per-connection segment processing, resource grants). Contributes the
/// edge "previous handler -> this handler", encoding the component's
/// in-order guarantee so same-timestamp handlers are not misreported as
/// racing.
class HbChain {
 public:
  void Step() {
    if (RaceChecker* rc = RaceChecker::Current()) {
      rc->Consume(prev_);
      prev_ = rc->Publish();
    }
  }

 private:
  HbToken prev_;
};

/// Annotated shared value for simple cases: reads and writes are logged
/// against the active checker; the value itself is untouched.
template <typename T>
class Racy {
 public:
  explicit Racy(const char* name, T value = T{})
      : name_(name), value_(std::move(value)) {}

  const T& read() const {
    Record(AccessKind::kRead);
    return value_;
  }
  T& write() {
    Record(AccessKind::kWrite);
    return value_;
  }
  /// Order-insensitive mutation (counter bumps, monotone maxima).
  T& commute() {
    Record(AccessKind::kCommutativeWrite);
    return value_;
  }

 private:
  void Record(AccessKind kind) const {
    if (RaceChecker* rc = RaceChecker::Current()) {
      rc->RecordAccess(tag_, name_, 0, kind);
    }
  }

  const char* name_;
  T value_;
  RaceTag tag_;
};

/// Mixes two ids into one access key (block = (file, offset), repair =
/// (node, offset), ...). Not a cryptographic hash — just enough spread
/// that distinct pairs don't collide into false conflicts.
constexpr uint64_t RaceKey(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull + b;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 27);
}

/// Process-wide defaults read from the environment once (parsing lives
/// in simrace.cc so the NDEBUG default is decided in exactly one TU).
///   DPDPU_SIM_RACECHECK=0|1     force race checking off/on
///   DPDPU_SIM_TIEBREAK=fifo|lifo|shuffle[:seed]
struct EnvConfig {
  bool race_check = false;
  RaceChecker::Options race_options;
  uint8_t tie_policy = 0;  // TieBreak enum value (kept raw: no cycle)
  uint64_t shuffle_seed = 1;

  static const EnvConfig& Get();
};

}  // namespace dpdpu::sim

/// Annotates an access to a RaceTag-carrying structure. Compiles to one
/// predictable branch on an atomic load when race checking is off.
#define DPDPU_SIM_ACCESS(tag, object, key, kind)                          \
  do {                                                                    \
    if (::dpdpu::sim::RaceChecker* dpdpu_rc_ =                            \
            ::dpdpu::sim::RaceChecker::Current()) {                       \
      dpdpu_rc_->RecordAccess((tag), (object), (key), (kind));            \
    }                                                                     \
  } while (false)

#endif  // DPDPU_SIM_SIMRACE_H_
