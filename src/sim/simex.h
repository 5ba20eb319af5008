// simex: bounded stateless model checking for the simulator.
//
// The perturbation oracle (scripts/check_bench.py --perturb) samples
// exactly three tie-break schedules; simex explores the space
// systematically. A scenario is a function that builds a world inside a
// fresh Simulator, runs it, and returns its invariant verdict plus the
// deterministic metric lines it produced. The explorer drives that
// scenario through alternative schedules by installing a ScheduleChooser
// that replays a *plan* — a sequence of choice indices, one per decision
// point — where index 0 always means "the default pick", so the empty
// plan reproduces the unexplored reference schedule exactly.
//
// Two kinds of decision points exist:
//  * tie points — several events share the minimum timestamp and the
//    chooser picks which runs first (generalizing TieBreak);
//  * component choice points — a component exposes its own
//    nondeterminism (node fail/recover timing, frame-drop placement)
//    through Simulator::Choose("domain", id, n), with alternative 0 the
//    no-fault branch.
//
// Exploration is DPOR-guided rather than exhaustive: tie points are
// only branched when simrace observed a *race* between two of the tied
// events — causally-unordered conflicting accesses to the same state.
// Commuting ties (the overwhelming majority) are provably
// order-insensitive and explored once; each race report (first ran
// before second under this schedule) spawns exactly one branch that
// reverses the pair at the decision where `first` was picked with
// `second` co-pending. Component choice points are branched
// exhaustively (they are few and bounded by construction). A visited
// set over plans deduplicates; depth and schedule budgets bound the
// walk.
//
// A failing schedule is shrunk by delta debugging — repeatedly zeroing
// non-default picks and truncating the plan while the failure
// reproduces — and printed as a replay token (`simex:1:<pos>=<pick>,…`)
// plus a human-readable trace with simrace provenance for each race.

#ifndef DPDPU_SIM_SIMEX_H_
#define DPDPU_SIM_SIMEX_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/function.h"
#include "sim/simulator.h"

namespace dpdpu::sim {

/// A schedule plan: decision index -> choice picked. Decisions beyond
/// the plan's end (and picks out of range for their decision) take the
/// default (0). The empty plan is the reference schedule.
using Plan = std::vector<uint32_t>;

/// One recorded decision point, in execution order.
struct Decision {
  bool tie = false;          // tie point vs component choice point
  SimTime time = 0;          // tie: the shared timestamp
  std::string domain;        // component: choice family
  uint64_t id = 0;           // component: instance within the family
  uint32_t n = 0;            // alternatives offered
  uint32_t chosen = 0;       // effective pick (after clamping)
  std::vector<uint64_t> candidates;  // tie: event seqs in default order
};

/// What one scenario run reports back to the explorer.
struct ScenarioResult {
  /// Scenario-level invariants (no stale reads, no lost acks, ...).
  bool ok = true;
  /// Why not ok (one line).
  std::string failure;
  /// Deterministic metric lines (newline-joined); compared bit-exactly
  /// against the reference schedule for runs with the same fault picks.
  std::string metrics;
};

/// A scenario builds a world inside the given fresh Simulator, runs it
/// (sim.Run() / RunFor), and reports. It must be a pure function of the
/// simulator's schedule: same choices in, same result out.
using Scenario = UniqueFunction<ScenarioResult(Simulator&)>;

/// Everything observed during one schedule.
struct RunRecord {
  ScenarioResult result;
  std::vector<Decision> decisions;
  Plan effective;           // decisions[i].chosen, trailing zeros trimmed
  uint64_t race_count = 0;
  std::vector<RaceReport> races;       // structured, for DPOR branching
  std::vector<std::string> race_text;  // formatted, for trace printing
};

/// A schedule that violated an invariant.
struct ExploreFailure {
  Plan plan;           // effective plan (minimal after Minimize())
  std::string token;   // replay token for `plan`
  std::string kind;    // "invariant" | "race" | "metric-divergence"
  std::string detail;  // one-line diagnosis
};

struct ExploreOptions {
  /// Stop after this many schedules (including the reference and any
  /// minimization re-runs).
  uint64_t max_schedules = 256;
  /// Never branch at decision indices beyond this depth.
  uint32_t max_branch_depth = 4096;
  /// Stop collecting after this many distinct failures.
  uint32_t max_failures = 4;
  /// Attach a (quiet, non-fatal) race checker to every run; a observed
  /// race is both a DPOR branch source and — when `race_is_failure` —
  /// an invariant violation in its own right.
  bool race_check = true;
  bool race_is_failure = true;
  uint32_t max_race_reports = 64;
  /// Compare metric lines against the reference schedule (only for runs
  /// whose component picks match the reference's, since different fault
  /// injections legitimately change metrics).
  bool check_metrics = true;
};

struct ExploreStats {
  uint64_t schedules_run = 0;
  uint64_t tie_points = 0;       // tie decisions in the reference run
  uint64_t choice_points = 0;    // component decisions in the reference
  uint64_t tie_branches = 0;     // DPOR race reversals enqueued
  uint64_t fault_branches = 0;   // component alternatives enqueued
  uint64_t deduped = 0;          // branches already visited
  /// log10 of the naive schedule count: the product of every tie
  /// point's fan-out over the reference run times every component
  /// point's fan-out (what exhaustive enumeration would cost).
  double naive_log10 = 0.0;
  /// naive / schedules_run, capped at 1e15 to stay printable.
  double pruning_factor = 0.0;
};

/// Serializes a plan as `simex:1` (reference) or `simex:1:pos=pick,...`
/// listing only non-default picks.
std::string PlanToToken(const Plan& plan);
/// Parses a token; returns false (leaving `plan` empty) on malformed
/// input or an unsupported version.
bool TokenToPlan(const std::string& token, Plan* plan);

/// Bounded stateless model checker. Construct with a scenario, call
/// Explore(), inspect failures()/stats(). Deterministic end to end: the
/// same scenario and options always explore the same schedules in the
/// same order.
class Explorer {
 public:
  explicit Explorer(Scenario scenario, ExploreOptions options = {});

  /// Runs exactly one schedule under `plan`. Public for replay and
  /// tests; does not touch the exploration frontier but counts against
  /// the schedule budget.
  RunRecord Run(const Plan& plan);

  /// Explores from the reference schedule until the budget is exhausted
  /// or the frontier empties. Returns true when no failure was found.
  bool Explore();

  /// Shrinks `failure.plan` by delta debugging: zero non-default picks
  /// and truncate while the same failure kind reproduces. Updates plan,
  /// token, and detail in place.
  void Minimize(ExploreFailure* failure);

  /// Re-runs `failure.plan` and renders a replayable trace: the token,
  /// every non-default decision, the invariant verdict, and full
  /// simrace provenance for each race.
  std::string FormatTrace(const ExploreFailure& failure);

  const std::vector<ExploreFailure>& failures() const { return failures_; }
  const ExploreStats& stats() const { return stats_; }
  const ExploreOptions& options() const { return options_; }

 private:
  /// Evaluates invariants for a finished run; appends to failures_ and
  /// returns true when the run failed.
  bool Judge(const RunRecord& rec, const Plan& plan);
  /// Enqueues the DPOR race reversals and component-choice branches
  /// reachable from `rec`.
  void Branch(const RunRecord& rec);
  void EnqueuePlan(Plan plan, bool tie_branch);
  /// Classifies a run against the reference; empty string = no failure.
  /// (kind, detail) out-params.
  bool Classify(const RunRecord& rec, std::string* kind, std::string* detail);

  Scenario scenario_;
  ExploreOptions options_;
  ExploreStats stats_;
  std::vector<Plan> frontier_;  // FIFO; index frontier_next_ is the head
  size_t frontier_next_ = 0;
  std::set<Plan> visited_;
  std::vector<ExploreFailure> failures_;
  bool have_reference_ = false;
  std::string reference_metrics_;
  std::string reference_fault_sig_;  // component picks of the reference
};

}  // namespace dpdpu::sim

#endif  // DPDPU_SIM_SIMEX_H_
