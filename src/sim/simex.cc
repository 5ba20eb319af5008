#include "sim/simex.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dpdpu::sim {

namespace {

/// The chooser the explorer installs: replays a plan, clamping
/// out-of-range picks to the default, and records every decision so the
/// explorer can branch from what actually happened.
class PlannedChooser : public ScheduleChooser {
 public:
  explicit PlannedChooser(const Plan& plan) : plan_(plan) {}

  uint32_t ChooseTie(SimTime time, const uint64_t* candidates,
                     uint32_t n) override {
    uint32_t pick = NextPick(n);
    Decision d;
    d.tie = true;
    d.time = time;
    d.n = n;
    d.chosen = pick;
    d.candidates.assign(candidates, candidates + n);
    decisions_.push_back(std::move(d));
    return pick;
  }

  uint32_t Choose(const char* domain, uint64_t id, uint32_t n) override {
    uint32_t pick = NextPick(n);
    Decision d;
    d.domain = domain;
    d.id = id;
    d.n = n;
    d.chosen = pick;
    decisions_.push_back(std::move(d));
    return pick;
  }

  std::vector<Decision> TakeDecisions() { return std::move(decisions_); }

 private:
  uint32_t NextPick(uint32_t n) {
    size_t i = cursor_++;
    uint32_t pick = i < plan_.size() ? plan_[i] : 0;
    return pick < n ? pick : 0;
  }

  const Plan& plan_;
  size_t cursor_ = 0;
  std::vector<Decision> decisions_;
};

Plan TrimmedPlan(const std::vector<Decision>& decisions) {
  Plan p(decisions.size());
  for (size_t i = 0; i < decisions.size(); ++i) p[i] = decisions[i].chosen;
  while (!p.empty() && p.back() == 0) p.pop_back();
  return p;
}

/// Component picks only, as a comparable signature: metric equality is
/// only meaningful between runs that injected the same faults.
std::string FaultSignature(const std::vector<Decision>& decisions) {
  std::string sig;
  for (const Decision& d : decisions) {
    if (d.tie) continue;
    sig += d.domain + "#" + std::to_string(d.id) + "=" +
           std::to_string(d.chosen) + ";";
  }
  return sig;
}

/// First line where the two metric blobs differ, for diagnosis.
std::string FirstDivergence(const std::string& a, const std::string& b) {
  size_t pa = 0, pb = 0;
  while (pa < a.size() || pb < b.size()) {
    size_t ea = a.find('\n', pa);
    size_t eb = b.find('\n', pb);
    std::string la = a.substr(pa, (ea == std::string::npos ? a.size() : ea) - pa);
    std::string lb = b.substr(pb, (eb == std::string::npos ? b.size() : eb) - pb);
    if (la != lb) {
      return "reference: " + (la.empty() ? "<missing>" : la) +
             " | explored: " + (lb.empty() ? "<missing>" : lb);
    }
    if (ea == std::string::npos || eb == std::string::npos) break;
    pa = ea + 1;
    pb = eb + 1;
  }
  return "<identical>";
}

}  // namespace

std::string PlanToToken(const Plan& plan) {
  std::string token = "simex:1";
  bool any = false;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (plan[i] == 0) continue;
    token += any ? "," : ":";
    token += std::to_string(i) + "=" + std::to_string(plan[i]);
    any = true;
  }
  return token;
}

bool TokenToPlan(const std::string& token, Plan* plan) {
  plan->clear();
  const std::string prefix = "simex:1";
  if (token.compare(0, prefix.size(), prefix) != 0) return false;
  if (token.size() == prefix.size()) return true;  // reference schedule
  if (token[prefix.size()] != ':') return false;
  size_t pos = prefix.size() + 1;
  while (pos < token.size()) {
    size_t eq = token.find('=', pos);
    if (eq == std::string::npos || eq == pos) return false;
    size_t comma = token.find(',', eq + 1);
    size_t end = comma == std::string::npos ? token.size() : comma;
    if (end == eq + 1) return false;
    uint64_t index = 0, pick = 0;
    for (size_t i = pos; i < eq; ++i) {
      if (token[i] < '0' || token[i] > '9') return false;
      index = index * 10 + uint64_t(token[i] - '0');
      if (index > (1u << 24)) return false;
    }
    for (size_t i = eq + 1; i < end; ++i) {
      if (token[i] < '0' || token[i] > '9') return false;
      pick = pick * 10 + uint64_t(token[i] - '0');
      if (pick > (1u << 24)) return false;
    }
    if (index + 1 > plan->size()) plan->resize(index + 1, 0);
    (*plan)[index] = uint32_t(pick);
    pos = end + (comma == std::string::npos ? 0 : 1);
    if (comma == std::string::npos) break;
  }
  while (!plan->empty() && plan->back() == 0) plan->pop_back();
  return true;
}

Explorer::Explorer(Scenario scenario, ExploreOptions options)
    : scenario_(std::move(scenario)), options_(options) {}

RunRecord Explorer::Run(const Plan& plan) {
  Simulator sim;
  sim.SetTieBreak(TieBreak::kFifo);  // plans are relative to fifo order
  RaceChecker* rc = nullptr;
  if (options_.race_check) {
    RaceChecker::Options ro;
    ro.fatal = false;
    ro.quiet = true;
    ro.max_reports = options_.max_race_reports;
    rc = &sim.EnableRaceCheck(ro);
  } else {
    sim.DisableRaceCheck();  // env/Debug auto-enablement would abort
  }
  PlannedChooser chooser(plan);
  sim.SetChooser(&chooser);
  RunRecord rec;
  rec.result = scenario_(sim);
  sim.SetChooser(nullptr);
  sim.FinishRaceCheck();
  rec.decisions = chooser.TakeDecisions();
  rec.effective = TrimmedPlan(rec.decisions);
  if (rc != nullptr) {
    rec.race_count = rc->race_count();
    rec.races = rc->races();
    rec.race_text.reserve(rec.races.size());
    for (const RaceReport& r : rec.races) {
      rec.race_text.push_back(rc->FormatReport(r));
    }
  }
  ++stats_.schedules_run;
  return rec;
}

bool Explorer::Classify(const RunRecord& rec, std::string* kind,
                        std::string* detail) {
  if (!rec.result.ok) {
    *kind = "invariant";
    *detail = rec.result.failure.empty() ? "scenario invariant violated"
                                         : rec.result.failure;
    return true;
  }
  if (options_.race_is_failure && rec.race_count > 0) {
    *kind = "race";
    *detail = std::to_string(rec.race_count) + " race(s); first on " +
              (rec.races.empty() ? std::string("<uncaptured>")
                                 : rec.races[0].object + " at t=" +
                                       std::to_string(rec.races[0].time) +
                                       "ns");
    return true;
  }
  if (options_.check_metrics && have_reference_ &&
      FaultSignature(rec.decisions) == reference_fault_sig_ &&
      rec.result.metrics != reference_metrics_) {
    *kind = "metric-divergence";
    *detail = FirstDivergence(reference_metrics_, rec.result.metrics);
    return true;
  }
  return false;
}

bool Explorer::Judge(const RunRecord& rec, const Plan& plan) {
  std::string kind, detail;
  if (!Classify(rec, &kind, &detail)) return false;
  // One failure per kind is enough: the explorer keeps hunting for
  // *different* bugs, not more schedules that trip the same wire.
  for (const ExploreFailure& f : failures_) {
    if (f.kind == kind) return true;
  }
  if (failures_.size() < options_.max_failures) {
    ExploreFailure f;
    f.plan = plan;
    f.token = PlanToToken(plan);
    f.kind = kind;
    f.detail = detail;
    failures_.push_back(std::move(f));
  }
  return true;
}

void Explorer::EnqueuePlan(Plan plan, bool tie_branch) {
  while (!plan.empty() && plan.back() == 0) plan.pop_back();
  if (plan.empty()) return;  // the reference; always explored first
  if (plan.size() > options_.max_branch_depth) return;
  if (!visited_.insert(plan).second) {
    ++stats_.deduped;
    return;
  }
  if (tie_branch) {
    ++stats_.tie_branches;
  } else {
    ++stats_.fault_branches;
  }
  frontier_.push_back(std::move(plan));
}

void Explorer::Branch(const RunRecord& rec) {
  // Component choice points: branch every alternative. These encode
  // injected faults — few by construction, and alternative coverage is
  // the point of exploring them.
  for (size_t i = 0; i < rec.decisions.size(); ++i) {
    const Decision& d = rec.decisions[i];
    if (d.tie) continue;
    for (uint32_t k = 0; k < d.n; ++k) {
      if (k == d.chosen) continue;
      Plan branch(rec.effective.begin(),
                  rec.effective.begin() +
                      std::min(i, rec.effective.size()));
      branch.resize(i + 1, 0);
      branch[i] = k;
      EnqueuePlan(std::move(branch), /*tie_branch=*/false);
    }
  }
  // Tie points: DPOR race reversal only. A race report says `first` ran
  // before `second` at time T under this schedule and the pair
  // conflicts; the one branch worth taking runs `second` earlier. Find
  // the decision that picked `first` while `second` was co-pending and
  // flip it. Ties that produced no race commute — reordering them
  // cannot change any outcome — so they are pruned.
  for (const RaceReport& race : rec.races) {
    uint64_t e1 = race.first.event;
    uint64_t e2 = race.second.event;
    for (size_t i = 0; i < rec.decisions.size(); ++i) {
      const Decision& d = rec.decisions[i];
      if (!d.tie || d.time != race.time) continue;
      if (d.candidates[d.chosen] != e1) continue;
      auto it = std::find(d.candidates.begin(), d.candidates.end(), e2);
      if (it == d.candidates.end()) continue;
      Plan branch(rec.effective.begin(),
                  rec.effective.begin() +
                      std::min(i, rec.effective.size()));
      branch.resize(i + 1, 0);
      branch[i] = uint32_t(it - d.candidates.begin());
      EnqueuePlan(std::move(branch), /*tie_branch=*/true);
      break;
    }
  }
}

bool Explorer::Explore() {
  frontier_.clear();
  frontier_next_ = 0;
  visited_.clear();
  failures_.clear();
  stats_ = ExploreStats{};

  // Reference run: establishes the metric baseline, the fault
  // signature, and the naive enumeration size the pruning factor is
  // measured against.
  RunRecord ref = Run(Plan{});
  have_reference_ = true;
  reference_metrics_ = ref.result.metrics;
  reference_fault_sig_ = FaultSignature(ref.decisions);
  for (const Decision& d : ref.decisions) {
    if (d.tie) {
      ++stats_.tie_points;
    } else {
      ++stats_.choice_points;
    }
    stats_.naive_log10 += std::log10(double(d.n));
  }
  Judge(ref, Plan{});
  Branch(ref);

  while (frontier_next_ < frontier_.size() &&
         stats_.schedules_run < options_.max_schedules &&
         failures_.size() < options_.max_failures) {
    Plan plan = frontier_[frontier_next_++];
    RunRecord rec = Run(plan);
    Judge(rec, rec.effective);
    Branch(rec);
  }

  double explored_log10 =
      std::log10(double(std::max<uint64_t>(1, stats_.schedules_run)));
  stats_.pruning_factor =
      std::pow(10.0, std::min(15.0, stats_.naive_log10 - explored_log10));
  return failures_.empty();
}

void Explorer::Minimize(ExploreFailure* failure) {
  Plan best = failure->plan;
  auto still_fails = [&](const Plan& candidate) {
    RunRecord rec = Run(candidate);
    std::string kind, detail;
    if (!Classify(rec, &kind, &detail)) return false;
    if (kind != failure->kind) return false;
    failure->detail = detail;
    return true;
  };
  // ddmin over the non-default picks: try zeroing each (largest index
  // first, so later decisions — usually consequences, not causes — go
  // first), then re-trim; repeat until a fixed point.
  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t i = best.size(); i-- > 0;) {
      if (best[i] == 0) continue;
      Plan candidate = best;
      candidate[i] = 0;
      while (!candidate.empty() && candidate.back() == 0) candidate.pop_back();
      if (still_fails(candidate)) {
        best = std::move(candidate);
        improved = true;
      }
    }
  }
  // When nothing could be zeroed, `detail` was never refreshed for the
  // original plan; one confirming run fixes that.
  if (best == failure->plan) still_fails(best);
  failure->plan = best;
  failure->token = PlanToToken(best);
}

std::string Explorer::FormatTrace(const ExploreFailure& failure) {
  RunRecord rec = Run(failure.plan);
  std::string out = "simex: failing schedule " + failure.token + "\n";
  out += "  kind: " + failure.kind + " — " + failure.detail + "\n";
  for (size_t i = 0; i < rec.decisions.size(); ++i) {
    const Decision& d = rec.decisions[i];
    if (d.chosen == 0) continue;
    out += "  choice #" + std::to_string(i) + ": ";
    if (d.tie) {
      out += "tie@t=" + std::to_string(d.time) + "ns ran event #" +
             std::to_string(d.candidates[d.chosen]) + " ahead of [";
      for (uint32_t k = 0; k < d.chosen; ++k) {
        if (k > 0) out += ", ";
        out += "#";
        out += std::to_string(d.candidates[k]);
      }
      out += "]";
    } else {
      out += d.domain + "#" + std::to_string(d.id) + " -> alternative " +
             std::to_string(d.chosen) + "/" + std::to_string(d.n - 1);
    }
    out += "\n";
  }
  if (!rec.result.ok) {
    out += "  invariant: " + rec.result.failure + "\n";
  }
  for (const std::string& race : rec.race_text) {
    // FormatReport is multi-line; indent every line under the trace.
    size_t pos = 0;
    while (pos < race.size()) {
      size_t end = race.find('\n', pos);
      if (end == std::string::npos) end = race.size();
      out.append("  ");
      out.append(race, pos, end - pos);
      out.push_back('\n');
      pos = end + 1;
    }
  }
  return out;
}

}  // namespace dpdpu::sim
