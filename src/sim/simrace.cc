#include "sim/simrace.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"

namespace dpdpu::sim {
namespace {

// Active checker. Written only from simulator event boundaries (the sim
// is single-threaded); atomic + relaxed so real-thread ring tests can
// probe it without a TSan report — they always read nullptr.
std::atomic<RaceChecker*> g_current{nullptr};

// Provenance ring size (power of two). Bounds checker memory at ~6 MB
// per enabled simulator; an ancestor is only lost if more than this many
// events were scheduled while its descendant was still pending, in which
// case the printed chain is truncated (pred edges inside a timestamp
// bucket are exact regardless: the parent id travels with the event).
constexpr size_t kProvenanceWindow = size_t{1} << 18;

constexpr uint32_t kNotInBucket = ~0u;

const char* KindName(AccessKind kind) {
  switch (kind) {
    case AccessKind::kRead:
      return "read";
    case AccessKind::kWrite:
      return "write";
    case AccessKind::kCommutativeWrite:
      return "commutative-write";
  }
  return "?";
}

// Commutative writes commute with each other but not with observation or
// plain mutation; reads never conflict with reads.
bool Conflicts(AccessKind a, AccessKind b) {
  if (a == AccessKind::kRead && b == AccessKind::kRead) return false;
  if (a == AccessKind::kCommutativeWrite && b == AccessKind::kCommutativeWrite)
    return false;
  return true;
}

}  // namespace

RaceChecker::RaceChecker() : RaceChecker(Options()) {}

RaceChecker::RaceChecker(Options options) : options_(options) {
  provenance_.resize(kProvenanceWindow);
  accesses_.reserve(256);
}

RaceChecker::~RaceChecker() {
  // The owning Simulator finalizes in its destructor; guard against a
  // checker destroyed mid-event anyway.
  RaceChecker* self = this;
  g_current.compare_exchange_strong(self, nullptr, std::memory_order_relaxed);
}

RaceChecker* RaceChecker::Current() {
  return g_current.load(std::memory_order_relaxed);
}

void RaceChecker::OnSchedule(uint64_t event, uint64_t time, uint64_t parent) {
  provenance_[event & (kProvenanceWindow - 1)] = Provenance{event, parent, time};
}

void RaceChecker::BeginEvent(uint64_t event, uint64_t time, uint64_t parent) {
  if (!events_.empty() && time != bucket_time_) FlushBucket();
  bucket_time_ = time;
  current_event_ = event;
  events_.push_back(event);
  pred_begin_.push_back(static_cast<uint32_t>(preds_.size()));
  if (parent != kNoEvent) preds_.push_back(parent);
  g_current.store(this, std::memory_order_relaxed);
}

void RaceChecker::EndEvent() {
  current_event_ = kNoEvent;
  g_current.store(nullptr, std::memory_order_relaxed);
}

void RaceChecker::RecordAccess(const RaceTag& tag, const char* object,
                               uint64_t key, AccessKind kind) {
  if (current_event_ == kNoEvent) return;  // setup code outside events
  if (tag.id == 0) {
    object_names_.emplace_back(object);
    tag.id = static_cast<uint32_t>(object_names_.size());
  }
  accesses_.push_back(Access{tag.id, kind, key, current_event_});
  ++accesses_recorded_;
}

void RaceChecker::Consume(const HbToken& token) {
  // The target is the executing event, the newest in the bucket, so its
  // predecessors are the tail of preds_. Outside an event, or after a
  // mid-event Finalize flushed the bucket, the edge is dropped.
  if (token.event == kNoEvent || token.event == current_event_) return;
  if (events_.empty() || events_.back() != current_event_) return;
  preds_.push_back(token.event);
}

uint32_t RaceChecker::BucketIndex(uint64_t event) {
  if (index_.empty()) {
    index_.reserve(events_.size());
    for (size_t i = 0; i < events_.size(); ++i) {
      index_.emplace_back(events_[i], static_cast<uint32_t>(i));
    }
    std::sort(index_.begin(), index_.end());
  }
  auto it = std::lower_bound(
      index_.begin(), index_.end(), event,
      [](const std::pair<uint64_t, uint32_t>& entry, uint64_t id) {
        return entry.first < id;
      });
  if (it == index_.end() || it->first != event) return kNotInBucket;
  return it->second;
}

bool RaceChecker::HappensBefore(uint64_t a, uint64_t b) {
  // Backward DFS from b over predecessor edges, pruned to events in the
  // current bucket: an ancestor at an earlier timestamp can never lead
  // back to a same-timestamp event (ScheduleAt forbids scheduling into
  // the past), so leaving the bucket ends the search branch.
  uint32_t start = BucketIndex(b);
  if (start == kNotInBucket) return false;
  ++visit_stamp_;  // 64-bit: never wraps, so old marks never match
  visited_[start] = visit_stamp_;
  dfs_stack_.assign(1, start);
  while (!dfs_stack_.empty()) {
    uint32_t e = dfs_stack_.back();
    dfs_stack_.pop_back();
    for (uint32_t p = pred_begin_[e]; p < pred_begin_[e + 1]; ++p) {
      uint64_t pred = preds_[p];
      if (pred == a) return true;
      uint32_t i = BucketIndex(pred);
      if (i == kNotInBucket || visited_[i] == visit_stamp_) continue;
      visited_[i] = visit_stamp_;
      dfs_stack_.push_back(i);
    }
  }
  return false;
}

std::vector<std::pair<uint64_t, uint64_t>> RaceChecker::Chain(
    uint64_t event) const {
  std::vector<std::pair<uint64_t, uint64_t>> chain;
  uint64_t e = event;
  for (uint32_t depth = 0; depth < options_.max_provenance_depth; ++depth) {
    const Provenance& p = provenance_[e & (kProvenanceWindow - 1)];
    if (p.event != e) break;  // evicted from the window: truncate
    chain.emplace_back(e, p.time);
    if (p.parent == kNoEvent) break;
    e = p.parent;
  }
  return chain;
}

void RaceChecker::ReportRace(const Access& a, const Access& b) {
  ++race_count_;
  if (races_.size() >= options_.max_reports) return;
  RaceReport report;
  report.object = object_names_[a.object - 1];
  report.object_id = a.object;
  report.key = a.key;
  report.time = bucket_time_;
  report.first = RaceAccess{a.event, a.kind, Chain(a.event)};
  report.second = RaceAccess{b.event, b.kind, Chain(b.event)};
  races_.push_back(std::move(report));
}

void RaceChecker::FlushBucket() {
  if (!accesses_.empty()) {
    // Close the newest event's predecessor range and size the visit
    // stamps for HappensBefore.
    pred_begin_.push_back(static_cast<uint32_t>(preds_.size()));
    if (visited_.size() < events_.size()) visited_.resize(events_.size(), 0);
    // Group by (object, key); stable sort keeps execution order inside
    // each group so "first" in a report is the access that actually ran
    // first under the current tie-break.
    std::stable_sort(accesses_.begin(), accesses_.end(),
                     [](const Access& a, const Access& b) {
                       if (a.object != b.object) return a.object < b.object;
                       return a.key < b.key;
                     });
    size_t lo = 0;
    while (lo < accesses_.size()) {
      size_t hi = lo + 1;
      while (hi < accesses_.size() &&
             accesses_[hi].object == accesses_[lo].object &&
             accesses_[hi].key == accesses_[lo].key) {
        ++hi;
      }
      // Every racing event pair, deduped per run on (object,
      // event-pair). An exploration branch exists per pair, so aliasing
      // pairs on one hot object (VersionMap, the consistency authority)
      // are all reversible from a single run.
      for (size_t j = lo; j + 1 < hi; ++j) {
        for (size_t k = j + 1; k < hi; ++k) {
          const Access& a = accesses_[j];
          const Access& b = accesses_[k];
          if (a.event == b.event) continue;
          if (!Conflicts(a.kind, b.kind)) continue;
          if (HappensBefore(a.event, b.event)) continue;
          if (!reported_pairs_
                   .insert(std::make_tuple(a.object, a.event, b.event))
                   .second) {
            continue;
          }
          ReportRace(a, b);
        }
      }
      lo = hi;
    }
    accesses_.clear();
  }
  events_.clear();
  pred_begin_.clear();
  preds_.clear();
  index_.clear();
}

std::string RaceChecker::FormatReport(const RaceReport& report) const {
  auto side = [&](const char* label, const RaceAccess& acc) {
    std::string out = "  ";
    out += label;
    out += ": event #" + std::to_string(acc.event) + " (" +
           KindName(acc.kind) + ") provenance:";
    if (acc.provenance.empty()) out += " <outside window>";
    for (size_t i = 0; i < acc.provenance.size(); ++i) {
      if (i > 0) out += " <-";
      out += " #" + std::to_string(acc.provenance[i].first) + "@" +
             std::to_string(acc.provenance[i].second) + "ns";
    }
    if (!acc.provenance.empty() &&
        acc.provenance.size() >= options_.max_provenance_depth) {
      out += " <- ...";
    }
    out += "\n";
    return out;
  };
  std::string out = "simrace: RACE on " + report.object + "#" +
                    std::to_string(report.object_id) + " key 0x";
  char hex[32];
  std::snprintf(hex, sizeof hex, "%" PRIx64, report.key);
  out += hex;
  out += " at t=" + std::to_string(report.time) + "ns\n";
  out += side("first ", report.first);
  out += side("second", report.second);
  return out;
}

void RaceChecker::PrintNewReports() {
  for (; printed_ < races_.size(); ++printed_) {
    std::string text = FormatReport(races_[printed_]);
    std::fputs(text.c_str(), stderr);
  }
}

std::vector<std::string> RaceChecker::observed_objects() const {
  std::vector<std::string> names = object_names_;  // one entry per tag
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void RaceChecker::Finalize() {
  if (!events_.empty()) FlushBucket();
  if (!finalized_) {
    // Append so one xcheck run can accumulate coverage across every
    // simulator (and every process) a test binary creates.
    const char* cov = std::getenv("DPDPU_SIM_RACE_COVERAGE");  // NOLINT(concurrency-mt-unsafe)
    if (cov != nullptr && cov[0] != '\0') {
      if (std::FILE* f = std::fopen(cov, "ae")) {
        for (const std::string& name : observed_objects()) {
          std::fprintf(f, "%s\n", name.c_str());
        }
        std::fclose(f);
      }
    }
  }
  if (!options_.quiet) {
    PrintNewReports();
    if (race_count_ > races_.size()) {
      std::fprintf(
          stderr, "simrace: %" PRIu64 " further race(s) beyond the first %zu\n",
          race_count_ - races_.size(), races_.size());
    }
  }
  if (!finalized_) {
    finalized_ = true;
    if (options_.fatal && race_count_ > 0) {
      std::fprintf(stderr,
                   "simrace: aborting: %" PRIu64
                   " race(s) between same-timestamp causally-unordered "
                   "events (set DPDPU_SIM_RACECHECK=0 to bypass)\n",
                   race_count_);
      std::abort();
    }
  }
}

const EnvConfig& EnvConfig::Get() {
  static const EnvConfig config = [] {
    EnvConfig c;
#ifndef NDEBUG
    c.race_check = true;  // Debug/check builds: on by default
#endif
    c.race_options.fatal = true;
    const char* rc = std::getenv("DPDPU_SIM_RACECHECK");  // NOLINT(concurrency-mt-unsafe)
    if (rc != nullptr) c.race_check = rc[0] != '0';
    const char* tb = std::getenv("DPDPU_SIM_TIEBREAK");  // NOLINT(concurrency-mt-unsafe)
    if (tb != nullptr) {
      if (std::strcmp(tb, "lifo") == 0) {
        c.tie_policy = 1;
      } else if (std::strncmp(tb, "shuffle", 7) == 0) {
        c.tie_policy = 2;
        if (tb[7] == ':') c.shuffle_seed = std::strtoull(tb + 8, nullptr, 10);
      } else {
        DPDPU_CHECK(std::strcmp(tb, "fifo") == 0);
      }
    }
    return c;
  }();
  return config;
}

}  // namespace dpdpu::sim
