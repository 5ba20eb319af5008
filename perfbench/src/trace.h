// Host-time spans recorded by the benchmark around its calls into the
// simulator's layers. One thread, so spans nest strictly: a span's
// parent is whatever span was open when it began, and a layer's self
// time is its duration minus the time covered by its direct children.
//
// Spans stay in memory (up to a cap) and are written out as Chrome
// trace-event JSON when the benchmark ends; per-name totals are kept for
// every span, including those past the cap.

#ifndef DPDPU_PERFBENCH_TRACE_H_
#define DPDPU_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Totals {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    uint64_t bytes = 0;  // payload bytes reported through AddBytes()
  };

  /// Spans are recorded only while enabled; Begin() returns -1 otherwise.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Stable id for a span name (interned once, then compared as ints).
  uint32_t Intern(const std::string& name);

  int32_t Begin(uint32_t name, uint64_t op);
  void End(int32_t span);
  /// Credits `bytes` of processed payload to `name` (while enabled).
  void AddBytes(uint32_t name, uint64_t bytes) {
    if (enabled_) totals_[name].bytes += bytes;
  }

  /// Per-name totals since the last ResetTotals(); zero when unseen.
  Totals totals(const std::string& name) const;
  void ResetTotals();

  /// Stops keeping span records (totals still accumulate); used so the
  /// written trace holds one episode rather than every repetition.
  void FreezeRecords() { frozen_ = true; }

  /// Writes the kept spans as Chrome trace-event JSON ("X" events, times
  /// in microseconds from the first span). Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  /// The tracer the benchmark's wrappers record into (one per process).
  static Tracer& Get();

 private:
  struct Span {
    uint32_t name = 0;
    int32_t parent = -1;
    uint64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t child_ns = 0;
  };
  // Open spans (record index, or -1 for spans past the cap) and their
  // child time, innermost last.
  struct Open {
    int32_t record = -1;
    uint32_t name = 0;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };

  static constexpr size_t kMaxRecords = 4'000'000;

  bool enabled_ = false;
  bool frozen_ = false;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> records_;
  std::vector<Open> stack_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(uint32_t name, uint64_t op)
      : span_(Tracer::Get().Begin(name, op)) {}
  ~ScopedSpan() {
    if (span_ >= 0) Tracer::Get().End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t span_;
};

}  // namespace perfbench

#endif  // DPDPU_PERFBENCH_TRACE_H_
