#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint32_t Tracer::Intern(const std::string& name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  totals_.emplace_back();
  return uint32_t(names_.size() - 1);
}

int32_t Tracer::Begin(uint32_t name, uint64_t op) {
  if (!enabled_) return -1;
  Open open;
  open.name = name;
  open.start_ns = NowNs();
  if (!frozen_ && records_.size() < kMaxRecords) {
    Span span;
    span.name = name;
    span.op = op;
    span.start_ns = open.start_ns;
    span.parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(span);
    open.record = int32_t(records_.size() - 1);
  }
  stack_.push_back(open);
  return int32_t(stack_.size() - 1);
}

void Tracer::End(int32_t span) {
  if (span != int32_t(stack_.size()) - 1) {
    std::fprintf(stderr, "perfbench: span %d ended out of order\n", span);
    std::abort();
  }
  Open open = stack_.back();
  stack_.pop_back();
  int64_t end = NowNs();
  int64_t duration = end - open.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  Totals& t = totals_[open.name];
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (open.record >= 0) {
    records_[size_t(open.record)].end_ns = end;
    records_[size_t(open.record)].child_ns = open.child_ns;
  }
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return Totals{};
}

void Tracer::ResetTotals() {
  for (Totals& t : totals_) t = Totals{};
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Span& s = records_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%llu,\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(),
                 double(s.start_ns - origin) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 (unsigned long long)s.op,
                 double(s.end_ns - s.start_ns - s.child_ns) / 1e3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
