#include "trace.h"

#include <chrono>
#include <cstdio>

#include "stats.h"

namespace ucbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t Tracer::Begin(const std::string& name, uint64_t request) {
  const size_t id = spans_.size();
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? kNone : open_.back();
  span.begin = NowNs();
  spans_.push_back(std::move(span));
  children_.emplace_back();
  reissues_.emplace_back();
  if (spans_[id].parent != kNone) children_[spans_[id].parent].push_back(id);
  open_.push_back(id);
  return id;
}

void Tracer::End(size_t id) {
  spans_[id].end = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

size_t Tracer::AddReissue(const std::string& name, uint64_t request,
                          size_t of, int64_t begin, int64_t end) {
  const size_t id = spans_.size();
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? kNone : open_.back();
  span.reissue_of = of;
  span.begin = begin;
  span.end = end;
  spans_.push_back(std::move(span));
  children_.emplace_back();
  reissues_.emplace_back();
  if (spans_[id].parent != kNone) children_[spans_[id].parent].push_back(id);
  if (of != kNone) reissues_[of].push_back(id);
  return id;
}

int64_t Tracer::SelfNs(size_t id) const {
  const Span& span = spans_[id];
  std::vector<Interval> nested;
  for (size_t c : children_[id]) {
    nested.push_back(Interval{spans_[c].begin, spans_[c].end});
  }
  int64_t self = SelfTime(Interval{span.begin, span.end}, std::move(nested));
  for (size_t r : reissues_[id]) self -= spans_[r].end - spans_[r].begin;
  return self;
}

std::map<std::string, Tracer::LayerRow> Tracer::LayerTable() const {
  std::map<std::string, LayerRow> table;
  for (size_t id = 0; id < spans_.size(); ++id) {
    LayerRow& row = table[spans_[id].name];
    ++row.count;
    row.total_ns += SpanNs(id);
    row.self_ns += static_cast<double>(SelfNs(id));
    if (!reissues_[id].empty()) row.derived = true;
  }
  return table;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().begin;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t id = 0; id < spans_.size(); ++id) {
    const Span& s = spans_[id];
    // Re-issued spans get their own track so they never appear nested in
    // an unrelated span's interval.
    const int tid = s.reissue_of == kNone ? 1 : 2;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"reissue_of\":%lld,\"request\":%llu}}\n",
                 id == 0 ? "" : ",", JsonEscape(s.name).c_str(), tid,
                 static_cast<double>(s.begin - origin) / 1000.0,
                 static_cast<double>(s.end - s.begin) / 1000.0, id,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.reissue_of == kNone ? -1LL
                                       : static_cast<long long>(s.reissue_of),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace ucbench
