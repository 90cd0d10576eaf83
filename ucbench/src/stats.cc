#include "stats.h"

#include <algorithm>
#include <numeric>

namespace ucbench {

size_t NearestRank(size_t n, PerMille p) {
  const size_t rank = (n * static_cast<size_t>(p) + 999) / 1000;
  return std::max<size_t>(rank, 1);
}

size_t SamplesBeyond(size_t n, PerMille p) {
  const size_t rank = NearestRank(n, p);
  return rank >= n ? 0 : n - rank;
}

bool PercentileSupported(size_t n, PerMille p) {
  return n > 0 && p > 0 && p < 1000 && SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

PerMille HighestSupportedPercentile(size_t n) {
  for (PerMille p : {999, 990, 980, 950, 900, 750, 500}) {
    if (PercentileSupported(n, p)) return p;
  }
  return -1;
}

bool Percentile(std::vector<double> samples, PerMille p, double* value) {
  if (!PercentileSupported(samples.size(), p)) return false;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  *value = samples[rank - 1];
  return true;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), 500);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  int64_t covered = 0;
  int64_t reach = parent.begin;  // end of the union swept so far
  for (const Interval& c : children) {
    if (c.end <= c.begin) continue;
    const int64_t from = std::max(c.begin, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (parent.end - parent.begin) - covered;
}

int64_t DueLatency(const RequestTimes& t) { return t.received - t.due; }

int64_t GeneratorLag(const RequestTimes& t) { return t.sent - t.due; }

namespace {

bool IsPlanToken(const std::string& token) {
  for (const char* prefix : {"plan=", "exec=", "forced=", "batch=", "threads="}) {
    if (token.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

}  // namespace

std::string StripPlanTokens(const std::string& line) {
  std::string out;
  size_t begin = 0;
  while (begin < line.size()) {
    size_t end = line.find(' ', begin);
    if (end == std::string::npos) end = line.size();
    const std::string token = line.substr(begin, end - begin);
    if (!token.empty() && !IsPlanToken(token)) {
      if (!out.empty()) out += ' ';
      out += token;
    }
    begin = end + 1;
  }
  return out;
}

std::string TokenValue(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t from = at + needle.size();
  const size_t end = line.find(' ', from);
  return line.substr(from, end == std::string::npos ? std::string::npos
                                                    : end - from);
}

}  // namespace ucbench
