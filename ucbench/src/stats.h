// The benchmark's own arithmetic, kept apart from any I/O so that
// ucbench_selftest can check it: the percentile rule, self time under
// overlapping child spans, due-time latency, and the reply normalisation
// the answer oracles compare with.

#ifndef UCBENCH_STATS_H_
#define UCBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ucbench {

/// A percentile in tenths of a percent (990 = p99), so that the
/// "enough samples beyond it" test is exact integer arithmetic.
using PerMille = int;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples:
/// ceil(n * p / 1000), at least 1.
size_t NearestRank(size_t n, PerMille p);

/// Samples strictly beyond percentile `p` among `n`: n - NearestRank.
size_t SamplesBeyond(size_t n, PerMille p);

/// Minimum number of samples beyond a reported tail percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// True when `p` may be reported from `n` samples: at least
/// kMinSamplesBeyond of them lie beyond it (p99 needs n >= 1000).
bool PercentileSupported(size_t n, PerMille p);

/// The highest of p99.9, p99, p98, p95, p90, p75, p50 that `n` samples
/// support, or -1 when not even the median is supported.
PerMille HighestSupportedPercentile(size_t n);

/// Nearest-rank percentile of `samples` (need not be sorted). Returns
/// false, leaving *value untouched, when `p` is not supported.
bool Percentile(std::vector<double> samples, PerMille p, double* value);

/// Plain median (nearest rank, p50) of a non-empty sample; 0 if empty.
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 if empty.
double Mean(const std::vector<double>& samples);

/// A closed-open time interval in nanoseconds.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Self time of a span: its duration minus the part of its interval that
/// the union of `children` covers. Overlapping children are counted
/// once; parts of a child outside the parent are ignored.
int64_t SelfTime(Interval parent, std::vector<Interval> children);

/// Open-loop timing of one request. A request is due at `due`, was
/// written at `sent` (the generator may run late) and answered at
/// `received`; its latency runs from the due time, so a stall of the
/// generator or the server is charged to every request it delays.
struct RequestTimes {
  int64_t due = 0;
  int64_t sent = 0;
  int64_t received = 0;
};
int64_t DueLatency(const RequestTimes& t);
int64_t GeneratorLag(const RequestTimes& t);

/// Drops the PlanRecord tokens (plan= exec= forced= batch= threads=) from
/// a reply line: the plan may differ between a served reply and its
/// oracle, the answer may not.
std::string StripPlanTokens(const std::string& line);

/// Value of token `key=` in a reply line ("" when absent).
std::string TokenValue(const std::string& line, const std::string& key);

}  // namespace ucbench

#endif  // UCBENCH_STATS_H_
