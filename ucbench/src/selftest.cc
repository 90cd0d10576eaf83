// Checks of the benchmark's own arithmetic: the percentile rule, self
// time under overlapping child spans, due-time latency under generator
// lag, and PlanRecord token stripping. Exits 1 on the first failed
// group, after printing every failed check.

#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
    }                                                                  \
  } while (0)

void PercentileRule() {
  using namespace ucbench;
  // p99 needs ten samples beyond it: refused below 1000 samples.
  EXPECT(!PercentileSupported(999, 990));
  EXPECT(PercentileSupported(1000, 990));
  EXPECT(SamplesBeyond(1000, 990) == 10);
  EXPECT(SamplesBeyond(999, 990) == 9);
  EXPECT(HighestSupportedPercentile(1000) == 990);
  EXPECT(HighestSupportedPercentile(10000) == 999);
  EXPECT(HighestSupportedPercentile(999) == 980);
  EXPECT(HighestSupportedPercentile(200) == 950);
  EXPECT(HighestSupportedPercentile(100) == 900);
  EXPECT(HighestSupportedPercentile(20) == 500);
  EXPECT(HighestSupportedPercentile(19) == -1);
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);  // unsorted input
  double v = 0.0;
  EXPECT(Percentile(samples, 990, &v) && v == 990.0);
  EXPECT(Percentile(samples, 500, &v) && v == 500.0);
  samples.pop_back();
  v = -1.0;
  EXPECT(!Percentile(samples, 990, &v) && v == -1.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.0);  // nearest rank
}

void SelfTimeWithOverlap() {
  using namespace ucbench;
  // Parent [0, 100); children [10, 40) and [30, 60) overlap on [30, 40):
  // they cover [10, 60) = 50, not 60.
  EXPECT(SelfTime({0, 100}, {{10, 40}, {30, 60}}) == 50);
  // A child nested in another covers nothing extra.
  EXPECT(SelfTime({0, 100}, {{10, 90}, {20, 30}}) == 20);
  // Parts outside the parent are ignored.
  EXPECT(SelfTime({0, 100}, {{-50, 10}, {95, 200}}) == 85);
  // Disjoint, unsorted children.
  EXPECT(SelfTime({0, 100}, {{70, 80}, {0, 10}}) == 80);
  EXPECT(SelfTime({0, 100}, {}) == 100);

  // The tracer applies the same rule, and subtracts re-issued work.
  Tracer tracer;
  const size_t parent = tracer.Begin("parent", 1);
  const size_t child = tracer.Begin("child", 1);
  tracer.End(child);
  tracer.End(parent);
  const int64_t end = tracer.spans()[parent].end;
  tracer.AddReissue("hidden", 1, parent, end, end + 5);
  EXPECT(tracer.spans()[child].parent == parent);
  EXPECT(tracer.SelfNs(parent) ==
         (tracer.spans()[parent].end - tracer.spans()[parent].begin) -
             (tracer.spans()[child].end - tracer.spans()[child].begin) - 5);
}

void DueTimeLatency() {
  using namespace ucbench;
  // Due at 1000 ns, the generator ran 300 ns late, the reply took 200 ns
  // after the send: the request waited 500 ns, not 200 ns.
  RequestTimes t{1000, 1300, 1500};
  EXPECT(GeneratorLag(t) == 300);
  EXPECT(DueLatency(t) == 500);
  // On time: latency is the service time.
  RequestTimes on_time{1000, 1000, 1200};
  EXPECT(GeneratorLag(on_time) == 0);
  EXPECT(DueLatency(on_time) == 200);
}

void PlanTokenStripping() {
  using namespace ucbench;
  const std::string topk =
      "ok verb=topk k=25 plan=ladder exec=ladder forced=0 batch=4 threads=2 "
      "nonzero=37 scan_end=412 fp=9a1b top=t17@3:0.99";
  EXPECT(StripPlanTokens(topk) ==
         "ok verb=topk k=25 nonzero=37 scan_end=412 fp=9a1b top=t17@3:0.99");
  // Different plans, same answer: equal after stripping.
  const std::string other =
      "ok verb=topk k=25 plan=seq exec=seq forced=1 batch=1 threads=1 "
      "nonzero=37 scan_end=412 fp=9a1b top=t17@3:0.99";
  EXPECT(StripPlanTokens(topk) == StripPlanTokens(other));
  // Answers that differ stay different.
  EXPECT(StripPlanTokens("ok verb=quality k=5 plan=seq quality=-1.5") !=
         StripPlanTokens("ok verb=quality k=5 plan=seq quality=-1.25"));
  EXPECT(StripPlanTokens("ok verb=clean xtuple=3 success=1") ==
         "ok verb=clean xtuple=3 success=1");
  EXPECT(TokenValue(topk, "exec") == "ladder");
  EXPECT(TokenValue(topk, "batch") == "4");
  EXPECT(TokenValue(topk, "quality").empty());
}

}  // namespace

int main() {
  PercentileRule();
  SelfTimeWithOverlap();
  DueTimeLatency();
  PlanTokenStripping();
  if (failures != 0) {
    std::printf("ucbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("ucbench_selftest: all checks passed\n");
  return 0;
}
