// Shared types of the three workloads (serve_hot, serve_clean,
// campaign_deep) and the report every run prints.

#ifndef UCBENCH_WORKLOADS_H_
#define UCBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/thread_pool.h"

namespace ucbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< snapshots, trace file, provenance
};

/// Thread budget: the generator (main) thread, the server thread and the
/// pool's workers together use no more than nproc threads, and no
/// workload opens more than nproc connections.
struct Env {
  size_t nproc = 1;
  size_t serve_pool_threads = 1;     ///< server thread + workers
  size_t campaign_pool_threads = 1;  ///< main thread + workers
  size_t conns = 1;
  std::string kernel;  ///< the scan kernel kAuto resolves to
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  ///< timings: how many samples the value summarises
};

struct Report {
  size_t attempted = 0;
  size_t failed = 0;
  bool invalid = false;  ///< a bound of the benchmark itself was broken
  std::vector<Metric> metrics;  ///< the final JSON line's metrics
  std::vector<Metric> info;     ///< printed, not part of the final line
  std::vector<std::string> problems;  ///< first few failures, for the log
  std::vector<std::pair<std::string, std::string>> provenance;

  void Fail(const std::string& what) {
    ++failed;
    if (problems.size() < 20) problems.push_back(what);
  }
  void Invalid(const std::string& what) {
    invalid = true;
    if (problems.size() < 20) problems.push_back("invalid run: " + what);
  }
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  void Note(const std::string& name, double value, const std::string& unit,
            size_t samples = 0) {
    info.push_back(Metric{name, value, unit, samples});
  }
  void Prov(const std::string& key, const std::string& value) {
    provenance.emplace_back(key, value);
  }
};

/// A metric's name and unit, as BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports, in order.
extern const std::vector<MetricSpec> kEndToEndMetrics;

/// The per-layer metrics every traced run reports, in order. A layer the
/// workload never calls reports 0.
extern const std::vector<MetricSpec> kPerLayerMetrics;

Report RunServe(const RunConfig& config, const Env& env);
Report RunCampaign(const RunConfig& config, const Env& env);

/// Times `rep` (which reports its own duration in seconds through its
/// argument and returns false on failure) until `seconds` have passed and
/// at least `min_reps` ran, appending each duration to `samples`. Returns
/// false as soon as a rep fails.
bool TimedReps(double seconds, int min_reps, const std::function<bool(double*)>& rep,
               std::vector<double>* samples);

/// Execution options with one explicit shared pool of `threads` threads
/// (none for 1).
uclean::ExecOptions SharedExec(size_t threads);

/// Peak resident set of this process, MB.
double PeakRssMb();

/// Seed of sub-stream `stream` of workload seed `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace ucbench

#endif  // UCBENCH_WORKLOADS_H_
