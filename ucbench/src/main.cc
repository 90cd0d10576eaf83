// ucbench: one run of one workload of the uclean end-to-end benchmark.
//
//   ucbench --workload serve_hot|serve_clean|campaign_deep --seed N
//           --seconds S --trace 0|1 [--out DIR]
//
// Prints a human-readable report (every metric with its unit and sample
// count, provenance, any failed check) and, as the LAST line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when any answer check failed or the run broke one
// of the benchmark's own bounds, 2 on bad arguments.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rank/kernel.h"
#include "workloads.h"

namespace ucbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"warm_open_s", "s"},
    {"snapshot_bytes_per_tuple", "B"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"protocol.hash_ns", "ns"},
    {"protocol.hash_bytes", "B"},
    {"protocol.parse_ns", "ns"},
    {"protocol.format_ns", "ns"},
    {"server.transport_us", "us"},
    {"frontend.round_us", "us"},
    {"frontend.self_us", "us"},
    {"frontend.plan.seq", "count"},
    {"frontend.plan.shard", "count"},
    {"frontend.plan.ladder", "count"},
    {"frontend.plan.replay", "count"},
    {"frontend.batch_size", "count"},
    {"frontend.shared_share", "ratio"},
    {"rank.scans_per_query", "ratio"},
    {"rank.scan_us", "us"},
    {"rank.scan_depth", "count"},
    {"rank.scan_ns_per_tuple", "ns"},
    {"quality.tp_us", "us"},
    {"quality.tp_ns_per_tuple", "ns"},
    {"clean.pool_create_s", "s"},
    {"clean.setup_scan_s", "s"},
    {"clean.refresh_us", "us"},
    {"clean.plan_us", "us"},
    {"clean.draw_us", "us"},
    {"clean.commit_us", "us"},
    {"clean.probes", "count"},
    {"clean.probe_success_share", "ratio"},
    {"clean.rounds", "count"},
    {"store.write_ms", "ms"},
    {"store.write_mb_s", "MB/s"},
    {"store.open_ms", "ms"},
    {"store.open_mb_s", "MB/s"},
    {"trace.overhead_share", "ratio"},
};

uclean::ExecOptions SharedExec(size_t threads) {
  uclean::ExecOptions exec;
  exec.num_threads = threads;
  if (threads > 1) exec.pool = std::make_shared<uclean::ThreadPool>(threads);
  return exec;
}

bool TimedReps(double seconds, int min_reps, const std::function<bool(double*)>& rep,
               std::vector<double>* samples) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int r = 0; r < min_reps || std::chrono::steady_clock::now() < until; ++r) {
    double s = 0.0;
    if (!rep(&s)) return false;
    samples->push_back(s);
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 of the pair: well-spread, reproducible sub-stream seeds.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

/// Orders the report's metrics as `specs` lists them. A missing per-layer
/// metric is an idle layer and reports 0; a missing end-to-end metric, a
/// unit mismatch or an unlisted metric is a failure of the benchmark.
void Conform(const std::vector<MetricSpec>& specs, bool idle_is_zero,
             Report* report) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : specs) {
    auto it = std::find_if(report->metrics.begin(), report->metrics.end(),
                           [&](const Metric& m) { return m.name == spec.name; });
    if (it == report->metrics.end()) {
      if (!idle_is_zero && report->failed == 0) {
        report->Fail(std::string("metric ") + spec.name + " was not measured");
      }
      ordered.push_back(Metric{spec.name, 0.0, spec.unit, 0});
      if (idle_is_zero) report->Note(std::string("idle: ") + spec.name, 0.0, spec.unit);
      continue;
    }
    if (it->unit != spec.unit) {
      report->Fail("metric " + it->name + " has unit " + it->unit + ", want " +
                   spec.unit);
    }
    ordered.push_back(*it);
    report->metrics.erase(it);
  }
  for (const Metric& extra : report->metrics) {
    report->Fail("metric " + extra.name + " is not listed");
  }
  report->metrics = std::move(ordered);
}

size_t CountCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ucbench: %s\nusage: ucbench --workload serve_hot|serve_clean|"
               "campaign_deep --seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace ucbench

int main(int argc, char** argv) {
  using namespace ucbench;
  RunConfig config;
  config.out_dir = ".ucbench_out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 3600) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      config.trace = value == "1";
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  const bool serve = config.workload == "serve_hot" || config.workload == "serve_clean";
  if (!serve && config.workload != "campaign_deep") {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  mkdir(config.out_dir.c_str(), 0755);

  Env env;
  env.nproc = CountCpus();
  env.conns = env.nproc;
  // One thread executes all library work: the serving thread runs every
  // round inline, the campaign runs on the caller. On a shared host every
  // hand-off to a pool worker waits for that worker's CPU to be
  // scheduled; with pool workers, the p50s and probe rates of runs of the
  // same code moved by up to 2x with the host's load, serially by ~0.1.
  env.serve_pool_threads = 1;
  env.campaign_pool_threads = 1;
  uclean::Result<const uclean::psr_internal::ScanKernel*> kernel =
      uclean::SelectScanKernel(uclean::KernelKind::kAuto);
  env.kernel = kernel.ok() ? (*kernel)->name : "unresolved";

  std::printf("# ucbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::fflush(stdout);
  Report report = serve ? RunServe(config, env) : RunCampaign(config, env);
  report.Prov("nproc", std::to_string(env.nproc));
  report.Prov("kernel", env.kernel);
  report.Prov("workload_seed", std::to_string(config.seed));
  report.Prov("seconds", JsonNumber(config.seconds));

  Conform(config.trace ? kPerLayerMetrics : kEndToEndMetrics, config.trace, &report);
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) report.Fail("metric " + m.name + " is not finite");
  }
  if (report.attempted == 0) report.Fail("no operation was checked");
  const bool correct = report.failed == 0 && !report.invalid;

  std::string provenance = "{";
  for (size_t i = 0; i < report.provenance.size(); ++i) {
    provenance += (i ? ", " : "") + JsonString(report.provenance[i].first) + ": " +
                  JsonString(report.provenance[i].second);
  }
  provenance += "}";
  std::printf("# provenance %s\n", provenance.c_str());
  std::printf("# %-28s %16s %-9s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : report.metrics) {
    std::printf("  %-28s %16.6f %-9s %zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  for (const Metric& m : report.info) {
    std::printf("  (%s %.6f %s, n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  const double failed_share =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 1.0;
  std::printf("  (failed_share %.6f ratio: %zu of %zu checked operations)\n",
              failed_share, report.failed, report.attempted);
  for (const std::string& problem : report.problems) {
    std::printf("! %s\n", problem.c_str());
  }

  std::string metrics = "{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    metrics += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
               JsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  metrics += "}";
  const std::string result = std::string("{\"correct\": ") +
                             (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(report.attempted) +
                             ", \"failed\": " + std::to_string(report.failed) +
                             ", \"metrics\": " + metrics + "}";
  const std::string record_path = config.out_dir + "/result-" + config.workload +
                                   "-seed" + std::to_string(config.seed) + "-trace" +
                                   (config.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f, "{\"provenance\": %s, \"result\": %s}\n", provenance.c_str(),
                 result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
