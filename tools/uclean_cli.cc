// uclean_cli: command-line front end for the uclean library.
//
// Subcommands (all I/O through the CSV formats of model/csv_io.h and
// clean/profile_io.h):
//
//   generate  synthesize a probabilistic database (synthetic or MOV)
//   profile   synthesize a cleaning profile (costs + sc-probabilities)
//   inspect   print a database summary
//   query     run U-kRanks / PT-k / Global-topk
//   quality   compute PWS-quality (tp | pwr | pw | mc)
//   plan      plan a cleaning campaign (dp | greedy | randp | randu)
//   clean     plan and execute a campaign, write the cleaned database
//   target    minimal budget to reach a quality target
//   snapshot  save / load / inspect a binary pool snapshot (store/)
//   serve     persistent request loop over a warm pool (serve/)
//
// query, quality and clean also accept --snapshot SNAP.bin in place of
// --db: the pool warm-starts from the file with zero scans. A corrupt
// or truncated snapshot exits with code 3 (data loss), not 1.
//
// Run `uclean_cli help` or any subcommand with missing flags for usage.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clean/adaptive.h"
#include "clean/agent.h"
#include "clean/pipeline.h"
#include "clean/planners.h"
#include "clean/profile_io.h"
#include "clean/session_pool.h"
#include "clean/target.h"
#include "common/rng.h"
#include "common/strings.h"
#include "exec/thread_pool.h"
#include "extend/monte_carlo.h"
#include "model/csv_io.h"
#include "pworld/pw_quality.h"
#include "quality/evaluation.h"
#include "rank/kernel.h"
#include "serve/frontend.h"
#include "serve/server.h"
#include "store/snapshot.h"
#include "quality/pwr.h"
#include "quality/tp.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/mov.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr char kUsage[] = R"(uclean_cli -- probabilistic top-k queries, quality and cleaning

usage: uclean_cli <command> [--flag value ...]

commands:
  generate --type synthetic|mov --out DB.csv
           [--xtuples N] [--bars B] [--sigma S] [--pdf gaussian|uniform]
           [--mass-lo 1] [--mass-hi 1] [--seed S]
  profile  --xtuples N --out PROFILE.csv
           [--cost-min 1] [--cost-max 10]
           [--sc-pdf uniform|normal] [--sc-lo 0] [--sc-hi 1]
           [--sc-mean 0.5] [--sc-sigma 0.167] [--seed S]
  inspect  --db DB.csv [--rows 20]
  query    --db DB.csv|--snapshot SNAP.bin
           --k K [--k-ladder K1,K2,...] [--threads N|auto]
           [--kernel scalar|avx2|auto]
           [--semantics all|ptk|ukranks|global] [--threshold 0.1]
  quality  --db DB.csv|--snapshot SNAP.bin
           --k K [--k-ladder K1,K2,...] [--threads N|auto]
           [--kernel scalar|avx2|auto]
           [--algo tp|pwr|pw|mc] [--samples 100000] [--seed S]
  plan     --db DB.csv --profile PROFILE.csv --k K --budget C
           [--planner dp|greedy|randp|randu] [--seed S]
  clean    --db DB.csv|--snapshot SNAP.bin
           --profile PROFILE.csv --k K --budget C --out OUT.csv
           [--planner dp|greedy|randp|randu] [--seed S] [--adaptive]
           [--k-ladder K1,K2,...] [--sessions N] [--threads N|auto]
           [--kernel scalar|avx2|auto]
           [--pipeline] [--probe-latency-us U]
           [--probe-fail-rate R] [--probe-timeout-us U] [--retry-max N]
           [--retry-backoff-us U] [--breaker-threshold N]
  target   --db DB.csv --profile PROFILE.csv --k K --target Q
           [--max-budget 100000]
  snapshot save --db DB.csv --out SNAP.bin
           [--k K | --k-ladder K1,K2,...] [--sessions N]
           [--threads N|auto] [--kernel scalar|avx2|auto]
  snapshot load --snapshot SNAP.bin
           [--threads N|auto] [--kernel scalar|avx2|auto]
  snapshot inspect --snapshot SNAP.bin
  serve    --db DB.csv|--snapshot SNAP.bin [--profile PROFILE.csv]
           [--k K | --k-ladder K1,K2,...] [--threads N|auto]
           [--kernel scalar|avx2|auto]
           [--plan auto|seq|shard|ladder|replay] [--batch on|off]
           [--max-batch 64] [--calibrate on|off] [--seed S]

--k-ladder serves every listed k from ONE shared PSR scan (query and
quality report per-k results; adaptive cleaning plans against the uniform
ladder aggregate). Input that is not ascending and deduped is normalized
with a printed note. --k is ignored when --k-ladder is given.

--sessions N (with --adaptive) runs N concurrent cleaning sessions over
ONE shared scan via the session pool: each session plans and probes its
own copy-on-write view with the full budget; session 0's cleaned database
is written to --out.

--threads N runs the PSR scans, replays and TP passes on N threads
(rank-range sharded over one fixed-size pool; results are identical to
--threads 1). `auto` uses the machine's hardware concurrency. With
--sessions, dirty sessions also refresh concurrently.

--kernel picks the scan compute kernel: `scalar` (portable), `avx2`
(vectorized; rejected when this machine or build lacks AVX2) or `auto`
(the default: AVX2 whenever available). Every kernel is bitwise equal
to every other, so the choice -- like --threads -- never changes a
result, only throughput.

--pipeline (with --adaptive --sessions) overlaps each round's probe
batches with planning on the --threads executor: probes draw against each
session's own view on workers while the caller plans the other sessions,
then one concurrent RefreshAll commits the round. Per-session results are
bitwise identical to the serial pool loop. --probe-latency-us simulates
per-probe field latency (source lookups, sensors, people) -- the regime
the pipeline is built for.

--probe-fail-rate R (with --adaptive) makes each probe attempt fail with
probability R, drawn from a dedicated seeded fault stream (at R = 0 every
run is bitwise identical to a fault-free one). Failed attempts retry up
to --retry-max times with exponential backoff from --retry-backoff-us
(simulated); --probe-timeout-us bounds each probe's total simulated time;
--breaker-threshold consecutive failed probes trip a per-source circuit
breaker the planner then routes around. Failed probes never spend budget
-- the adaptive loop reinvests it in sources that still answer.

snapshot save runs the one shared scan + TP pass and persists the whole
serving pool (database, engine scan state, sessions) to a versioned,
checksummed binary file. snapshot load -- and --snapshot SNAP.bin on
query/quality/clean, in place of --db -- warm-starts from that file with
ZERO scans and bitwise-identical state; the k-ladder comes from the
file, so --k/--k-ladder are rejected there (and --snapshot clean runs
the pooled adaptive loop: pass --adaptive). --threads/--kernel remain
the LOADER's choice -- execution mode is never persisted. snapshot
inspect prints the section table after verifying every checksum. Any
corrupt, truncated or version-mismatched snapshot exits with code 3
(data loss) instead of the generic 1.

serve turns stdin/stdout into one serving-protocol connection over a warm
session pool: one request per line (`topk K`, `quality K`, `clean X`,
`stats`, each optionally pinned with a trailing `plan=NAME`), one
`ok`/`error` reply line per request, EOF ends the session. The cost model
picks the cheapest of the four bitwise-equal strategies per query
(--calibrate on, the default, times its per-tuple constant on the served
database); --plan pins one strategy globally, --batch off disables the
admission batcher. With --db the pool ladder comes from --k/--k-ladder;
with --snapshot it comes from the file. clean requests need --profile.
Flag-resolution notes print before the first reply; every reply line
starts with `ok ` or `error `.
)";

/// Minimal --key value flag map.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("expected --flag, got '" +
                                       std::string(arg) + "'");
      }
      std::string key(arg.substr(2));
      if (key == "adaptive" || key == "pipeline") {  // boolean flags
        flags.values_[key] = "true";
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + key + " needs a value");
      }
      flags.values_[key] = argv[++i];
    }
    return flags;
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  Result<std::string> GetString(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::InvalidArgument("missing required flag --" + key);
    }
    return it->second;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  Result<int64_t> GetInt(const std::string& key) const {
    Result<std::string> raw = GetString(key);
    if (!raw.ok()) return raw.status();
    return ParseInt(*raw);
  }

  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const {
    if (!Has(key)) return fallback;
    return GetInt(key);
  }

  Result<double> GetDouble(const std::string& key) const {
    Result<std::string> raw = GetString(key);
    if (!raw.ok()) return raw.status();
    return ParseDouble(*raw);
  }

  Result<double> GetDouble(const std::string& key, double fallback) const {
    if (!Has(key)) return fallback;
    return GetDouble(key);
  }

 private:
  std::map<std::string, std::string> values_;
};

#define CLI_ASSIGN_OR_RETURN(decl, expr)      \
  auto decl##_result = (expr);                \
  if (!decl##_result.ok()) {                  \
    return decl##_result.status();            \
  }                                           \
  auto decl = std::move(decl##_result).value()

/// Parses "--k-ladder 5,10,25,50" (falling back to a one-rung ladder at
/// --k when absent) into a validated KLadder. Every entry must be a
/// positive integer -- empty entries (trailing or doubled commas),
/// negatives and values past int64 are rejected with a pointed message
/// instead of being wrapped or dropped. When KLadder::Of had to reorder
/// or dedup the input, the normalization is announced: every downstream
/// consumer serves the NORMALIZED ladder, and silently printing results
/// in an order the user did not ask for misattributes every per-k line.
Result<KLadder> ParseKLadder(const Flags& flags) {
  if (!flags.Has("k-ladder")) {
    CLI_ASSIGN_OR_RETURN(k, flags.GetInt("k"));
    if (k <= 0) return Status::InvalidArgument("--k must be positive");
    return KLadder::Of({static_cast<size_t>(k)});
  }
  CLI_ASSIGN_OR_RETURN(raw, flags.GetString("k-ladder"));
  std::vector<size_t> ks;
  for (const std::string& part : SplitString(raw, ',')) {
    const std::string_view stripped = StripWhitespace(part);
    if (stripped.empty()) {
      return Status::InvalidArgument(
          "bad --k-ladder '" + raw +
          "': empty entry (trailing or doubled comma?)");
    }
    Result<int64_t> k = ParseInt(stripped);
    if (!k.ok() || *k <= 0) {
      return Status::InvalidArgument(
          "bad --k-ladder entry '" + std::string(stripped) +
          "': every k must be a positive integer");
    }
    ks.push_back(static_cast<size_t>(*k));
  }
  Result<KLadder> ladder = KLadder::Of(ks);
  if (ladder.ok() && ladder->ks != ks) {
    std::printf("note: --k-ladder %s normalized to %s; all per-k output "
                "follows the normalized (ascending, deduped) order\n",
                raw.c_str(), ladder->ToString().c_str());
  }
  return ladder;
}

/// Parses "--threads N|auto" into resolved ExecOptions (pool built here,
/// shared by every downstream consumer of the command). Absent flag =
/// the sequential default. Every explicit value is validated -- zero,
/// negatives, non-numbers and anything past ThreadPool::kMaxThreads
/// (including int64 overflow) are rejected with a pointed message -- and
/// the RESOLVED count is announced in the --k-ladder normalization
/// style, because `auto` picks a machine-dependent value the user never
/// typed and downstream timings are meaningless without it.
Result<ExecOptions> ParseThreads(const Flags& flags) {
  ExecOptions exec;
  if (!flags.Has("threads")) return exec;
  CLI_ASSIGN_OR_RETURN(raw, flags.GetString("threads"));
  if (raw == "auto") {
    const unsigned hw = std::thread::hardware_concurrency();
    exec.num_threads = hw == 0 ? 1 : static_cast<size_t>(hw);
    // hardware_concurrency() can legitimately report more cores than
    // the pool supports; clamp instead of rejecting a value the user
    // never chose.
    exec.num_threads = std::min(exec.num_threads, ThreadPool::kMaxThreads);
  } else {
    Result<int64_t> parsed = ParseInt(raw);
    if (!parsed.ok() || *parsed <= 0 ||
        *parsed > static_cast<int64_t>(ThreadPool::kMaxThreads)) {
      return Status::InvalidArgument(
          "bad --threads '" + raw + "': expected a positive integer <= " +
          std::to_string(ThreadPool::kMaxThreads) + " or 'auto'");
    }
    exec.num_threads = static_cast<size_t>(*parsed);
  }
  Result<ExecOptions> resolved = ResolveExec(std::move(exec));
  if (!resolved.ok()) return resolved.status();
  std::printf("note: --threads %s resolved to %zu thread%s%s\n", raw.c_str(),
              resolved->num_threads, resolved->num_threads == 1 ? "" : "s",
              resolved->num_threads == 1
                  ? " (sequential execution)"
                  : " (rank-range sharded scans on one shared pool)");
  return resolved;
}

/// Parses "--kernel scalar|avx2|auto" into a KernelKind, resolving the
/// concrete kernel NOW so an impossible ask (--kernel avx2 on a machine
/// or build without AVX2) fails at the flag instead of deep inside the
/// first scan, and so the machine-dependent `auto` resolution can be
/// announced in the --threads style. Every kernel is bitwise equal to
/// every other, so the flag -- like --threads -- never changes results.
Result<KernelKind> ParseKernel(const Flags& flags) {
  const std::string raw = flags.GetString("kernel", "auto");
  KernelKind kind;
  if (raw == "auto") {
    kind = KernelKind::kAuto;
  } else if (raw == "scalar") {
    kind = KernelKind::kScalar;
  } else if (raw == "avx2") {
    kind = KernelKind::kAvx2;
  } else {
    return Status::InvalidArgument("bad --kernel '" + raw +
                                   "': expected scalar, avx2 or auto");
  }
  Result<const psr_internal::ScanKernel*> kernel = SelectScanKernel(kind);
  if (!kernel.ok()) return kernel.status();
  if (flags.Has("kernel")) {
    std::printf("note: --kernel %s resolved to the %s scan kernel\n",
                raw.c_str(), (*kernel)->name);
  }
  return kind;
}

/// The scan-facing flags shared by the query, quality and clean
/// commands, parsed, validated and announced in ONE place: the
/// --k/--k-ladder rungs, the --threads executor and the --kernel choice
/// (folded into exec.kernel, where every scan driver picks it up).
struct ScanCliOptions {
  KLadder ladder;
  ExecOptions exec;
};

Result<ScanCliOptions> BuildScanCliOptions(const Flags& flags) {
  ScanCliOptions options;
  CLI_ASSIGN_OR_RETURN(ladder, ParseKLadder(flags));
  options.ladder = std::move(ladder);
  CLI_ASSIGN_OR_RETURN(exec, ParseThreads(flags));
  options.exec = std::move(exec);
  CLI_ASSIGN_OR_RETURN(kernel, ParseKernel(flags));
  options.exec.kernel = kernel;
  return options;
}

/// The --threads/--kernel pair WITHOUT the ladder flags: the execution
/// options a snapshot loader picks for itself. The k-ladder is the one
/// flag a snapshot consumer must NOT pass -- the ladder is logical state
/// and comes from the file -- so the mismatch is rejected with a pointed
/// message instead of being silently overridden.
Result<ExecOptions> BuildSnapshotExec(const Flags& flags) {
  if (flags.Has("k") || flags.Has("k-ladder")) {
    return Status::InvalidArgument(
        "--snapshot serves the snapshot's own k-ladder; drop "
        "--k/--k-ladder (use `snapshot save` to build a different ladder)");
  }
  CLI_ASSIGN_OR_RETURN(exec, ParseThreads(flags));
  CLI_ASSIGN_OR_RETURN(kernel, ParseKernel(flags));
  exec.kernel = kernel;
  return exec;
}

/// "{5, 20}" for a raw meta ladder (KLadder::ToString's format, without
/// constructing a KLadder from possibly-foreign bytes).
std::string LadderToString(const std::vector<size_t>& ks) {
  std::string out = "{";
  for (size_t i = 0; i < ks.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(ks[i]);
  }
  return out + "}";
}

/// Parses the fault-injection flags into a FaultOptions. Injection is
/// enabled by passing ANY of them; the fault stream is seeded off --seed
/// decorrelated from the probe Rng (same seed value in two mt19937_64
/// engines means identical raw streams, and fault draws must not echo
/// probe draws).
Result<FaultOptions> ParseFaultOptions(const Flags& flags, uint64_t seed) {
  FaultOptions fault;
  fault.enabled = flags.Has("probe-fail-rate") ||
                  flags.Has("probe-timeout-us") || flags.Has("retry-max") ||
                  flags.Has("retry-backoff-us") ||
                  flags.Has("breaker-threshold");
  if (!fault.enabled) return fault;

  CLI_ASSIGN_OR_RETURN(fail_rate, flags.GetDouble("probe-fail-rate", 0.0));
  if (!(fail_rate >= 0.0 && fail_rate <= 1.0)) {
    return Status::InvalidArgument(
        "bad --probe-fail-rate '" + flags.GetString("probe-fail-rate", "") +
        "': expected a probability in [0, 1]");
  }
  CLI_ASSIGN_OR_RETURN(timeout_us, flags.GetInt("probe-timeout-us", 0));
  if (timeout_us < 0 || timeout_us > 60000000) {
    return Status::InvalidArgument(
        "bad --probe-timeout-us '" + flags.GetString("probe-timeout-us", "") +
        "': expected microseconds in [0, 60000000]");
  }
  CLI_ASSIGN_OR_RETURN(retry_max, flags.GetInt("retry-max", 3));
  if (retry_max < 1 || retry_max > 1000) {
    return Status::InvalidArgument(
        "bad --retry-max '" + flags.GetString("retry-max", "") +
        "': expected attempts in [1, 1000] (1 = no retries)");
  }
  CLI_ASSIGN_OR_RETURN(backoff_us, flags.GetInt("retry-backoff-us", 100));
  if (backoff_us < 0 || backoff_us > 60000000) {
    return Status::InvalidArgument(
        "bad --retry-backoff-us '" + flags.GetString("retry-backoff-us", "") +
        "': expected microseconds in [0, 60000000]");
  }
  CLI_ASSIGN_OR_RETURN(threshold, flags.GetInt("breaker-threshold", 5));
  if (threshold < 1 || threshold > 1000000) {
    return Status::InvalidArgument(
        "bad --breaker-threshold '" +
        flags.GetString("breaker-threshold", "") +
        "': expected consecutive failures in [1, 1000000]");
  }

  fault.profile.fail_rate = fail_rate;
  fault.retry.probe_deadline_us = timeout_us;
  fault.retry.max_attempts = retry_max;
  fault.retry.backoff_us = backoff_us;
  fault.breaker.threshold = threshold;
  fault.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  return fault;
}

/// One-line fault summary, printed only when injection is on.
void PrintFaultStats(const char* prefix, const FaultStats& f) {
  std::printf(
      "%sfaults: %lld faulted attempts (%lld transient, %lld timeout, "
      "%lld source-down), %lld retries, %lld failed probes, "
      "%lld breaker skips, %lld deadline skips, %lld budget unspent\n",
      prefix, static_cast<long long>(f.FaultedAttempts()),
      static_cast<long long>(f.transient),
      static_cast<long long>(f.timeouts),
      static_cast<long long>(f.source_down),
      static_cast<long long>(f.retries),
      static_cast<long long>(f.failed_probes),
      static_cast<long long>(f.breaker_skips),
      static_cast<long long>(f.deadline_skips),
      static_cast<long long>(f.budget_unspent));
}

Status RunGenerate(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(type, flags.GetString("type"));
  CLI_ASSIGN_OR_RETURN(out, flags.GetString("out"));
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", 42));
  Result<ProbabilisticDatabase> db = ProbabilisticDatabase();
  if (type == "synthetic") {
    SyntheticOptions opts;
    CLI_ASSIGN_OR_RETURN(xtuples, flags.GetInt("xtuples", 5000));
    CLI_ASSIGN_OR_RETURN(bars, flags.GetInt("bars", 10));
    CLI_ASSIGN_OR_RETURN(sigma, flags.GetDouble("sigma", 100.0));
    CLI_ASSIGN_OR_RETURN(mass_lo, flags.GetDouble("mass-lo", 1.0));
    CLI_ASSIGN_OR_RETURN(mass_hi, flags.GetDouble("mass-hi", 1.0));
    opts.num_xtuples = static_cast<size_t>(xtuples);
    opts.tuples_per_xtuple = static_cast<size_t>(bars);
    opts.sigma = sigma;
    opts.real_mass_min = mass_lo;
    opts.real_mass_max = mass_hi;
    opts.seed = static_cast<uint64_t>(seed);
    const std::string pdf = flags.GetString("pdf", "gaussian");
    if (pdf == "uniform") {
      opts.pdf = UncertaintyPdf::kUniform;
    } else if (pdf != "gaussian") {
      return Status::InvalidArgument("unknown --pdf '" + pdf + "'");
    }
    db = GenerateSynthetic(opts);
  } else if (type == "mov") {
    MovOptions opts;
    CLI_ASSIGN_OR_RETURN(xtuples, flags.GetInt("xtuples", 4999));
    opts.num_xtuples = static_cast<size_t>(xtuples);
    opts.seed = static_cast<uint64_t>(seed);
    db = GenerateMov(opts);
  } else {
    return Status::InvalidArgument("unknown --type '" + type + "'");
  }
  if (!db.ok()) return db.status();
  UCLEAN_RETURN_IF_ERROR(WriteDatabaseCsvFile(*db, out));
  std::printf("wrote %zu x-tuples / %zu tuples to %s\n", db->num_xtuples(),
              db->num_real_tuples(), out.c_str());
  return Status::OK();
}

Status RunProfile(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(xtuples, flags.GetInt("xtuples"));
  CLI_ASSIGN_OR_RETURN(out, flags.GetString("out"));
  CleaningProfileOptions opts;
  CLI_ASSIGN_OR_RETURN(cost_min, flags.GetInt("cost-min", 1));
  CLI_ASSIGN_OR_RETURN(cost_max, flags.GetInt("cost-max", 10));
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", 99));
  opts.cost_min = cost_min;
  opts.cost_max = cost_max;
  opts.seed = static_cast<uint64_t>(seed);
  const std::string pdf = flags.GetString("sc-pdf", "uniform");
  CLI_ASSIGN_OR_RETURN(lo, flags.GetDouble("sc-lo", 0.0));
  CLI_ASSIGN_OR_RETURN(hi, flags.GetDouble("sc-hi", 1.0));
  if (pdf == "uniform") {
    opts.sc_pdf = ScPdf::Uniform(lo, hi);
  } else if (pdf == "normal") {
    CLI_ASSIGN_OR_RETURN(mean, flags.GetDouble("sc-mean", 0.5));
    CLI_ASSIGN_OR_RETURN(sigma, flags.GetDouble("sc-sigma", 0.167));
    opts.sc_pdf = ScPdf::TruncatedNormal(mean, sigma, lo, hi);
  } else {
    return Status::InvalidArgument("unknown --sc-pdf '" + pdf + "'");
  }
  Result<CleaningProfile> profile =
      GenerateCleaningProfile(static_cast<size_t>(xtuples), opts);
  if (!profile.ok()) return profile.status();
  UCLEAN_RETURN_IF_ERROR(WriteProfileCsvFile(*profile, out));
  std::printf("wrote cleaning profile for %lld x-tuples to %s\n",
              static_cast<long long>(xtuples), out.c_str());
  return Status::OK();
}

Status RunInspect(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(rows, flags.GetInt("rows", 20));
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(path);
  if (!db.ok()) return db.status();
  std::printf("%s", db->DebugString(static_cast<size_t>(rows)).c_str());
  double min_mass = 1.0, max_mass = 0.0;
  for (size_t l = 0; l < db->num_xtuples(); ++l) {
    const double mass = db->xtuple_real_mass(static_cast<XTupleId>(l));
    min_mass = std::min(min_mass, mass);
    max_mass = std::max(max_mass, mass);
  }
  std::printf("x-tuple real mass range: [%.4f, %.4f]; possible worlds: "
              "%.3e\n",
              min_mass, max_mass, db->NumPossibleWorlds());
  return Status::OK();
}

/// Prints the requested per-k answers for a served ladder; `psr_at`
/// yields rung `j`'s PSR output (a fresh scan for `query --db`, the
/// reconstructed engine state for `query --snapshot`).
Status PrintLadderAnswers(
    const ProbabilisticDatabase& db, const KLadder& ladder,
    const std::function<const PsrOutput&(size_t)>& psr_at,
    const std::string& semantics, double threshold) {
  const bool ukranks = semantics == "all" || semantics == "ukranks";
  const bool ptk = semantics == "all" || semantics == "ptk";
  const bool global_topk = semantics == "all" || semantics == "global";
  if (!ukranks && !ptk && !global_topk) {
    return Status::InvalidArgument("unknown --semantics '" + semantics + "'");
  }
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    const PsrOutput& psr = psr_at(rung);
    std::printf("-- k = %zu (%zu tuples with nonzero top-k probability)\n",
                ladder[rung], psr.num_nonzero);
    if (ptk) {
      Result<PtkAnswer> answer = EvaluatePtk(db, psr, threshold);
      if (!answer.ok()) return answer.status();
      std::printf("  PT-%zu (T = %.3f): %zu tuples %s\n", ladder[rung],
                  threshold, answer->tuples.size(),
                  AnswerToString(db, answer->tuples).c_str());
    }
    if (ukranks) {
      const UkRanksAnswer answer = EvaluateUkRanks(db, psr);
      std::printf("  U-kRanks: %s\n",
                  AnswerToString(db, answer.per_rank).c_str());
    }
    if (global_topk) {
      const GlobalTopkAnswer answer = EvaluateGlobalTopk(db, psr);
      std::printf("  Global-top%zu: %s\n", ladder[rung],
                  AnswerToString(db, answer.tuples).c_str());
    }
  }
  return Status::OK();
}

/// Prints the requested per-k answers from one shared ladder scan.
Status RunQueryLadder(const ProbabilisticDatabase& db, const KLadder& ladder,
                      const std::string& semantics, double threshold,
                      const ExecOptions& exec) {
  ScanRequest request;
  request.ladder = ladder;
  request.exec = exec;
  Result<ScanResult> scan = ComputePsrLadder(db, request);
  if (!scan.ok()) return scan.status();
  std::printf("k-ladder %s from one shared PSR scan:\n",
              ladder.ToString().c_str());
  return PrintLadderAnswers(
      db, ladder, [&scan](size_t rung) -> const PsrOutput& {
        return scan->output(rung);
      },
      semantics, threshold);
}

/// `query --snapshot`: serves the snapshot's ladder from the
/// reconstructed pool -- zero scans, answers bitwise identical to the
/// pool the writer saved. The served PSR state is a pristine session's
/// fork (a memcpy of the engine state, still no scan).
Status RunQueryFromSnapshot(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("snapshot"));
  CLI_ASSIGN_OR_RETURN(exec, BuildSnapshotExec(flags));
  CLI_ASSIGN_OR_RETURN(threshold, flags.GetDouble("threshold", 0.1));
  const std::string semantics = flags.GetString("semantics", "all");
  SessionPool::Options options;
  options.exec = exec;
  Result<SessionPool> pool = SessionPool::OpenFromSnapshot(path, options);
  if (!pool.ok()) return pool.status();
  const SessionPool::SessionId sid = pool->OpenSession();
  std::printf("k-ladder %s served warm from %s (zero scans):\n",
              pool->ladder().ToString().c_str(), path.c_str());
  return PrintLadderAnswers(
      pool->base(), pool->ladder(),
      [&pool, sid](size_t rung) -> const PsrOutput& {
        return pool->psr(sid, rung);
      },
      semantics, threshold);
}

Status RunQuery(const Flags& flags) {
  if (flags.Has("snapshot")) return RunQueryFromSnapshot(flags);
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(scan_options, BuildScanCliOptions(flags));
  CLI_ASSIGN_OR_RETURN(threshold, flags.GetDouble("threshold", 0.1));
  const KLadder& ladder = scan_options.ladder;
  const ExecOptions& exec = scan_options.exec;
  const std::string semantics = flags.GetString("semantics", "all");
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(path);
  if (!db.ok()) return db.status();
  if (flags.Has("k-ladder") || exec.parallel() || flags.Has("kernel")) {
    // The shared-scan pipeline carries the parallel and explicit-kernel
    // paths; a plain --k query with --threads/--kernel runs it as a
    // one-rung ladder.
    return RunQueryLadder(*db, ladder, semantics, threshold, exec);
  }
  const size_t k = ladder.max_k();

  EvaluationOptions options;
  options.k = k;
  options.ptk_threshold = threshold;
  options.ukranks = semantics == "all" || semantics == "ukranks";
  options.ptk = semantics == "all" || semantics == "ptk";
  options.global_topk = semantics == "all" || semantics == "global";
  options.quality = false;
  if (!options.ukranks && !options.ptk && !options.global_topk) {
    return Status::InvalidArgument("unknown --semantics '" + semantics + "'");
  }
  Result<EvaluationReport> report = EvaluateTopk(*db, options);
  if (!report.ok()) return report.status();

  if (options.ptk) {
    std::printf("PT-%lld (T = %.3f): %zu tuples\n",
                static_cast<long long>(k), threshold,
                report->ptk.tuples.size());
    for (const AnswerEntry& e : report->ptk.tuples) {
      std::printf("  tuple %lld  score %.4f  Pr[top-k] = %.4f\n",
                  static_cast<long long>(e.tuple_id),
                  db->tuple(e.rank_index).score, e.probability);
    }
  }
  if (options.ukranks) {
    std::printf("U-kRanks:\n");
    for (size_t h = 1; h <= report->ukranks.per_rank.size(); ++h) {
      const AnswerEntry& e = report->ukranks.per_rank[h - 1];
      std::printf("  rank %zu: tuple %lld (Pr = %.4f)\n", h,
                  static_cast<long long>(e.tuple_id), e.probability);
    }
  }
  if (options.global_topk) {
    std::printf("Global-topk:\n");
    for (const AnswerEntry& e : report->global_topk.tuples) {
      std::printf("  tuple %lld  Pr[top-k] = %.4f\n",
                  static_cast<long long>(e.tuple_id), e.probability);
    }
  }
  std::printf("timing: PSR %.3f ms, answer derivation %.3f ms\n",
              report->psr_seconds * 1e3, report->query_seconds * 1e3);
  return Status::OK();
}

/// `quality --snapshot`: the base TP ladder is part of the snapshot, so
/// this is a pure read -- no scan, no TP pass.
Status RunQualityFromSnapshot(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("snapshot"));
  const std::string algo = flags.GetString("algo", "tp");
  if (algo != "tp") {
    return Status::InvalidArgument(
        "--snapshot quality requires --algo tp (the snapshot persists the "
        "TP ladder; other algorithms recompute from a database)");
  }
  CLI_ASSIGN_OR_RETURN(exec, BuildSnapshotExec(flags));
  SessionPool::Options options;
  options.exec = exec;
  Result<SessionPool> pool = SessionPool::OpenFromSnapshot(path, options);
  if (!pool.ok()) return pool.status();
  std::printf("PWS-quality (TP, served warm from %s, zero scans):\n",
              path.c_str());
  for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
    std::printf("  k = %zu: %.6f\n", pool->ladder()[rung],
                pool->base_tp(rung).quality);
  }
  return Status::OK();
}

Status RunQuality(const Flags& flags) {
  if (flags.Has("snapshot")) return RunQualityFromSnapshot(flags);
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(scan_options, BuildScanCliOptions(flags));
  const KLadder& ladder = scan_options.ladder;
  const ExecOptions& exec = scan_options.exec;
  const std::string algo = flags.GetString("algo", "tp");
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(path);
  if (!db.ok()) return db.status();
  const size_t kk = ladder.max_k();

  if (algo != "tp" &&
      (flags.Has("k-ladder") || exec.parallel() || flags.Has("kernel"))) {
    return Status::InvalidArgument(
        (flags.Has("k-ladder")
             ? std::string("--k-ladder")
             : (flags.Has("kernel") ? std::string("--kernel")
                                    : std::string("--threads"))) +
        " quality requires --algo tp (the shared-scan pipeline)");
  }
  ScanRequest request;
  request.ladder = ladder;
  request.exec = exec;
  if (flags.Has("k-ladder")) {
    Result<ScanResult> scan = ComputePsrLadder(*db, request);
    if (!scan.ok()) return scan.status();
    Result<std::vector<TpOutput>> tps =
        ComputeTpQualityLadder(*db, scan->outputs, exec);
    if (!tps.ok()) return tps.status();
    std::printf("PWS-quality (TP, one shared scan for k-ladder %s):\n",
                ladder.ToString().c_str());
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      std::printf("  k = %zu: %.6f\n", ladder[rung], (*tps)[rung].quality);
    }
    return Status::OK();
  }

  if (algo == "tp") {
    Result<ScanResult> scan = ComputePsrLadder(*db, request);
    if (!scan.ok()) return scan.status();
    Result<std::vector<TpOutput>> tps =
        ComputeTpQualityLadder(*db, scan->outputs, exec);
    if (!tps.ok()) return tps.status();
    std::printf("PWS-quality (TP): %.6f\n", tps->front().quality);
  } else if (algo == "pwr") {
    PwrOptions options;
    options.collect_results = false;
    Result<PwrOutput> pwr = ComputePwrQuality(*db, kk, options);
    if (!pwr.ok()) return pwr.status();
    std::printf("PWS-quality (PWR): %.6f over %llu pw-results\n",
                pwr->quality,
                static_cast<unsigned long long>(pwr->num_results));
  } else if (algo == "pw") {
    Result<PwOutput> pw = ComputePwQuality(*db, kk);
    if (!pw.ok()) return pw.status();
    std::printf("PWS-quality (PW): %.6f over %zu pw-results (%.3e worlds)\n",
                pw->quality, pw->results.size(), pw->num_worlds);
  } else if (algo == "mc") {
    MonteCarloOptions options;
    CLI_ASSIGN_OR_RETURN(samples, flags.GetInt("samples", 100000));
    CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", 1));
    options.samples = static_cast<uint64_t>(samples);
    options.seed = static_cast<uint64_t>(seed);
    Result<MonteCarloOutput> mc = EstimateQualityMonteCarlo(*db, kk, options);
    if (!mc.ok()) return mc.status();
    std::printf("PWS-quality (MC, %lld samples): %.6f "
                "(%llu distinct results seen)\n",
                static_cast<long long>(samples), mc->quality_estimate,
                static_cast<unsigned long long>(mc->distinct_results));
  } else {
    return Status::InvalidArgument("unknown --algo '" + algo + "'");
  }
  return Status::OK();
}

Result<PlannerKind> ParsePlanner(const std::string& name) {
  if (name == "dp") return PlannerKind::kDp;
  if (name == "greedy") return PlannerKind::kGreedy;
  if (name == "randp") return PlannerKind::kRandP;
  if (name == "randu") return PlannerKind::kRandU;
  return Status::InvalidArgument("unknown --planner '" + name + "'");
}

Status RunPlan(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(db_path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(profile_path, flags.GetString("profile"));
  CLI_ASSIGN_OR_RETURN(k, flags.GetInt("k"));
  CLI_ASSIGN_OR_RETURN(budget, flags.GetInt("budget"));
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", 1));
  CLI_ASSIGN_OR_RETURN(planner, ParsePlanner(flags.GetString("planner", "dp")));
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(db_path);
  if (!db.ok()) return db.status();
  Result<CleaningProfile> profile = ReadProfileCsvFile(profile_path);
  if (!profile.ok()) return profile.status();

  Result<CleaningProblem> problem =
      MakeCleaningProblem(*db, static_cast<size_t>(k), *profile, budget);
  if (!problem.ok()) return problem.status();
  Rng rng(static_cast<uint64_t>(seed));
  Result<CleaningPlan> plan = RunPlanner(planner, *problem, &rng);
  if (!plan.ok()) return plan.status();

  std::printf("%s plan: expected improvement %.6f at cost %lld/%lld, "
              "%zu x-tuples\n",
              PlannerKindName(planner), plan->expected_improvement,
              static_cast<long long>(plan->total_cost),
              static_cast<long long>(budget), plan->num_selected());
  for (size_t l = 0; l < plan->probes.size(); ++l) {
    if (plan->probes[l] > 0) {
      std::printf("  x-tuple %zu: %lld probes (cost %lld each, sc %.3f, "
                  "gain %.6f)\n",
                  l, static_cast<long long>(plan->probes[l]),
                  static_cast<long long>(profile->costs[l]),
                  profile->sc_probs[l], -problem->gain[l]);
    }
  }
  return Status::OK();
}

/// `clean --adaptive --sessions N [--pipeline]`: N concurrent adaptive
/// cleaning sessions over ONE shared scan (SessionPool). The pool is the
/// caller's -- built by a fresh Create for `clean --db`, reconstructed
/// with zero scans for `clean --snapshot`. Each session is
/// an independent analyst running the plan/execute/re-plan loop with the
/// full budget against their own copy-on-write view; the pool amortizes
/// the database copy, PSR scan, checkpoint set and TP pass a dedicated
/// session would pay per analyst. The round loop itself lives in
/// clean/pipeline.h: serial (probe batches drawn inline) by default,
/// overlapped (batches on the --threads executor while the caller keeps
/// planning) with --pipeline -- per-session results are bitwise equal
/// either way. Session 0's merged database is written to --out (the
/// others are what-if runs that close unmaterialized).
Status RunCleanPool(SessionPool* pool, const CleaningProfile& profile,
                    int64_t budget, size_t num_sessions, PlannerKind planner,
                    uint64_t seed, bool pipeline, int64_t probe_latency_us,
                    const FaultOptions& fault, const std::string& out) {
  const ExecOptions& exec = pool->exec();
  const size_t rungs = pool->num_rungs();
  double initial = 0.0;
  for (size_t j = 0; j < rungs; ++j) {
    initial += LadderRungWeight({}, rungs, j) * pool->base_tp(j).quality;
  }

  std::vector<SessionPool::SessionId> ids;
  std::vector<Rng> rngs;
  for (size_t s = 0; s < num_sessions; ++s) {
    ids.push_back(pool->OpenSession());
    rngs.emplace_back(seed + s);
  }

  PipelineOptions pipeline_options;
  pipeline_options.planner = planner;
  pipeline_options.overlap = pipeline;
  pipeline_options.probe.latency =
      std::chrono::microseconds(probe_latency_us);
  pipeline_options.fault = fault;
  if (pipeline) {
    // Honest note: a 1-thread executor has no workers, so SubmitProbes
    // draws inline and the "pipelined" loop is the serial wall clock.
    if (exec.num_threads > 1) {
      std::printf("note: --pipeline overlaps probe batches with planning "
                  "on %zu threads; per-session results are identical to "
                  "the serial pool loop\n",
                  exec.num_threads);
    } else {
      std::printf("note: --pipeline with 1 thread runs probe batches "
                  "inline (no overlap); pass --threads N|auto to overlap "
                  "them with planning\n");
    }
  }
  Result<PipelineReport> report = RunPipelinedCleaning(
      pool, ids, profile, budget, &rngs, pipeline_options);
  if (!report.ok()) return report.status();

  std::printf("session pool: %zu adaptive sessions over one shared scan, "
              "k-ladder %s, initial quality %.6f\n",
              num_sessions, pool->ladder().ToString().c_str(), initial);
  for (size_t s = 0; s < num_sessions; ++s) {
    double final_quality = 0.0;
    for (size_t j = 0; j < rungs; ++j) {
      final_quality +=
          LadderRungWeight({}, rungs, j) * pool->quality(ids[s], j);
    }
    std::printf("  session %zu: spent %lld/%lld (%zu cleans), quality "
                "%.6f -> %.6f\n",
                s, static_cast<long long>(report->sessions[s].spent),
                static_cast<long long>(budget),
                pool->overlay(ids[s]).num_outcomes(), initial, final_quality);
    if (fault.enabled) {
      PrintFaultStats("    ", report->sessions[s].faults);
    }
    if (rungs > 1) {
      for (size_t j = 0; j < rungs; ++j) {
        std::printf("    k = %zu: quality %.6f -> %.6f\n",
                    pool->ladder()[j], pool->base_tp(j).quality,
                    pool->quality(ids[s], j));
      }
    }
  }
  Result<ProbabilisticDatabase> merged = pool->CloseAndMerge(ids[0]);
  if (!merged.ok()) return merged.status();
  return WriteDatabaseCsvFile(*merged, out);
}

/// `clean --snapshot`: warm-starts the serving pool from a snapshot file
/// (zero scans) and runs the pooled adaptive loop against it. The ladder
/// is the snapshot's; the executor, planner, budget and fault knobs are
/// this run's. Sessions saved in the snapshot stay open untouched --
/// the campaign here drives --sessions N freshly opened forks.
Status RunCleanFromSnapshot(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("snapshot"));
  CLI_ASSIGN_OR_RETURN(profile_path, flags.GetString("profile"));
  CLI_ASSIGN_OR_RETURN(out, flags.GetString("out"));
  CLI_ASSIGN_OR_RETURN(budget, flags.GetInt("budget"));
  // Before the snapshot open, the most expensive step of this path.
  if (budget < 0) return Status::InvalidArgument("budget must be >= 0");
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", 1));
  CLI_ASSIGN_OR_RETURN(planner,
                       ParsePlanner(flags.GetString("planner", "greedy")));
  if (!flags.Has("adaptive")) {
    return Status::InvalidArgument(
        "--snapshot cleaning runs the pooled adaptive loop; pass "
        "--adaptive");
  }
  CLI_ASSIGN_OR_RETURN(exec, BuildSnapshotExec(flags));
  CLI_ASSIGN_OR_RETURN(sessions, flags.GetInt("sessions", 1));
  if (sessions < 1) {
    return Status::InvalidArgument("--sessions must be >= 1");
  }
  CLI_ASSIGN_OR_RETURN(probe_latency_us, flags.GetInt("probe-latency-us", 0));
  if (probe_latency_us < 0 || probe_latency_us > 60000000) {
    return Status::InvalidArgument(
        "bad --probe-latency-us '" + flags.GetString("probe-latency-us", "") +
        "': expected microseconds in [0, 60000000]");
  }
  CLI_ASSIGN_OR_RETURN(fault,
                       ParseFaultOptions(flags, static_cast<uint64_t>(seed)));

  Result<CleaningProfile> profile = ReadProfileCsvFile(profile_path);
  if (!profile.ok()) return profile.status();
  SessionPool::Options pool_options;
  pool_options.exec = exec;
  Result<SessionPool> pool = SessionPool::OpenFromSnapshot(path, pool_options);
  if (!pool.ok()) return pool.status();
  std::printf("warm start: pool reconstructed from %s (zero scans)\n",
              path.c_str());
  UCLEAN_RETURN_IF_ERROR(RunCleanPool(
      &*pool, *profile, budget, static_cast<size_t>(sessions), planner,
      static_cast<uint64_t>(seed), flags.Has("pipeline"), probe_latency_us,
      fault, out));
  std::printf("cleaned database written to %s\n", out.c_str());
  return Status::OK();
}

Status RunClean(const Flags& flags) {
  if (flags.Has("snapshot")) return RunCleanFromSnapshot(flags);
  CLI_ASSIGN_OR_RETURN(db_path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(profile_path, flags.GetString("profile"));
  CLI_ASSIGN_OR_RETURN(out, flags.GetString("out"));
  CLI_ASSIGN_OR_RETURN(scan_options, BuildScanCliOptions(flags));
  const KLadder& cli_ladder = scan_options.ladder;
  const ExecOptions& exec = scan_options.exec;
  CLI_ASSIGN_OR_RETURN(budget, flags.GetInt("budget"));
  // Before any input is read: the pooled path would otherwise build its
  // pool (a full scan + TP pass) before the loop refused the budget.
  if (budget < 0) return Status::InvalidArgument("budget must be >= 0");
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", 1));
  CLI_ASSIGN_OR_RETURN(planner,
                       ParsePlanner(flags.GetString("planner", "greedy")));
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(db_path);
  if (!db.ok()) return db.status();
  Result<CleaningProfile> profile = ReadProfileCsvFile(profile_path);
  if (!profile.ok()) return profile.status();
  const size_t kk = cli_ladder.max_k();
  Rng rng(static_cast<uint64_t>(seed));

  CLI_ASSIGN_OR_RETURN(sessions, flags.GetInt("sessions", 1));
  if (sessions < 1) {
    return Status::InvalidArgument("--sessions must be >= 1");
  }
  CLI_ASSIGN_OR_RETURN(probe_latency_us,
                       flags.GetInt("probe-latency-us", 0));
  if (probe_latency_us < 0 || probe_latency_us > 60000000) {
    return Status::InvalidArgument(
        "bad --probe-latency-us '" +
        flags.GetString("probe-latency-us", "") +
        "': expected microseconds in [0, 60000000]");
  }
  const bool pipeline = flags.Has("pipeline");
  const bool pooled = sessions > 1 || pipeline;
  if ((pooled || probe_latency_us > 0) && !flags.Has("adaptive")) {
    return Status::InvalidArgument(
        "--sessions/--pipeline/--probe-latency-us require --adaptive "
        "(pooled cleaning sessions run the adaptive loop)");
  }
  if (probe_latency_us > 0 && !pooled) {
    return Status::InvalidArgument(
        "--probe-latency-us requires the pooled loop (--sessions N "
        "and/or --pipeline)");
  }
  CLI_ASSIGN_OR_RETURN(
      fault, ParseFaultOptions(flags, static_cast<uint64_t>(seed)));
  if (fault.enabled && !flags.Has("adaptive")) {
    return Status::InvalidArgument(
        "--probe-fail-rate/--probe-timeout-us/--retry-max/"
        "--retry-backoff-us/--breaker-threshold require --adaptive (fault "
        "tolerance lives in the adaptive probe loop)");
  }
  if (pooled) {
    SessionPool::Options pool_options;
    pool_options.exec = exec;
    Result<SessionPool> pool = SessionPool::Create(
        ProbabilisticDatabase(*db), cli_ladder, pool_options);
    if (!pool.ok()) return pool.status();
    UCLEAN_RETURN_IF_ERROR(RunCleanPool(
        &*pool, *profile, budget, static_cast<size_t>(sessions), planner,
        static_cast<uint64_t>(seed), pipeline, probe_latency_us, fault, out));
    std::printf("cleaned database written to %s\n", out.c_str());
    return Status::OK();
  }

  if (flags.Has("adaptive")) {
    AdaptiveOptions options;
    options.k = kk;
    if (flags.Has("k-ladder")) options.k_ladder = cli_ladder.ks;
    options.planner = planner;
    options.exec = exec;
    options.fault = fault;
    Result<AdaptiveReport> report =
        RunAdaptiveCleaning(*db, *profile, budget, options, &rng);
    if (!report.ok()) return report.status();
    std::printf("adaptive cleaning: %zu rounds, spent %lld/%lld, quality "
                "%.6f -> %.6f\n",
                report->rounds.size(),
                static_cast<long long>(report->total_spent),
                static_cast<long long>(budget), report->initial_quality,
                report->final_quality);
    if (fault.enabled) PrintFaultStats("  ", report->faults);
    if (report->ladder.size() > 1) {
      for (size_t rung = 0; rung < report->ladder.size(); ++rung) {
        std::printf("  k = %zu: quality %.6f -> %.6f\n",
                    report->ladder[rung],
                    report->initial_quality_per_k[rung],
                    report->final_quality_per_k[rung]);
      }
    }
    UCLEAN_RETURN_IF_ERROR(WriteDatabaseCsvFile(report->final_db, out));
  } else {
    if (flags.Has("k-ladder")) {
      return Status::InvalidArgument(
          "--k-ladder cleaning requires --adaptive (the ladder session)");
    }
    Result<TpOutput> before = ComputeTpQuality(*db, kk);
    if (!before.ok()) return before.status();
    Result<CleaningProblem> problem =
        MakeCleaningProblem(*db, kk, *profile, budget);
    if (!problem.ok()) return problem.status();
    Result<CleaningPlan> plan = RunPlanner(planner, *problem, &rng);
    if (!plan.ok()) return plan.status();
    Result<ExecutionReport> executed =
        ExecutePlan(*db, *profile, plan->probes, &rng);
    if (!executed.ok()) return executed.status();
    Result<TpOutput> after = ComputeTpQuality(executed->cleaned_db, kk);
    if (!after.ok()) return after.status();
    std::printf("one-shot cleaning (%s): %zu successes, spent %lld "
                "(leftover %lld), quality %.6f -> %.6f (predicted %.6f)\n",
                PlannerKindName(planner), executed->successes,
                static_cast<long long>(executed->spent),
                static_cast<long long>(executed->leftover), before->quality,
                after->quality,
                before->quality + plan->expected_improvement);
    UCLEAN_RETURN_IF_ERROR(WriteDatabaseCsvFile(executed->cleaned_db, out));
  }
  std::printf("cleaned database written to %s\n", out.c_str());
  return Status::OK();
}

Status RunTarget(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(db_path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(profile_path, flags.GetString("profile"));
  CLI_ASSIGN_OR_RETURN(k, flags.GetInt("k"));
  CLI_ASSIGN_OR_RETURN(target, flags.GetDouble("target"));
  CLI_ASSIGN_OR_RETURN(max_budget, flags.GetInt("max-budget", 100000));
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(db_path);
  if (!db.ok()) return db.status();
  Result<CleaningProfile> profile = ReadProfileCsvFile(profile_path);
  if (!profile.ok()) return profile.status();

  Result<BudgetSearchReport> report = MinimalBudgetForTarget(
      *db, static_cast<size_t>(k), *profile, target, max_budget);
  if (!report.ok()) return report.status();
  std::printf("current quality: %.6f; target: %.6f\n",
              report->current_quality, target);
  if (report->attainable) {
    std::printf("minimal budget: %lld (expected quality %.6f, %zu x-tuples "
                "probed)\n",
                static_cast<long long>(report->minimal_budget),
                report->expected_quality, report->plan.num_selected());
  } else {
    std::printf("target not attainable within budget %lld "
                "(best expected quality %.6f)\n",
                static_cast<long long>(max_budget),
                report->expected_quality);
  }
  return Status::OK();
}

/// `snapshot save`: builds a serving pool (one shared scan + TP pass),
/// opens --sessions pristine forks, and persists the whole thing.
Status RunSnapshotSave(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(db_path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(out, flags.GetString("out"));
  CLI_ASSIGN_OR_RETURN(scan_options, BuildScanCliOptions(flags));
  CLI_ASSIGN_OR_RETURN(sessions, flags.GetInt("sessions", 0));
  if (sessions < 0 || sessions > 100000) {
    return Status::InvalidArgument(
        "bad --sessions '" + flags.GetString("sessions", "") +
        "': expected a count in [0, 100000]");
  }
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(db_path);
  if (!db.ok()) return db.status();
  SessionPool::Options pool_options;
  pool_options.exec = scan_options.exec;
  Result<SessionPool> pool = SessionPool::Create(
      std::move(*db), scan_options.ladder, pool_options);
  if (!pool.ok()) return pool.status();
  for (int64_t s = 0; s < sessions; ++s) pool->OpenSession();
  UCLEAN_RETURN_IF_ERROR(store::WriteSnapshot(*pool, out));
  Result<store::SnapshotInfo> info = store::InspectSnapshot(out);
  if (!info.ok()) return info.status();
  std::printf("wrote snapshot %s: %llu bytes, %zu sections, k-ladder %s, "
              "%lld open sessions\n",
              out.c_str(), static_cast<unsigned long long>(info->file_size),
              info->sections.size(), pool->ladder().ToString().c_str(),
              static_cast<long long>(sessions));
  return Status::OK();
}

/// `snapshot load`: full warm-start reconstruction plus a summary of
/// what came back -- the smoke test for "can this file serve".
Status RunSnapshotLoad(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("snapshot"));
  CLI_ASSIGN_OR_RETURN(exec, BuildSnapshotExec(flags));
  SessionPool::Options options;
  options.exec = exec;
  Result<store::LoadedSnapshot> loaded = store::ReadSnapshot(path, options);
  if (!loaded.ok()) return loaded.status();
  const SessionPool& pool = loaded->pool;
  const store::SnapshotMeta& meta = loaded->meta;
  std::printf("loaded snapshot %s with zero scans (written by %s, %s "
              "kernel, %llu threads)\n",
              path.c_str(), meta.tool.c_str(), meta.kernel.c_str(),
              static_cast<unsigned long long>(meta.threads));
  std::printf("  %zu x-tuples / %zu tuples, k-ladder %s, %zu open "
              "sessions%s\n",
              pool.base().num_xtuples(), pool.base().num_tuples(),
              pool.ladder().ToString().c_str(), pool.num_open(),
              loaded->has_campaign ? ", paused campaign attached" : "");
  for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
    std::printf("  k = %zu: base quality %.6f\n", pool.ladder()[rung],
                pool.base_tp(rung).quality);
  }
  return Status::OK();
}

/// `snapshot inspect`: container-level report -- verifies every CRC and
/// prints the section table without reconstructing the pool.
Status RunSnapshotInspect(const Flags& flags) {
  CLI_ASSIGN_OR_RETURN(path, flags.GetString("snapshot"));
  Result<store::SnapshotInfo> info = store::InspectSnapshot(path);
  if (!info.ok()) return info.status();
  std::printf("snapshot %s: format v%u, feature flags 0x%x, %llu bytes, "
              "all checksums verified\n",
              path.c_str(), info->format_version, info->feature_flags,
              static_cast<unsigned long long>(info->file_size));
  std::printf("  %-10s %4s %8s %10s %12s %10s\n", "section", "id", "version",
              "offset", "size", "crc");
  for (const store::SectionInfo& s : info->sections) {
    std::printf("  %-10s %4u %8u %10llu %12llu 0x%08x\n", s.name.c_str(),
                s.id, s.version, static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size), s.crc);
  }
  if (info->has_meta) {
    std::printf("  meta: written by %s (%s kernel, %llu threads), %llu "
                "x-tuples / %llu tuples, k-ladder %s, %llu sessions\n",
                info->meta.tool.c_str(), info->meta.kernel.c_str(),
                static_cast<unsigned long long>(info->meta.threads),
                static_cast<unsigned long long>(info->meta.num_xtuples),
                static_cast<unsigned long long>(info->meta.num_tuples),
                LadderToString(info->meta.ladder).c_str(),
                static_cast<unsigned long long>(info->meta.num_sessions));
  }
  return Status::OK();
}

/// Builds the warm pool `serve` fronts: a fresh Create (one shared scan)
/// for --db, an OpenFromSnapshot warm start (zero scans) for --snapshot.
Result<SessionPool> BuildServePool(const Flags& flags) {
  SessionPool::Options pool_options;
  if (flags.Has("snapshot")) {
    CLI_ASSIGN_OR_RETURN(path, flags.GetString("snapshot"));
    CLI_ASSIGN_OR_RETURN(exec, BuildSnapshotExec(flags));
    pool_options.exec = std::move(exec);
    Result<SessionPool> pool = SessionPool::OpenFromSnapshot(path,
                                                             pool_options);
    if (pool.ok()) {
      std::fprintf(stderr, "serve: pool warm-started from %s (zero scans)\n",
                   path.c_str());
    }
    return pool;
  }
  CLI_ASSIGN_OR_RETURN(db_path, flags.GetString("db"));
  CLI_ASSIGN_OR_RETURN(scan_options, BuildScanCliOptions(flags));
  Result<ProbabilisticDatabase> db = ReadDatabaseCsvFile(db_path);
  if (!db.ok()) return db.status();
  pool_options.exec = scan_options.exec;
  return SessionPool::Create(std::move(*db), scan_options.ladder,
                             pool_options);
}

/// `serve`: the persistent serving loop. stdin/stdout become one
/// protocol connection (serve/protocol.h) on the LineServer; the
/// admission batcher and cost model live in serve/frontend.h. Tests and
/// the traffic-replay bench drive the same server over socketpairs.
/// Protocol replies go to stdout; the banner goes to stderr so a piped
/// client sees only notes and reply lines.
Status RunServe(const Flags& flags) {
  serve::FrontendOptions options;
  CLI_ASSIGN_OR_RETURN(seed, flags.GetInt("seed", 2026));
  options.seed = static_cast<uint64_t>(seed);
  CLI_ASSIGN_OR_RETURN(max_batch, flags.GetInt("max-batch", 64));
  if (max_batch < 1 || max_batch > 1000000) {
    return Status::InvalidArgument(
        "bad --max-batch '" + flags.GetString("max-batch", "") +
        "': expected a batch bound in [1, 1000000]");
  }
  options.max_batch = static_cast<size_t>(max_batch);
  const std::string batch = flags.GetString("batch", "on");
  if (batch == "off") {
    options.batching = false;
  } else if (batch != "on") {
    return Status::InvalidArgument("bad --batch '" + batch +
                                   "': expected on or off");
  }
  const std::string plan = flags.GetString("plan", "auto");
  if (plan != "auto") {
    CLI_ASSIGN_OR_RETURN(kind, serve::ParsePlanKind(plan));
    options.forced_plan = kind;
    std::printf("note: --plan %s pins every query to the %s strategy "
                "(answers are bitwise identical under every plan)\n",
                plan.c_str(), serve::PlanKindName(kind));
  }
  const std::string calibrate = flags.GetString("calibrate", "on");
  if (calibrate != "on" && calibrate != "off") {
    return Status::InvalidArgument("bad --calibrate '" + calibrate +
                                   "': expected on or off");
  }
  std::optional<CleaningProfile> profile;
  if (flags.Has("profile")) {
    CLI_ASSIGN_OR_RETURN(path, flags.GetString("profile"));
    Result<CleaningProfile> read = ReadProfileCsvFile(path);
    if (!read.ok()) return read.status();
    profile = std::move(*read);
  }
  CLI_ASSIGN_OR_RETURN(pool, BuildServePool(flags));
  if (calibrate == "on") {
    options.cost = serve::CostModel::Measure(pool.base());
  }
  CLI_ASSIGN_OR_RETURN(frontend, serve::Frontend::Create(
                                     std::move(pool), std::move(profile),
                                     options));
  serve::LineServer server(&frontend, serve::ServerOptions{});
  Result<size_t> conn = server.AddClient(0, 1);  // stdin -> stdout
  if (!conn.ok()) return conn.status();
  std::fprintf(stderr,
               "serve: %zu tuples, k-ladder %s, batching %s, plan %s; one "
               "request per line (topk/quality/clean/stats), EOF ends the "
               "session\n",
               frontend.pool().base().num_tuples(),
               frontend.pool().ladder().ToString().c_str(),
               options.batching ? "on" : "off",
               options.forced_plan ? serve::PlanKindName(*options.forced_plan)
                                   : "auto");
  // The flag notes above are buffered stdio on the same fd the server
  // writes raw reply lines to: flush so they precede the first reply.
  std::fflush(stdout);
  return server.Run();
}

/// Dispatches `snapshot <action> --flags`: the one command with a
/// positional action word, so it parses its own argv tail.
Status RunSnapshot(int argc, char** argv) {
  if (argc < 3) {
    return Status::InvalidArgument(
        "snapshot needs an action: save, load or inspect");
  }
  const std::string action = argv[2];
  Result<Flags> flags = Flags::Parse(argc, argv, 3);
  if (!flags.ok()) return flags.status();
  if (action == "save") return RunSnapshotSave(*flags);
  if (action == "load") return RunSnapshotLoad(*flags);
  if (action == "inspect") return RunSnapshotInspect(*flags);
  return Status::InvalidArgument("unknown snapshot action '" + action +
                                 "' (expected save, load or inspect)");
}

int Main(int argc, char** argv) {
  if (argc < 2 || std::string_view(argv[1]) == "help" ||
      std::string_view(argv[1]) == "--help") {
    std::printf("%s", kUsage);
    return argc < 2 ? 1 : 0;
  }
  const std::string command = argv[1];
  if (command == "snapshot") {
    // `snapshot` takes a positional action word before its flags.
    const Status status = RunSnapshot(argc, argv);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return status.code() == StatusCode::kDataLoss ? 3 : 1;
    }
    return 0;
  }
  Result<Flags> flags = Flags::Parse(argc, argv, 2);
  Status status = Status::OK();
  if (!flags.ok()) {
    status = flags.status();
  } else if (command == "generate") {
    status = RunGenerate(*flags);
  } else if (command == "profile") {
    status = RunProfile(*flags);
  } else if (command == "inspect") {
    status = RunInspect(*flags);
  } else if (command == "query") {
    status = RunQuery(*flags);
  } else if (command == "quality") {
    status = RunQuality(*flags);
  } else if (command == "plan") {
    status = RunPlan(*flags);
  } else if (command == "clean") {
    status = RunClean(*flags);
  } else if (command == "target") {
    status = RunTarget(*flags);
  } else if (command == "serve") {
    status = RunServe(*flags);
  } else {
    std::fprintf(stderr, "unknown command '%s'\n\n%s", command.c_str(),
                 kUsage);
    return 1;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    // Data loss (corrupt/truncated/version-mismatched snapshot) gets its
    // own exit code so scripts and CI can tell "bad file" from "bad
    // flags" without scraping stderr.
    return status.code() == StatusCode::kDataLoss ? 3 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace uclean

int main(int argc, char** argv) { return uclean::Main(argc, argv); }
