// Measures the incremental cleaning engine (a one-session SessionPool:
// copy-on-write overlay + checkpointed PSR suffix replay + delta TP, the
// loop RunAdaptiveCleaning runs) against the
// historical from-scratch round loop (deep copy, DatabaseBuilder rebuild,
// and two full PSR+TP passes per round -- one to plan, one to report
// quality), on multi-round adaptive sessions over the paper's default
// synthetic workload. Both arms consume identical random streams and plan
// with the same greedy planner, so they execute identical probe sequences
// and must land on identical qualities; the bench asserts that.
//
// Output: a per-round table on stdout and a machine-readable
// BENCH_incremental.json (per-round timings, totals, speedups) so the
// perf trajectory is tracked across PRs. Acceptance target: >= 5x
// end-to-end on the 10-round k=50 default session.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "clean/agent.h"
#include "clean/planners.h"
#include "clean/session_pool.h"
#include "common/stopwatch.h"
#include "quality/tp.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr uint64_t kAgentSeed = 4242;

struct ArmResult {
  std::vector<double> round_ms;
  double total_ms = 0.0;
  double final_quality = 0.0;
  std::vector<double> round_quality;
};

/// The seed's agent: plan execution through the validating builder
/// round-trip (kept here as the from-scratch baseline).
Result<ProbabilisticDatabase> ExecutePlanRebuild(
    const ProbabilisticDatabase& db, const CleaningProfile& profile,
    const std::vector<int64_t>& probes, Rng* rng) {
  DatabaseBuilder builder = DatabaseBuilder::FromDatabase(db);
  for (size_t l = 0; l < probes.size(); ++l) {
    if (probes[l] <= 0) continue;
    bool success = false;
    for (int64_t attempt = 0; attempt < probes[l]; ++attempt) {
      if (rng->Bernoulli(profile.sc_probs[l])) {
        success = true;
        break;
      }
    }
    if (!success) continue;
    const auto& members = db.xtuple_members(static_cast<XTupleId>(l));
    std::vector<double> weights;
    weights.reserve(members.size());
    for (int32_t idx : members) weights.push_back(db.tuple(idx).prob);
    const Tuple& revealed = db.tuple(members[rng->Discrete(weights)]);
    UCLEAN_RETURN_IF_ERROR(builder.ReplaceWithCertain(
        static_cast<XTupleId>(l), revealed.is_null ? nullptr : &revealed));
  }
  return std::move(builder).Finish();
}

/// From-scratch arm: the seed's per-round loop (copy + rebuild + two full
/// PSR/TP passes).
Result<ArmResult> RunScratch(const ProbabilisticDatabase& db,
                             const CleaningProfile& profile, size_t k,
                             size_t rounds, int64_t round_budget) {
  ArmResult arm;
  Rng rng(kAgentSeed);
  Stopwatch total;
  ProbabilisticDatabase current = db;  // the historical deep copy
  for (size_t r = 0; r < rounds; ++r) {
    Stopwatch round;
    Result<CleaningProblem> problem =
        MakeCleaningProblem(current, k, profile, round_budget);
    if (!problem.ok()) return problem.status();
    Result<CleaningPlan> plan = PlanGreedy(*problem);
    if (!plan.ok()) return plan.status();
    if (plan->total_cost == 0 || plan->expected_improvement <= 0.0) break;
    Result<ProbabilisticDatabase> cleaned =
        ExecutePlanRebuild(current, profile, plan->probes, &rng);
    if (!cleaned.ok()) return cleaned.status();
    current = std::move(cleaned).value();
    Result<TpOutput> quality = ComputeTpQuality(current, k);
    if (!quality.ok()) return quality.status();
    arm.round_ms.push_back(round.ElapsedMillis());
    arm.round_quality.push_back(quality->quality);
    arm.final_quality = quality->quality;
  }
  arm.total_ms = total.ElapsedMillis();
  return arm;
}

/// Incremental arm: the one-session pool loop (one partial PSR replay +
/// delta TP per round).
Result<ArmResult> RunIncremental(const ProbabilisticDatabase& db,
                                 const CleaningProfile& profile, size_t k,
                                 size_t rounds, int64_t round_budget) {
  ArmResult arm;
  Rng rng(kAgentSeed);
  // The copy the pool takes over is made before the clock starts: its
  // cost tracks the heap state the previous arm left, not this loop.
  ProbabilisticDatabase copy(db);
  Stopwatch total;
  Result<KLadder> ladder = KLadder::Of({k});
  if (!ladder.ok()) return ladder.status();
  Result<bench::OneSessionPool> session =
      bench::OpenOneSessionPool(std::move(copy), *ladder);
  if (!session.ok()) return session.status();
  SessionPool& pool = session->pool;
  const SessionPool::SessionId id = session->id;
  for (size_t r = 0; r < rounds; ++r) {
    Stopwatch round;
    Result<CleaningProblem> problem =
        MakeCleaningProblem(pool.tp(id), profile, round_budget);
    if (!problem.ok()) return problem.status();
    Result<CleaningPlan> plan = PlanGreedy(*problem);
    if (!plan.ok()) return plan.status();
    if (plan->total_cost == 0 || plan->expected_improvement <= 0.0) break;
    Result<SessionExecutionReport> executed =
        ExecutePlan(&pool, id, profile, plan->probes, &rng);
    if (!executed.ok()) return executed.status();
    UCLEAN_RETURN_IF_ERROR(pool.Refresh(id));
    arm.round_ms.push_back(round.ElapsedMillis());
    arm.round_quality.push_back(pool.quality(id));
    arm.final_quality = pool.quality(id);
  }
  arm.total_ms = total.ElapsedMillis();
  return arm;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.6g", values[i]);
    if (i > 0) out += ", ";
    out += buf;
  }
  return out + "]";
}

struct Series {
  size_t k;
  size_t rounds;
  int64_t round_budget;
  ArmResult scratch;
  ArmResult incremental;
  double speedup;
};

}  // namespace
}  // namespace uclean

int main() {
  using namespace uclean;

  SyntheticOptions synthetic;  // paper default: 5K x-tuples x 10 tuples
  Result<ProbabilisticDatabase> db = GenerateSynthetic(synthetic);
  if (!db.ok()) {
    std::printf("generation failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Result<CleaningProfile> profile = GenerateCleaningProfile(db->num_xtuples());
  if (!profile.ok()) {
    std::printf("profile generation failed: %s\n",
                profile.status().ToString().c_str());
    return 1;
  }

  bench::Banner("Incremental engine",
                "per-round adaptive-session time (ms): from-scratch "
                "copy-rebuild-rescan loop vs a one-session pool "
                "(synthetic default, greedy planner)");
  bench::Header("k,rounds,round,scratch_ms,incremental_ms,quality");

  std::vector<Series> all;
  bool ok = true;
  for (const size_t k : {15u, 50u}) {
    for (const size_t rounds : {5u, 10u}) {
      Series series;
      series.k = k;
      series.rounds = rounds;
      series.round_budget = 400;
      Result<ArmResult> scratch =
          RunScratch(*db, *profile, k, rounds, series.round_budget);
      Result<ArmResult> incremental =
          RunIncremental(*db, *profile, k, rounds, series.round_budget);
      if (!scratch.ok() || !incremental.ok()) {
        std::printf("arm failed: %s / %s\n",
                    scratch.status().ToString().c_str(),
                    incremental.status().ToString().c_str());
        return 1;
      }
      series.scratch = std::move(scratch).value();
      series.incremental = std::move(incremental).value();
      series.speedup = series.incremental.total_ms > 0.0
                           ? series.scratch.total_ms /
                                 series.incremental.total_ms
                           : 0.0;

      // Both arms execute identical probe sequences; their round counts
      // and realized qualities must agree or the comparison is
      // meaningless.
      const size_t executed = series.scratch.round_quality.size();
      if (series.incremental.round_quality.size() != executed) {
        std::printf("MISMATCH at k=%zu: scratch ran %zu rounds, incremental "
                    "%zu\n",
                    k, executed, series.incremental.round_quality.size());
        ok = false;
        continue;
      }
      for (size_t r = 0; r < executed; ++r) {
        const double diff = series.scratch.round_quality[r] -
                            series.incremental.round_quality[r];
        if (diff > 1e-9 || diff < -1e-9) {
          std::printf("MISMATCH at k=%zu round %zu: %.12f vs %.12f\n", k, r,
                      series.scratch.round_quality[r],
                      series.incremental.round_quality[r]);
          ok = false;
        }
        std::printf("%zu,%zu,%zu,%.4f,%.4f,%.6f\n", k, rounds, r + 1,
                    series.scratch.round_ms[r], series.incremental.round_ms[r],
                    series.incremental.round_quality[r]);
      }
      std::printf("# k=%zu rounds=%zu: scratch %.2f ms, incremental %.2f ms, "
                  "speedup %.2fx\n",
                  k, rounds, series.scratch.total_ms,
                  series.incremental.total_ms, series.speedup);
      all.push_back(std::move(series));
    }
  }

  // Machine-readable trajectory record.
  std::FILE* json = std::fopen("BENCH_incremental.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_incremental.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"incremental\",\n");
  std::fprintf(json, "  \"kernel\": \"%s\", \"threads\": 1,\n",
               bench::ResolvedKernelName());
  std::fprintf(json,
               "  \"workload\": {\"num_xtuples\": %zu, \"tuples_per_xtuple\": "
               "%zu, \"planner\": \"greedy\", \"agent_seed\": %llu},\n",
               synthetic.num_xtuples, synthetic.tuples_per_xtuple,
               static_cast<unsigned long long>(kAgentSeed));
  std::fprintf(json, "  \"series\": [\n");
  for (size_t s = 0; s < all.size(); ++s) {
    const Series& x = all[s];
    std::fprintf(json, "    {\"k\": %zu, \"rounds\": %zu, ", x.k, x.rounds);
    std::fprintf(json, "\"round_budget\": %lld,\n",
                 static_cast<long long>(x.round_budget));
    std::fprintf(json, "     \"scratch_round_ms\": %s,\n",
                 JsonArray(x.scratch.round_ms).c_str());
    std::fprintf(json, "     \"incremental_round_ms\": %s,\n",
                 JsonArray(x.incremental.round_ms).c_str());
    std::fprintf(json, "     \"round_quality\": %s,\n",
                 JsonArray(x.incremental.round_quality).c_str());
    std::fprintf(json,
                 "     \"scratch_total_ms\": %.4f, \"incremental_total_ms\": "
                 "%.4f, \"speedup\": %.4f, \"final_quality\": %.9f}%s\n",
                 x.scratch.total_ms, x.incremental.total_ms, x.speedup,
                 x.incremental.final_quality, s + 1 < all.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote BENCH_incremental.json\n");
  return ok ? 0 : 1;
}
