#include "clean/adaptive.h"

#include <optional>
#include <utility>

#include "clean/fault.h"
#include "clean/session_pool.h"
#include "quality/tp.h"

namespace uclean {

namespace {

/// The planning-objective quality: the same weighted aggregate of per-rung
/// qualities the planner optimizes (LadderRungWeight is the single shared
/// weight definition), so predicted improvements and realized quality
/// deltas are directly comparable. Reduces to the plain quality for
/// single-k runs under uniform weights.
double AggregateQuality(const SessionPool& pool, SessionPool::SessionId id,
                        const std::vector<double>& weights) {
  const size_t rungs = pool.num_rungs();
  double total = 0.0;
  for (size_t j = 0; j < rungs; ++j) {
    total += LadderRungWeight(weights, rungs, j) * pool.quality(id, j);
  }
  return total;
}

void FillPerRung(const SessionPool& pool, SessionPool::SessionId id,
                 std::vector<double>* out) {
  out->clear();
  for (size_t j = 0; j < pool.num_rungs(); ++j) {
    out->push_back(pool.quality(id, j));
  }
}

}  // namespace

Result<AdaptiveReport> RunAdaptiveCleaning(ProbabilisticDatabase db,
                                           const CleaningProfile& profile,
                                           int64_t budget,
                                           const AdaptiveOptions& options,
                                           Rng* rng) {
  if (budget < 0) return Status::InvalidArgument("budget must be >= 0");
  UCLEAN_RETURN_IF_ERROR(profile.Validate(db.num_xtuples()));

  Result<KLadder> ladder = KLadder::Of(
      options.k_ladder.empty() ? std::vector<size_t>{options.k}
                               : options.k_ladder);
  if (!ladder.ok()) return ladder.status();
  if (!options.plan_weights.empty()) {
    // Weights bind positionally to the NORMALIZED (ascending, deduped)
    // ladder; reject input Of() had to reorder or shrink, where the
    // caller's positional intent would silently land on the wrong rungs.
    if (!options.k_ladder.empty() && options.k_ladder != ladder->ks) {
      return Status::InvalidArgument(
          "plan weights require a strictly ascending k-ladder (weights "
          "bind by position; ladder " +
          ladder->ToString() + " was reordered from the input)");
    }
    if (options.plan_weights.size() != ladder->size()) {
      return Status::InvalidArgument(
          "plan weights must match the k-ladder length");
    }
  }

  std::optional<FaultInjector> injector;
  ProbeOptions probe_options;
  if (options.fault.enabled) {
    UCLEAN_RETURN_IF_ERROR(options.fault.Validate());
    injector.emplace(options.fault);
    probe_options.fault = &*injector;
  }

  SessionPool::Options pool_options;
  pool_options.exec = options.exec;
  Result<SessionPool> pool =
      SessionPool::Create(std::move(db), *ladder, pool_options);
  if (!pool.ok()) return pool.status();
  const SessionPool::SessionId id = pool->OpenSession();

  AdaptiveReport report;
  report.ladder = ladder->ks;
  report.initial_quality = AggregateQuality(*pool, id, options.plan_weights);
  report.final_quality = report.initial_quality;
  FillPerRung(*pool, id, &report.initial_quality_per_k);
  report.final_quality_per_k = report.initial_quality_per_k;

  int64_t remaining = budget;
  for (size_t round = 0; round < options.max_rounds && remaining > 0;
       ++round) {
    // The session's TP state serves double duty: it is this round's
    // planning table AND the previous round's quality report, so the
    // whole round performs at most one (partial) PSR pass however many
    // rungs the ladder has.
    Result<CleaningProblem> problem = MakeCleaningProblem(
        pool->tps(id), options.plan_weights, profile, remaining);
    if (!problem.ok()) return problem.status();
    // Degradation: sources with an open breaker cannot answer this round,
    // so their gain is masked and the planner reinvests the budget in the
    // members that can still improve the query.
    MaskUnavailableSources(probe_options.fault, &*problem);
    Result<CleaningPlan> plan =
        RunPlanner(options.planner, *problem, rng, options.dp_options);
    if (!plan.ok()) return plan.status();
    if (plan->total_cost == 0 || plan->expected_improvement <= 0.0) {
      // Nothing probeable right now. If that is only because breakers are
      // cooling down, wait one cooldown out (simulated) and re-plan; with
      // no blocked sources the campaign is genuinely done.
      if (injector && injector->num_open_sources() > 0) {
        injector->AdvanceClock(options.fault.breaker.cooldown_us);
        continue;
      }
      break;
    }

    Result<SessionExecutionReport> executed =
        ExecutePlan(&*pool, id, profile, plan->probes, rng, probe_options);
    if (!executed.ok()) return executed.status();
    // A round that spent nothing AND had nothing blocked by faults made no
    // progress and never will; a blocked round keeps going -- its budget
    // is still unspent and the blocked sources may recover.
    if (executed->spent == 0 && executed->faults.BlockedProbes() == 0) break;

    UCLEAN_RETURN_IF_ERROR(pool->Refresh(id));
    remaining -= executed->spent;
    report.total_spent += executed->spent;
    report.final_quality = AggregateQuality(*pool, id, options.plan_weights);
    FillPerRung(*pool, id, &report.final_quality_per_k);

    AdaptiveRound summary;
    summary.budget_before = remaining + executed->spent;
    summary.predicted_improvement = plan->expected_improvement;
    summary.spent = executed->spent;
    summary.successes = executed->successes;
    summary.quality_after = report.final_quality;
    summary.quality_after_per_k = report.final_quality_per_k;
    summary.faults = executed->faults;
    report.faults += executed->faults;
    report.rounds.push_back(summary);
  }
  Result<ProbabilisticDatabase> final_db = pool->CloseAndMerge(id);
  if (!final_db.ok()) return final_db.status();
  report.final_db = std::move(final_db).value();
  return report;
}

}  // namespace uclean
