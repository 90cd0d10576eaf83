// Tests for the cleaning agent: execution semantics (stop on success,
// budget accounting, outcome sampling) and the Monte-Carlo integration test
// that the realized quality improvement matches the Theorem-2 prediction.

#include "clean/agent.h"

#include <gtest/gtest.h>

#include "clean/planners.h"
#include "common/rng.h"
#include "model/paper_example.h"
#include "quality/tp.h"
#include "tests/test_util.h"

namespace uclean {
namespace {

CleaningProfile UniformProfile(size_t m, int64_t cost, double sc) {
  CleaningProfile profile;
  profile.costs.assign(m, cost);
  profile.sc_probs.assign(m, sc);
  return profile;
}

TEST(Agent, ValidatesInputs) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 1, 0.5);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  Rng rng(1);
  EXPECT_FALSE(ExecutePlan(db, profile, probes, nullptr).ok());
  std::vector<int64_t> short_probes(2, 0);
  EXPECT_FALSE(ExecutePlan(db, profile, short_probes, &rng).ok());
  CleaningProfile bad = UniformProfile(2, 1, 0.5);
  EXPECT_FALSE(ExecutePlan(db, bad, probes, &rng).ok());
}

TEST(Agent, NoProbesNoChange) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 1, 0.5);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  Rng rng(2);
  Result<ExecutionReport> report = ExecutePlan(db, profile, probes, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->spent, 0);
  EXPECT_EQ(report->successes, 0u);
  EXPECT_EQ(report->cleaned_db.num_tuples(), db.num_tuples());
}

TEST(Agent, CertainSuccessCollapsesXTuple) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 3, 1.0);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  probes[2] = 5;  // S3, sc-probability 1: first probe must succeed
  Rng rng(3);
  Result<ExecutionReport> report = ExecutePlan(db, profile, probes, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->successes, 1u);
  EXPECT_EQ(report->spent, 3);          // one probe, cost 3
  EXPECT_EQ(report->leftover, 4 * 3);   // four skipped probes
  ASSERT_EQ(report->log.size(), 1u);
  EXPECT_TRUE(report->log[0].success);
  EXPECT_EQ(report->log[0].attempts, 1);
  EXPECT_EQ(report->cleaned_db.xtuple_members(2).size(), 1u);
}

TEST(Agent, ZeroScProbabilityNeverSucceeds) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 2, 0.0);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  probes[0] = 4;
  Rng rng(4);
  Result<ExecutionReport> report = ExecutePlan(db, profile, probes, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->successes, 0u);
  EXPECT_EQ(report->spent, 8);  // all four probes paid, all failed
  EXPECT_EQ(report->leftover, 0);
  EXPECT_EQ(report->cleaned_db.xtuple_members(0).size(),
            db.xtuple_members(0).size());
}

TEST(Agent, SuccessRateMatchesScProbability) {
  ProbabilisticDatabase db = MakeUdb1();
  const double sc = 0.3;
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 1, sc);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  probes[1] = 1;  // single probe of S2
  int successes = 0;
  const int trials = 5000;
  Rng rng(5);
  for (int t = 0; t < trials; ++t) {
    Result<ExecutionReport> report = ExecutePlan(db, profile, probes, &rng);
    ASSERT_TRUE(report.ok());
    successes += static_cast<int>(report->successes);
  }
  EXPECT_NEAR(static_cast<double>(successes) / trials, sc, 0.02);
}

TEST(Agent, RevealedValueFollowsExistentialDistribution) {
  // S1 = {t0: 0.6, t1: 0.4}; over many successful cleans, t0 should be
  // revealed ~60% of the time.
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 1, 1.0);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  probes[0] = 1;
  int t0_revealed = 0;
  const int trials = 5000;
  Rng rng(6);
  for (int t = 0; t < trials; ++t) {
    Result<ExecutionReport> report = ExecutePlan(db, profile, probes, &rng);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->log.size(), 1u);
    if (report->log[0].resolved_id == 0) ++t0_revealed;
  }
  EXPECT_NEAR(static_cast<double>(t0_revealed) / trials, 0.6, 0.02);
}

TEST(Agent, NullOutcomePossibleForSubUnitMass) {
  DatabaseBuilder b;
  XTupleId x = b.AddXTuple();
  ASSERT_TRUE(b.AddAlternative(x, 0, 5.0, 0.2).ok());  // null mass 0.8
  XTupleId y = b.AddXTuple();
  ASSERT_TRUE(b.AddAlternative(y, 1, 3.0, 1.0).ok());
  Result<ProbabilisticDatabase> db = std::move(b).Finish();
  ASSERT_TRUE(db.ok());
  CleaningProfile profile = UniformProfile(2, 1, 1.0);
  std::vector<int64_t> probes = {1, 0};
  int null_outcomes = 0;
  const int trials = 3000;
  Rng rng(7);
  for (int t = 0; t < trials; ++t) {
    Result<ExecutionReport> report = ExecutePlan(*db, profile, probes, &rng);
    ASSERT_TRUE(report.ok());
    if (report->log[0].resolved_id < 0) ++null_outcomes;
  }
  EXPECT_NEAR(static_cast<double>(null_outcomes) / trials, 0.8, 0.03);
}

// ---------------------------------------------------------------- faults
// The fault layer's two contracts (clean/fault.h): at rate 0 it is
// bitwise invisible, and at any rate it is deterministic -- equal seeds
// replay the exact same faults, retries and outcomes on every overload.

FaultOptions TransientFaults(double fail_rate) {
  FaultOptions fault;
  fault.enabled = true;
  fault.profile.fail_rate = fail_rate;
  fault.profile.timeout_share = 0.0;
  fault.seed = 99;
  return fault;
}

TEST(AgentFaults, Rate0IsBitwiseInvisibleAndDrawsNothing) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 2, 0.5);
  std::vector<int64_t> probes(db.num_xtuples(), 3);

  Rng plain_rng(11);
  Result<ExecutionReport> plain = ExecutePlan(db, profile, probes, &plain_rng);
  ASSERT_TRUE(plain.ok());

  FaultInjector injector(TransientFaults(0.0));
  const FaultInjector fresh(TransientFaults(0.0));
  ProbeOptions options;
  options.fault = &injector;
  Rng faulted_rng(11);
  Result<ExecutionReport> faulted =
      ExecutePlan(db, profile, probes, &faulted_rng, options);
  ASSERT_TRUE(faulted.ok());

  EXPECT_EQ(plain->spent, faulted->spent);
  EXPECT_EQ(plain->leftover, faulted->leftover);
  EXPECT_EQ(plain->successes, faulted->successes);
  EXPECT_TRUE(plain->log == faulted->log);
  EXPECT_TRUE(faulted->faults == FaultStats());
  // The probe streams stayed in lockstep...
  EXPECT_TRUE(plain_rng.engine() == faulted_rng.engine());
  // ...and the fault stream was never consulted: zero-probability draws
  // never consume the engine.
  EXPECT_TRUE(injector.engine() == fresh.engine());
}

TEST(AgentFaults, EqualSeedsReplayIdenticalFaultsAcrossOverloads) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 1, 0.4);
  std::vector<int64_t> probes(db.num_xtuples(), 4);

  ExecutionReport runs[2];
  for (int r = 0; r < 2; ++r) {
    FaultInjector injector(TransientFaults(0.3));
    ProbeOptions options;
    options.fault = &injector;
    Rng rng(17);
    Result<ExecutionReport> report =
        ExecutePlan(db, profile, probes, &rng, options);
    ASSERT_TRUE(report.ok());
    runs[r] = std::move(report).value();
  }
  EXPECT_TRUE(runs[0].log == runs[1].log);
  EXPECT_TRUE(runs[0].faults == runs[1].faults);
  EXPECT_EQ(runs[0].spent, runs[1].spent);

  // Pooled-session overload: same seeds, same faults, same outcomes.
  Result<KLadder> ladder = KLadder::Of({2});
  ASSERT_TRUE(ladder.ok());
  Result<SessionPool> pool = SessionPool::Create(db, *ladder);
  ASSERT_TRUE(pool.ok());
  SessionPool::SessionId id = pool->OpenSession();
  FaultInjector injector(TransientFaults(0.3));
  ProbeOptions options;
  options.fault = &injector;
  Rng rng(17);
  Result<SessionExecutionReport> pooled =
      ExecutePlan(&*pool, id, profile, probes, &rng, options);
  ASSERT_TRUE(pooled.ok());
  EXPECT_TRUE(pooled->log == runs[0].log);
  EXPECT_TRUE(pooled->faults == runs[0].faults);
  EXPECT_EQ(pooled->spent, runs[0].spent);
}

TEST(AgentFaults, ExhaustedRetriesSpendNothing) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 2, 1.0);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  probes[1] = 3;

  FaultOptions fault = TransientFaults(1.0);  // every attempt faults
  fault.retry.max_attempts = 2;
  fault.breaker.threshold = 100;  // keep the breaker out of this test
  FaultInjector injector(fault);
  ProbeOptions options;
  options.fault = &injector;
  Rng rng(23);
  Result<ExecutionReport> report =
      ExecutePlan(db, profile, probes, &rng, options);
  ASSERT_TRUE(report.ok());

  EXPECT_EQ(report->spent, 0);
  EXPECT_EQ(report->leftover, 3 * 2);  // the whole plan cost, reinvestable
  EXPECT_EQ(report->successes, 0u);
  ASSERT_EQ(report->log.size(), 1u);
  EXPECT_EQ(report->log[0].failures, 3);
  EXPECT_EQ(report->log[0].retries, 3);  // one retry per planned probe
  EXPECT_EQ(report->log[0].last_error, StatusCode::kUnavailable);
  EXPECT_EQ(report->faults.transient, 6);
  EXPECT_EQ(report->faults.failed_probes, 3);
  EXPECT_EQ(report->faults.budget_unspent, 3 * 2);
}

TEST(AgentFaults, BreakerTripsAndSkipsTheRemainder) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 1, 1.0);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  probes[0] = 5;

  FaultOptions fault = TransientFaults(1.0);
  fault.retry.max_attempts = 1;
  fault.breaker.threshold = 2;
  FaultInjector injector(fault);
  ProbeOptions options;
  options.fault = &injector;
  Rng rng(29);
  Result<ExecutionReport> report =
      ExecutePlan(db, profile, probes, &rng, options);
  ASSERT_TRUE(report.ok());

  // Two failed probes trip the breaker; the remaining three are skipped.
  EXPECT_EQ(report->faults.failed_probes, 2);
  EXPECT_EQ(report->faults.breaker_skips, 3);
  EXPECT_EQ(report->faults.budget_unspent, 5);
  EXPECT_EQ(report->log[0].last_error, StatusCode::kUnavailable);
  EXPECT_EQ(injector.breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(injector.num_open_sources(), 1u);
  EXPECT_TRUE(injector.ever_opened());
}

TEST(AgentFaults, BreakerHalfOpenTrialClosesOnSuccessReopensOnFailure) {
  FaultOptions fault = TransientFaults(0.0);
  fault.breaker.threshold = 2;
  fault.breaker.cooldown_us = 100;
  FaultInjector injector(fault);

  injector.RecordProbeOutcome(7, false);
  EXPECT_EQ(injector.breaker_state(7), BreakerState::kClosed);
  injector.RecordProbeOutcome(7, false);
  EXPECT_EQ(injector.breaker_state(7), BreakerState::kOpen);
  EXPECT_FALSE(injector.AdmitProbe(7));
  EXPECT_FALSE(injector.SourceAvailable(7));

  // Cooldown elapses: the next admission is the half-open trial.
  injector.AdvanceClock(100);
  EXPECT_TRUE(injector.SourceAvailable(7));
  EXPECT_TRUE(injector.AdmitProbe(7));
  EXPECT_EQ(injector.breaker_state(7), BreakerState::kHalfOpen);

  // A failed trial reopens immediately (no threshold accumulation)...
  injector.RecordProbeOutcome(7, false);
  EXPECT_EQ(injector.breaker_state(7), BreakerState::kOpen);

  // ...and a successful one closes for good.
  injector.AdvanceClock(100);
  EXPECT_TRUE(injector.AdmitProbe(7));
  injector.RecordProbeOutcome(7, true);
  EXPECT_EQ(injector.breaker_state(7), BreakerState::kClosed);
  EXPECT_EQ(injector.num_open_sources(), 0u);
}

TEST(AgentFaults, PlanDeadlineAbandonsRemainingProbes) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 1, 1.0);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  probes[2] = 4;

  FaultOptions fault = TransientFaults(1.0);
  fault.profile.timeout_share = 1.0;  // every fault burns the deadline
  fault.retry.max_attempts = 1;
  fault.retry.probe_deadline_us = 50;
  fault.retry.plan_deadline_us = 100;
  fault.breaker.threshold = 100;
  FaultInjector injector(fault);
  ProbeOptions options;
  options.fault = &injector;
  Rng rng(31);
  Result<ExecutionReport> report =
      ExecutePlan(db, profile, probes, &rng, options);
  ASSERT_TRUE(report.ok());

  // Two timeouts burn 50us each; at 100us the plan deadline abandons the
  // last two planned probes.
  EXPECT_EQ(report->faults.timeouts, 2);
  EXPECT_EQ(report->faults.failed_probes, 2);
  EXPECT_EQ(report->faults.deadline_skips, 2);
  EXPECT_EQ(report->faults.budget_unspent, 4);
  EXPECT_EQ(report->log[0].last_error, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(injector.now_us(), 100);
}

TEST(AgentFaults, DownSourceFailsWithoutRetrying) {
  ProbabilisticDatabase db = MakeUdb1();
  CleaningProfile profile = UniformProfile(db.num_xtuples(), 1, 1.0);
  std::vector<int64_t> probes(db.num_xtuples(), 0);
  probes[3] = 2;

  FaultOptions fault = TransientFaults(0.0);
  fault.profile.down_rate = 1.0;  // every source is down
  fault.retry.max_attempts = 5;
  fault.breaker.threshold = 100;
  FaultInjector injector(fault);
  ProbeOptions options;
  options.fault = &injector;
  Rng rng(37);
  Result<ExecutionReport> report =
      ExecutePlan(db, profile, probes, &rng, options);
  ASSERT_TRUE(report.ok());

  // Retrying a down source is pointless: one attempt per planned probe.
  EXPECT_EQ(report->faults.source_down, 2);
  EXPECT_EQ(report->faults.retries, 0);
  EXPECT_EQ(report->faults.failed_probes, 2);
  EXPECT_EQ(report->log[0].failures, 2);
  EXPECT_EQ(report->spent, 0);
}

TEST(Agent, MonteCarloRealizedImprovementMatchesTheorem2) {
  // The heart of the cleaning model: executing a plan many times and
  // measuring the realized quality improvement must reproduce the
  // Theorem-2 expectation.
  Rng maker(1010);
  RandomDbOptions opts;
  opts.num_xtuples = 5;
  opts.max_alternatives = 3;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
  const size_t k = 2;

  CleaningProfile profile;
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    profile.costs.push_back(1);
    profile.sc_probs.push_back(maker.Uniform(0.3, 0.9));
  }
  Result<CleaningProblem> problem = MakeCleaningProblem(db, k, profile, 6);
  ASSERT_TRUE(problem.ok());
  Result<CleaningPlan> plan = PlanDp(*problem);
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan->expected_improvement, 0.0);

  Result<TpOutput> before = ComputeTpQuality(db, k);
  ASSERT_TRUE(before.ok());

  double total_improvement = 0.0;
  const int trials = 3000;
  Rng rng(2020);
  for (int t = 0; t < trials; ++t) {
    Result<ExecutionReport> report =
        ExecutePlan(db, profile, plan->probes, &rng);
    ASSERT_TRUE(report.ok());
    Result<TpOutput> after = ComputeTpQuality(report->cleaned_db, k);
    ASSERT_TRUE(after.ok());
    total_improvement += after->quality - before->quality;
  }
  const double realized = total_improvement / trials;
  // Monte-Carlo noise: the per-trial improvement is bounded by |S|; with
  // 3000 trials a 5% relative / 0.05 absolute band is comfortable.
  EXPECT_NEAR(realized, plan->expected_improvement,
              std::max(0.05, 0.08 * plan->expected_improvement));
}

}  // namespace
}  // namespace uclean
