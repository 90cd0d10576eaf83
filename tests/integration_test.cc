// Cross-module integration tests: the full pipeline from workload
// generation through query evaluation, quality computation, cleaning
// planning, and agent execution -- the paper's Figure 1 flow end to end.

#include <gtest/gtest.h>

#include <sstream>

#include "clean/adaptive.h"
#include "clean/agent.h"
#include "clean/planners.h"
#include "common/rng.h"
#include "model/csv_io.h"
#include "quality/evaluation.h"
#include "quality/pwr.h"
#include "quality/tp.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/mov.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

SyntheticOptions SmallSynthetic() {
  SyntheticOptions opts;
  opts.num_xtuples = 300;
  opts.tuples_per_xtuple = 10;
  return opts;
}

TEST(Integration, SyntheticQualityDecreasesWithK) {
  // Figure 4(a)'s monotonic trend on a scaled-down default dataset.
  Result<ProbabilisticDatabase> db = GenerateSynthetic(SmallSynthetic());
  ASSERT_TRUE(db.ok());
  double previous = 1.0;
  for (size_t k : {1u, 5u, 10u, 20u}) {
    Result<TpOutput> tp = ComputeTpQuality(*db, k);
    ASSERT_TRUE(tp.ok());
    EXPECT_LT(tp->quality, previous);
    previous = tp->quality;
  }
}

TEST(Integration, GaussianVarianceOrdersQuality) {
  // Figure 4(b): smaller sigma -> higher quality; uniform is the worst.
  SyntheticOptions opts = SmallSynthetic();
  std::vector<double> qualities;
  for (double sigma : {10.0, 100.0}) {
    opts.pdf = UncertaintyPdf::kGaussian;
    opts.sigma = sigma;
    Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
    ASSERT_TRUE(db.ok());
    Result<TpOutput> tp = ComputeTpQuality(*db, 15);
    ASSERT_TRUE(tp.ok());
    qualities.push_back(tp->quality);
  }
  opts.pdf = UncertaintyPdf::kUniform;
  Result<ProbabilisticDatabase> uniform_db = GenerateSynthetic(opts);
  ASSERT_TRUE(uniform_db.ok());
  Result<TpOutput> uniform_tp = ComputeTpQuality(*uniform_db, 15);
  ASSERT_TRUE(uniform_tp.ok());

  EXPECT_GT(qualities[0], qualities[1]);          // G10 > G100
  EXPECT_GE(qualities[1], uniform_tp->quality);   // G100 >= Uniform
}

TEST(Integration, MovIsLessAmbiguousThanSynthetic) {
  // Figure 4(c): MOV (2 alternatives/x-tuple) scores higher than the
  // synthetic data (10 alternatives/x-tuple) at equal x-tuple counts.
  SyntheticOptions sopts = SmallSynthetic();
  MovOptions mopts;
  mopts.num_xtuples = sopts.num_xtuples;
  Result<ProbabilisticDatabase> syn = GenerateSynthetic(sopts);
  Result<ProbabilisticDatabase> mov = GenerateMov(mopts);
  ASSERT_TRUE(syn.ok() && mov.ok());
  Result<TpOutput> q_syn = ComputeTpQuality(*syn, 15);
  Result<TpOutput> q_mov = ComputeTpQuality(*mov, 15);
  ASSERT_TRUE(q_syn.ok() && q_mov.ok());
  EXPECT_GT(q_mov->quality, q_syn->quality);
}

TEST(Integration, PwrAgreesWithTpOnGeneratedData) {
  // The cross-validation the paper reports (difference < 1e-8), on real
  // generator output rather than hand-built examples.
  SyntheticOptions opts = SmallSynthetic();
  opts.num_xtuples = 40;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  ASSERT_TRUE(db.ok());
  for (size_t k : {1u, 2u, 3u}) {
    Result<PwrOutput> pwr = ComputePwrQuality(*db, k);
    Result<TpOutput> tp = ComputeTpQuality(*db, k);
    ASSERT_TRUE(pwr.ok() && tp.ok());
    EXPECT_NEAR(pwr->quality, tp->quality, 1e-8) << "k=" << k;
  }
}

TEST(Integration, MovPwrAgreesWithTp) {
  MovOptions opts;
  opts.num_xtuples = 60;
  Result<ProbabilisticDatabase> db = GenerateMov(opts);
  ASSERT_TRUE(db.ok());
  for (size_t k : {1u, 2u, 3u}) {
    Result<PwrOutput> pwr = ComputePwrQuality(*db, k);
    Result<TpOutput> tp = ComputeTpQuality(*db, k);
    ASSERT_TRUE(pwr.ok() && tp.ok());
    EXPECT_NEAR(pwr->quality, tp->quality, 1e-8) << "k=" << k;
  }
}

TEST(Integration, CsvRoundTripPreservesQualityAndAnswers) {
  Result<ProbabilisticDatabase> db = GenerateMov(MovOptions{.num_xtuples = 80});
  ASSERT_TRUE(db.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteDatabaseCsv(*db, &out).ok());
  std::istringstream in(out.str());
  Result<ProbabilisticDatabase> loaded = ReadDatabaseCsv(&in);
  ASSERT_TRUE(loaded.ok());

  EvaluationOptions eval;
  eval.k = 5;
  Result<EvaluationReport> a = EvaluateTopk(*db, eval);
  Result<EvaluationReport> b = EvaluateTopk(*loaded, eval);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a->quality.quality, b->quality.quality, 1e-10);
  ASSERT_EQ(a->ptk.tuples.size(), b->ptk.tuples.size());
  for (size_t i = 0; i < a->ptk.tuples.size(); ++i) {
    EXPECT_EQ(a->ptk.tuples[i].tuple_id, b->ptk.tuples[i].tuple_id);
  }
}

TEST(Integration, FullCleaningWorkflowImprovesExpectedQuality) {
  // Generate -> evaluate -> plan with every planner -> execute the DP plan
  // -> verify the realized database is better on average than before.
  Result<ProbabilisticDatabase> db = GenerateSynthetic(SmallSynthetic());
  ASSERT_TRUE(db.ok());
  const size_t k = 10;
  Result<CleaningProfile> profile =
      GenerateCleaningProfile(db->num_xtuples());
  ASSERT_TRUE(profile.ok());
  Result<CleaningProblem> problem =
      MakeCleaningProblem(*db, k, *profile, /*budget=*/100);
  ASSERT_TRUE(problem.ok());

  Rng rng(31);
  Result<CleaningPlan> dp = PlanDp(*problem);
  Result<CleaningPlan> greedy = PlanGreedy(*problem);
  Result<CleaningPlan> randp = PlanRandP(*problem, &rng);
  Result<CleaningPlan> randu = PlanRandU(*problem, &rng);
  ASSERT_TRUE(dp.ok() && greedy.ok() && randp.ok() && randu.ok());

  // Paper ordering on expected improvement.
  EXPECT_GE(dp->expected_improvement, greedy->expected_improvement - 1e-9);
  EXPECT_GE(greedy->expected_improvement, randp->expected_improvement - 1e-9);

  Result<TpOutput> before = ComputeTpQuality(*db, k);
  ASSERT_TRUE(before.ok());
  double realized = 0.0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng exec_rng(100 + t);
    Result<ExecutionReport> report =
        ExecutePlan(*db, *profile, dp->probes, &exec_rng);
    ASSERT_TRUE(report.ok());
    Result<TpOutput> after = ComputeTpQuality(report->cleaned_db, k);
    ASSERT_TRUE(after.ok());
    realized += after->quality - before->quality;
  }
  EXPECT_GT(realized / trials, 0.0);
}

TEST(Integration, QualityComputationSharesPsrWork) {
  // Section IV-C: with sharing, quality adds only a small pass on top of
  // query evaluation -- structurally verified by the report's breakdown.
  Result<ProbabilisticDatabase> db = GenerateSynthetic(SmallSynthetic());
  ASSERT_TRUE(db.ok());
  EvaluationOptions opts;
  opts.k = 50;
  Result<EvaluationReport> report = EvaluateTopk(*db, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->psr_seconds, 0.0);
  // The quality pass must not dwarf the PSR pass (it is O(n) vs O(kn)).
  EXPECT_LT(report->quality_seconds, report->psr_seconds + 0.05);
}

TEST(Integration, AdaptiveSessionOnMovData) {
  MovOptions mopts;
  mopts.num_xtuples = 150;
  Result<ProbabilisticDatabase> db = GenerateMov(mopts);
  ASSERT_TRUE(db.ok());
  Result<CleaningProfile> profile =
      GenerateCleaningProfile(db->num_xtuples());
  ASSERT_TRUE(profile.ok());
  AdaptiveOptions options;
  options.k = 10;
  Rng rng(64);
  Result<AdaptiveReport> report =
      RunAdaptiveCleaning(*db, *profile, 60, options, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->total_spent, 60);
  EXPECT_GE(report->final_quality, report->initial_quality - 1e-9);
}

}  // namespace
}  // namespace uclean
