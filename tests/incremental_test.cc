// Property tests for the incremental cleaning engine: random sequences of
// clean outcomes recorded in a one-session SessionPool (copy-on-write
// overlay + PsrEngine::ReplaySession + delta TP) must match a from-scratch
// ComputePsrLadder / ComputeTpQuality of the session's overlay bitwise at
// every step, and agree with the historical builder round-trip of the
// materialized cleaned database.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "clean/session_pool.h"
#include "common/rng.h"
#include "model/database.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"
#include "tests/test_util.h"

namespace uclean {
namespace {

constexpr double kTol = 1e-12;

/// One session over `db` serving the single k `k`.
struct OneSessionPool {
  SessionPool pool;
  SessionPool::SessionId id;
};

OneSessionPool OpenOneSession(ProbabilisticDatabase db, size_t k,
                              const SessionPool::Options& options) {
  Result<KLadder> ladder = KLadder::Of({k});
  UCLEAN_CHECK(ladder.ok());
  Result<SessionPool> pool = SessionPool::Create(std::move(db), *ladder,
                                                 options);
  UCLEAN_CHECK(pool.ok());
  OneSessionPool out{std::move(pool).value(), 0};
  out.id = out.pool.OpenSession();
  return out;
}

/// Checks the session's maintained PSR + TP state bitwise against a
/// from-scratch recomputation over its own overlay, and against the
/// historical path: materialize, rebuild through the validating builder
/// and recompute. The rebuilt database has its own (compacted) indexing,
/// so that leg compares the order-independent aggregates -- also bitwise,
/// since the count-refresh grid is anchored on live ordinals.
void ExpectMatchesFromScratch(const OneSessionPool& s,
                              const PsrOptions& options) {
  ExpectMatchesOverlayScan(s.pool, s.id, options);

  const size_t k = s.pool.ladder().max_k();
  Result<ProbabilisticDatabase> rebuilt =
      std::move(DatabaseBuilder::FromDatabase(
                    s.pool.overlay(s.id).MaterializeCleaned()))
          .Finish();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  Result<TpOutput> rebuilt_tp = ComputeTpQuality(*rebuilt, k);
  ASSERT_TRUE(rebuilt_tp.ok()) << rebuilt_tp.status();
  const TpOutput& tp = s.pool.tp(s.id);
  EXPECT_EQ(tp.quality, rebuilt_tp->quality);
  ASSERT_EQ(tp.xtuple_gain.size(), rebuilt_tp->xtuple_gain.size());
  for (size_t l = 0; l < tp.xtuple_gain.size(); ++l) {
    EXPECT_EQ(tp.xtuple_gain[l], rebuilt_tp->xtuple_gain[l]);
  }
}

struct SweepParam {
  int seed;
  size_t k;
  bool store_matrix;
};

TEST(IncrementalDense, MidScanCheckpointRestoreAndThinning) {
  // A database large enough (and sub-unit enough, so the Lemma-2 stop
  // stays away) that the scan spans many checkpoints; interval 1 forces
  // the thinning path (capacity kMaxCheckpoints) and cleans restore
  // mid-scan snapshots rather than replaying from rank 0.
  Rng maker(271828);
  RandomDbOptions opts;
  opts.num_xtuples = 150;
  opts.max_alternatives = 4;
  opts.allow_subunit_mass = true;
  SessionPool::Options options;
  options.checkpoint_interval = 1;
  OneSessionPool session =
      OpenOneSession(MakeRandomDatabase(&maker, opts), /*k=*/9, options);
  ExpectMatchesFromScratch(session, options.psr);

  Rng rng(314159);
  for (int step = 0; step < 25; ++step) {
    const int batch = static_cast<int>(rng.UniformInt(1, 2));
    bool any = false;
    for (int b = 0; b < batch; ++b) {
      any |= ApplyRandomOutcome(&session.pool, session.id, &rng);
    }
    ASSERT_TRUE(session.pool.Refresh(session.id).ok());
    ExpectMatchesFromScratch(session, options.psr);
    if (!any) break;
  }
}

class IncrementalSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(IncrementalSweep, MatchesFromScratchAtEveryStep) {
  const SweepParam param = GetParam();
  Rng maker(static_cast<uint64_t>(param.seed));
  RandomDbOptions opts;
  opts.num_xtuples = 24;
  opts.max_alternatives = 4;
  SessionPool::Options options;
  options.psr.store_rank_probabilities = param.store_matrix;
  OneSessionPool session =
      OpenOneSession(MakeRandomDatabase(&maker, opts), param.k, options);
  ExpectMatchesFromScratch(session, options.psr);

  Rng rng(static_cast<uint64_t>(param.seed) + 1000);
  for (int step = 0; step < 40; ++step) {
    // Batch one to three outcomes per refresh, like an adaptive round.
    const int batch = static_cast<int>(rng.UniformInt(1, 3));
    bool any = false;
    for (int b = 0; b < batch; ++b) {
      any |= ApplyRandomOutcome(&session.pool, session.id, &rng);
    }
    ASSERT_TRUE(session.pool.Refresh(session.id).ok());
    ExpectMatchesFromScratch(session, options.psr);
    if (!any) break;  // fully certain: nothing left to clean
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, IncrementalSweep,
    ::testing::Values(SweepParam{11, 3, true}, SweepParam{22, 1, false},
                      SweepParam{22, 7, false}, SweepParam{33, 5, true},
                      SweepParam{44, 2, false}),
    [](const auto& info) {
      const SweepParam& p = info.param;
      return "s" + std::to_string(p.seed) + "k" + std::to_string(p.k) +
             (p.store_matrix ? "mat" : "nomat");
    });

TEST(Database, ApplyCleanOutcomeCollapsesInPlace) {
  Rng maker(7);
  RandomDbOptions opts;
  opts.num_xtuples = 6;
  opts.max_alternatives = 3;
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);

  // Find an x-tuple with several alternatives and collapse it to its
  // best-ranked real alternative.
  XTupleId target = -1;
  for (size_t l = 0; l < db.num_xtuples(); ++l) {
    if (db.xtuple_members(static_cast<XTupleId>(l)).size() > 1) {
      target = static_cast<XTupleId>(l);
      break;
    }
  }
  ASSERT_GE(target, 0);
  const auto members_before = db.xtuple_members(target);
  const size_t n_before = db.num_tuples();
  const Tuple resolved = db.tuple(members_before.front());
  ASSERT_FALSE(resolved.is_null);

  Result<ProbabilisticDatabase::CleanOutcomeDelta> delta =
      db.ApplyCleanOutcome(target, resolved.id);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_FALSE(delta->resolved_null);
  EXPECT_EQ(delta->first_changed_rank,
            static_cast<size_t>(members_before.front()));
  EXPECT_EQ(delta->resolved_rank, static_cast<size_t>(members_before.front()));
  EXPECT_TRUE(db.has_tombstones());
  EXPECT_EQ(db.num_tombstones(), members_before.size() - 1);
  ASSERT_EQ(db.xtuple_members(target).size(), 1u);
  EXPECT_DOUBLE_EQ(db.tuple(db.xtuple_members(target)[0]).prob, 1.0);
  EXPECT_DOUBLE_EQ(db.xtuple_real_mass(target), 1.0);

  // Rank indices are stable until compaction.
  EXPECT_EQ(db.num_tuples(), n_before);

  // Collapsing the same x-tuple to the same outcome again is a no-op.
  Result<ProbabilisticDatabase::CleanOutcomeDelta> again =
      db.ApplyCleanOutcome(target, resolved.id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->first_changed_rank, db.num_tuples());

  // Compaction drops exactly the tombstones and renumbers monotonically.
  std::vector<int32_t> map = db.CompactTombstones();
  ASSERT_EQ(map.size(), n_before);
  EXPECT_FALSE(db.has_tombstones());
  EXPECT_EQ(db.num_tuples(), n_before - (members_before.size() - 1));
  int32_t prev = -1;
  for (int32_t m : map) {
    if (m < 0) continue;
    EXPECT_GT(m, prev);
    prev = m;
  }
}

TEST(Database, ApplyCleanOutcomeValidates) {
  Rng maker(8);
  RandomDbOptions opts;
  opts.num_xtuples = 3;
  opts.allow_subunit_mass = false;  // unit mass: no null alternatives
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
  EXPECT_FALSE(db.ApplyCleanOutcome(-1, 0).ok());
  EXPECT_FALSE(db.ApplyCleanOutcome(99, 0).ok());
  EXPECT_FALSE(db.ApplyCleanOutcome(0, 123456).ok());
  // Null outcome on a full-mass x-tuple is impossible (probability zero).
  EXPECT_FALSE(db.ApplyCleanOutcome(0, -1).ok());
}

TEST(Database, NullOutcomeCollapsesToCertainNull) {
  DatabaseBuilder b;
  XTupleId x = b.AddXTuple("E");
  ASSERT_TRUE(b.AddAlternative(x, 0, 9.0, 0.3).ok());
  ASSERT_TRUE(b.AddAlternative(x, 1, 4.0, 0.3).ok());  // null mass 0.4
  XTupleId y = b.AddXTuple("F");
  ASSERT_TRUE(b.AddAlternative(y, 2, 6.0, 1.0).ok());
  Result<ProbabilisticDatabase> db = std::move(b).Finish();
  ASSERT_TRUE(db.ok());

  Result<ProbabilisticDatabase::CleanOutcomeDelta> delta =
      db->ApplyCleanOutcome(x, -1);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_TRUE(delta->resolved_null);
  ASSERT_EQ(db->xtuple_members(x).size(), 1u);
  const Tuple& survivor = db->tuple(db->xtuple_members(x)[0]);
  EXPECT_TRUE(survivor.is_null);
  EXPECT_DOUBLE_EQ(survivor.prob, 1.0);
  EXPECT_DOUBLE_EQ(db->xtuple_real_mass(x), 0.0);
  EXPECT_EQ(db->num_real_tuples(), 1u);  // only F's alternative remains

  // PSR on the collapsed database: F's tuple is now certain rank 1.
  Result<PsrOutput> psr = ScanPsr(*db, 1);
  ASSERT_TRUE(psr.ok());
  const size_t f_rank = *db->RankIndexOfTupleId(2);
  EXPECT_NEAR(psr->topk_prob[f_rank], 1.0, kTol);
}

TEST(PsrEngine, CreateMatchesComputePsr) {
  Rng maker(55);
  RandomDbOptions opts;
  opts.num_xtuples = 16;
  opts.max_alternatives = 4;
  for (int trial = 0; trial < 5; ++trial) {
    ProbabilisticDatabase db = MakeRandomDatabase(&maker, opts);
    for (size_t k : {1u, 4u, 9u}) {
      PsrOptions options;
      options.store_rank_probabilities = true;
      Result<ScanRequest> request = ScanRequest::ForK(k, options);
      ASSERT_TRUE(request.ok());
      Result<PsrEngine> engine = PsrEngine::Create(db, *request);
      ASSERT_TRUE(engine.ok()) << engine.status();
      Result<PsrOutput> scratch = ScanPsr(db, k, options);
      ASSERT_TRUE(scratch.ok());
      ExpectPsrBitwiseEq(engine->output(0), *scratch,
                         "k=" + std::to_string(k));
    }
  }
}

TEST(PsrEngine, RejectsZeroK) {
  Rng maker(56);
  ProbabilisticDatabase db = MakeRandomDatabase(&maker, {});
  EXPECT_FALSE(ScanRequest::ForK(0).ok());
  // A hand-assembled zero-k request must be caught by Create itself.
  ScanRequest request;
  request.ladder.ks = {0};
  EXPECT_FALSE(PsrEngine::Create(db, request).ok());
}

}  // namespace
}  // namespace uclean
