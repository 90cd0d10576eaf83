// Property tests for the SessionPool, the library's one mutation model:
// every session -- a copy-on-write DatabaseOverlay plus a forked
// PsrEngine::SessionState over ONE shared base scan -- must equal, bitwise
// at every rung after every refresh, a from-scratch ComputePsrLadder +
// ComputeTpQuality over its own overlay, under interleaved cleans across
// sessions and open/close churn; close-and-merge must materialize exactly
// the database that collapsing the same outcomes in place yields; and
// dirty-state reads must be a hard failure in EVERY build type (the
// Release-mode stale-read regression).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/kernel.h"
#include "rank/psr_engine.h"
#include "rank/psr_scan_core.h"
#include "store/snapshot.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

KLadder MakeLadder(std::vector<size_t> ks) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());
  return std::move(ladder).value();
}

/// Draws up to `count` clean outcomes for distinct still-uncertain
/// x-tuples of `view` (one resolution per x-tuple per round); empty when
/// the view is fully certain.
template <typename View>
std::vector<std::pair<XTupleId, TupleId>> DrawOutcomes(const View& view,
                                                       int count, Rng* rng) {
  std::vector<std::pair<XTupleId, TupleId>> outcomes;
  for (int draw = 0; draw < count; ++draw) {
    std::pair<XTupleId, TupleId> outcome;
    if (!DrawRandomOutcome(view, rng, &outcome)) break;
    bool already = false;
    for (const auto& other : outcomes) already |= other.first == outcome.first;
    if (!already) outcomes.push_back(outcome);
  }
  return outcomes;
}

TEST(SessionPool, SessionsMatchOverlayScanUnderInterleavedCleans) {
  Rng maker(424242);
  RandomDbOptions opts;
  opts.num_xtuples = 24;
  opts.max_alternatives = 4;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  const KLadder ladder = MakeLadder({2, 5, 9});
  constexpr size_t kSessions = 3;

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), ladder);
  ASSERT_TRUE(pool.ok()) << pool.status();
  EXPECT_EQ(pool->ladder().ks, ladder.ks);

  std::vector<SessionPool::SessionId> ids;
  for (size_t s = 0; s < kSessions; ++s) ids.push_back(pool->OpenSession());
  EXPECT_EQ(pool->num_open(), kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    ExpectMatchesOverlayScan(*pool, ids[s], {}, "open");
  }

  Rng rng(99999);
  for (int step = 0; step < 10; ++step) {
    // Sessions advance on their own cadences (session s only cleans every
    // s+1 steps), so refreshes interleave with other sessions' applies.
    for (size_t s = 0; s < kSessions; ++s) {
      if (step % static_cast<int>(s + 1) != 0) continue;
      for (const auto& [xtuple, resolved] : DrawOutcomes(
               pool->overlay(ids[s]), 1 + static_cast<int>(s % 2), &rng)) {
        ASSERT_TRUE(pool->ApplyCleanOutcome(ids[s], xtuple, resolved).ok());
      }
    }
    // Refresh in reverse session order: agreement with each session's
    // own from-scratch scan shows refreshes are order-independent.
    for (size_t s = kSessions; s-- > 0;) {
      ASSERT_TRUE(pool->Refresh(ids[s]).ok());
    }
    for (size_t s = 0; s < kSessions; ++s) {
      ExpectMatchesOverlayScan(*pool, ids[s], {},
                               "step " + std::to_string(step) + " session " +
                                   std::to_string(s));
    }
  }
  // The shared base never absorbed anyone's cleans.
  EXPECT_FALSE(pool->base().has_tombstones());
  EXPECT_EQ(pool->base().num_tuples(), base.num_tuples());
}

TEST(SessionPool, ChurnReopensCleanSlots) {
  Rng maker(777);
  RandomDbOptions opts;
  opts.num_xtuples = 16;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  const KLadder ladder = MakeLadder({3, 7});

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), ladder);
  ASSERT_TRUE(pool.ok());

  // Dirty a session, close it, and reopen: the recycled slot must serve
  // the pristine base state, not the previous tenant's leftovers.
  const SessionPool::SessionId first = pool->OpenSession();
  Rng rng(31337);
  for (const auto& [xtuple, resolved] : DrawOutcomes(pool->base(), 4, &rng)) {
    ASSERT_TRUE(pool->ApplyCleanOutcome(first, xtuple, resolved).ok());
  }
  ASSERT_TRUE(pool->Refresh(first).ok());
  ASSERT_GT(pool->overlay(first).num_outcomes(), 0u);
  ASSERT_TRUE(pool->Close(first).ok());
  EXPECT_EQ(pool->num_open(), 0u);

  const SessionPool::SessionId reused = pool->OpenSession();
  EXPECT_EQ(reused, first);  // slot recycled
  EXPECT_EQ(pool->overlay(reused).num_outcomes(), 0u);
  for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
    EXPECT_EQ(pool->quality(reused, rung), pool->base_tp(rung).quality);
  }

  // A session opened mid-stream stays exact through its own cleans.
  for (int round = 0; round < 4; ++round) {
    for (const auto& [xtuple, resolved] :
         DrawOutcomes(pool->overlay(reused), 2, &rng)) {
      ASSERT_TRUE(pool->ApplyCleanOutcome(reused, xtuple, resolved).ok());
    }
    ASSERT_TRUE(pool->Refresh(reused).ok());
    ExpectMatchesOverlayScan(*pool, reused, {},
                             "round " + std::to_string(round));
  }
}

TEST(SessionPool, CloseAndMergeEqualsInPlaceCollapse) {
  Rng maker(2024);
  RandomDbOptions opts;
  opts.num_xtuples = 14;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), MakeLadder({4}));
  ASSERT_TRUE(pool.ok());
  const SessionPool::SessionId id = pool->OpenSession();

  // Reference: the same outcomes collapsed in place on a copy, then
  // compacted.
  ProbabilisticDatabase reference = base;
  Rng rng(55);
  const auto outcomes = DrawOutcomes(base, 5, &rng);
  ASSERT_FALSE(outcomes.empty());
  for (const auto& [xtuple, resolved] : outcomes) {
    ASSERT_TRUE(pool->ApplyCleanOutcome(id, xtuple, resolved).ok());
    ASSERT_TRUE(reference.ApplyCleanOutcome(xtuple, resolved).ok());
  }
  reference.CompactTombstones();
  // Merge the still-dirty session: materialization consumes the recorded
  // outcomes, not the (deliberately stale) scan state.
  ASSERT_TRUE(pool->dirty(id));
  Result<ProbabilisticDatabase> merged = pool->CloseAndMerge(id);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(pool->num_open(), 0u);

  ASSERT_EQ(merged->num_tuples(), reference.num_tuples());
  EXPECT_FALSE(merged->has_tombstones());
  for (size_t i = 0; i < reference.num_tuples(); ++i) {
    const Tuple& a = merged->tuple(i);
    const Tuple& b = reference.tuple(i);
    EXPECT_EQ(a.id, b.id) << "rank " << i;
    EXPECT_EQ(a.xtuple, b.xtuple) << "rank " << i;
    EXPECT_EQ(a.is_null, b.is_null) << "rank " << i;
    EXPECT_EQ(a.prob, b.prob) << "rank " << i;
    EXPECT_EQ(a.score, b.score) << "rank " << i;
  }
}

TEST(SessionPool, ExecutePlanMatchesOneShotExecution) {
  // The session overload of ExecutePlan must consume the same random
  // stream as the one-shot database overload, and the session's refreshed
  // quality must equal a from-scratch pass over the one-shot's cleaned
  // (compacted) database.
  Rng maker(91);
  RandomDbOptions opts;
  opts.num_xtuples = 10;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  CleaningProfile profile;
  for (size_t l = 0; l < base.num_xtuples(); ++l) {
    profile.costs.push_back(1 + static_cast<int64_t>(l % 3));
    profile.sc_probs.push_back(maker.Uniform(0.2, 0.9));
  }
  std::vector<int64_t> probes(base.num_xtuples(), 0);
  for (size_t l = 0; l < probes.size(); l += 2) probes[l] = 2;

  const size_t k = 3;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Result<SessionPool> pool =
        SessionPool::Create(ProbabilisticDatabase(base), MakeLadder({k}));
    ASSERT_TRUE(pool.ok());
    const SessionPool::SessionId id = pool->OpenSession();

    Rng rng_a(seed), rng_b(seed);
    Result<SessionExecutionReport> pooled =
        ExecutePlan(&*pool, id, profile, probes, &rng_a);
    ASSERT_TRUE(pooled.ok()) << pooled.status();
    Result<ExecutionReport> one_shot =
        ExecutePlan(base, profile, probes, &rng_b);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status();

    EXPECT_EQ(pooled->spent, one_shot->spent);
    EXPECT_EQ(pooled->leftover, one_shot->leftover);
    EXPECT_EQ(pooled->successes, one_shot->successes);
    EXPECT_EQ(pooled->log, one_shot->log);
    ASSERT_TRUE(pool->Refresh(id).ok());
    ExpectMatchesOverlayScan(*pool, id, {}, "seed " + std::to_string(seed));
    Result<TpOutput> one_shot_tp = ComputeTpQuality(one_shot->cleaned_db, k);
    ASSERT_TRUE(one_shot_tp.ok());
    EXPECT_EQ(pool->quality(id), one_shot_tp->quality);
  }
}

TEST(SessionPool, ValidatesArguments) {
  Rng maker(5);
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, {});

  // A single k is a one-rung ladder; k = 0 never gets that far.
  EXPECT_FALSE(KLadder::Of({0}).ok());
  KLadder zero;
  zero.ks = {0};
  EXPECT_FALSE(SessionPool::Create(ProbabilisticDatabase(base), zero).ok());
  KLadder bad;
  bad.ks = {5, 3};
  EXPECT_FALSE(SessionPool::Create(ProbabilisticDatabase(base), bad).ok());

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), MakeLadder({2}));
  ASSERT_TRUE(pool.ok());
  EXPECT_FALSE(pool->ApplyCleanOutcome(0, 0, 0).ok());  // never opened
  EXPECT_FALSE(pool->Refresh(99).ok());
  EXPECT_FALSE(pool->Close(0).ok());
  EXPECT_FALSE(pool->is_open(0));

  const SessionPool::SessionId id = pool->OpenSession();
  EXPECT_TRUE(pool->is_open(id));
  EXPECT_FALSE(pool->ApplyCleanOutcome(id, -1, 0).ok());    // bad x-tuple
  EXPECT_FALSE(pool->ApplyCleanOutcome(id, 0, 9999).ok());  // bad outcome
  ASSERT_TRUE(pool->Close(id).ok());
  EXPECT_FALSE(pool->Close(id).ok());  // double close
  CleaningProfile profile;
  profile.costs.assign(base.num_xtuples(), 1);
  profile.sc_probs.assign(base.num_xtuples(), 0.5);
  std::vector<int64_t> probes(base.num_xtuples(), 1);
  Rng rng(1);
  EXPECT_FALSE(ExecutePlan(&*pool, id, profile, probes, &rng).ok());
}

// ----------------------------------------------------- lazy sessions
//
// A session owns no scan or TP state until its overlay records its first
// outcome (copy on first write); until then its reads alias the shared
// engine outputs and base TP ladder.

ProbabilisticDatabase MakeLazyTestDb() {
  Rng maker(8080);
  RandomDbOptions opts;
  opts.num_xtuples = 20;
  opts.max_alternatives = 4;
  return MakeRandomDatabase(&maker, opts);
}

void ExpectAliasesBase(const SessionPool& pool, SessionPool::SessionId id) {
  for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
    EXPECT_EQ(&pool.psr(id, rung), &pool.base_psr(rung)) << "rung " << rung;
    EXPECT_EQ(&pool.tp(id, rung), &pool.base_tp(rung)) << "rung " << rung;
    EXPECT_EQ(&pool.tps(id)[rung], &pool.base_tp(rung)) << "rung " << rung;
    EXPECT_EQ(pool.quality(id, rung), pool.base_tp(rung).quality);
  }
}

TEST(SessionPoolLazy, PristineSessionsAliasTheSharedState) {
  const KLadder ladder = MakeLadder({2, 6});
  Result<SessionPool> pool = SessionPool::Create(MakeLazyTestDb(), ladder);
  ASSERT_TRUE(pool.ok()) << pool.status();
  const SessionPool::SessionId a = pool->OpenSession();
  const SessionPool::SessionId b = pool->OpenSession();
  ExpectAliasesBase(*pool, a);
  ExpectAliasesBase(*pool, b);

  // Re-cleaning an already-certain x-tuple records nothing, so the
  // session stays pristine.
  bool found_certain = false;
  for (size_t l = 0; l < pool->base().num_xtuples(); ++l) {
    const auto& members = pool->base().xtuple_members(static_cast<XTupleId>(l));
    if (members.size() == 1 && pool->base().tuple(members[0]).prob == 1.0) {
      ASSERT_TRUE(pool->ApplyCleanOutcome(a, static_cast<XTupleId>(l),
                                          pool->base().tuple(members[0]).id)
                      .ok());
      EXPECT_EQ(pool->overlay(a).num_outcomes(), 0u);
      EXPECT_FALSE(pool->dirty(a));
      ExpectAliasesBase(*pool, a);
      found_certain = true;
      break;
    }
  }
  EXPECT_TRUE(found_certain);

  // Close works on a session that never materialized, and its recycled
  // slot opens pristine again.
  ASSERT_TRUE(pool->Close(a).ok());
  EXPECT_EQ(pool->num_open(), 1u);
  const SessionPool::SessionId reused = pool->OpenSession();
  EXPECT_EQ(reused, a);
  ExpectAliasesBase(*pool, reused);
  Result<ProbabilisticDatabase> merged = pool->CloseAndMerge(b);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->num_tuples(), pool->base().num_tuples());
}

TEST(SessionPoolLazy, FirstOutcomeMaterializesTheEagerFork) {
  // The eager path every session used to take at open: fork the engine,
  // copy the base TP ladder, replay and delta-update after the outcomes.
  // The lazily materialized session must end up with the same bits.
  const KLadder ladder = MakeLadder({3, 8});
  Result<SessionPool> pool = SessionPool::Create(MakeLazyTestDb(), ladder);
  ASSERT_TRUE(pool.ok()) << pool.status();
  const ProbabilisticDatabase& base = pool->base();
  ScanRequest request;
  request.ladder = ladder;
  Result<PsrEngine> engine = PsrEngine::Create(base, request);
  ASSERT_TRUE(engine.ok()) << engine.status();
  Result<std::vector<TpOutput>> base_tps =
      ComputeTpQualityLadder(base, engine->outputs());
  ASSERT_TRUE(base_tps.ok()) << base_tps.status();

  Rng rng(4711);
  const auto outcomes = DrawOutcomes(base, 3, &rng);
  ASSERT_FALSE(outcomes.empty());
  const SessionPool::SessionId id = pool->OpenSession();
  PsrEngine::SessionState eager = engine->ForkSession();
  std::vector<TpOutput> eager_tps = *base_tps;
  DatabaseOverlay overlay(&base);
  size_t replay_begin = base.num_tuples();
  for (const auto& [xtuple, resolved] : outcomes) {
    ASSERT_TRUE(pool->ApplyCleanOutcome(id, xtuple, resolved).ok());
    Result<ProbabilisticDatabase::CleanOutcomeDelta> delta =
        overlay.ApplyCleanOutcome(xtuple, resolved);
    ASSERT_TRUE(delta.ok());
    replay_begin = std::min(replay_begin, delta->first_changed_rank);
  }
  ASSERT_TRUE(engine->ReplaySession(overlay, replay_begin, &eager).ok());
  ASSERT_TRUE(UpdateTpQualityLadder(overlay, eager.outputs(), replay_begin,
                                    engine->outputs().back(),
                                    base_tps->back(), &eager_tps)
                  .ok());
  ASSERT_TRUE(pool->Refresh(id).ok());

  for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
    EXPECT_NE(&pool->psr(id, rung), &pool->base_psr(rung));
    const PsrOutput& got = pool->psr(id, rung);
    const PsrOutput& want = eager.output(rung);
    EXPECT_EQ(got.topk_prob, want.topk_prob) << "rung " << rung;
    EXPECT_EQ(got.num_nonzero, want.num_nonzero);
    EXPECT_EQ(got.scan_end, want.scan_end);
    EXPECT_EQ(got.best_rank_prob, want.best_rank_prob);
    EXPECT_EQ(got.best_rank_index, want.best_rank_index);
    ExpectTpBitwiseEq(pool->tp(id, rung), eager_tps[rung],
                      "rung " + std::to_string(rung));
  }
}

TEST(SessionPoolLazy, RefreshAllMixesPristineAndCleanedSessions) {
  const ProbabilisticDatabase base = MakeLazyTestDb();
  const KLadder ladder = MakeLadder({2, 5});
  SessionPool::Options options;
  options.exec.num_threads = 3;
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), ladder, options);
  ASSERT_TRUE(pool.ok()) << pool.status();

  // Sessions 0 and 2 clean, 1 and 3 stay pristine.
  constexpr size_t kSessions = 4;
  std::vector<SessionPool::SessionId> ids;
  for (size_t s = 0; s < kSessions; ++s) ids.push_back(pool->OpenSession());
  Rng rng(2718);
  for (int round = 0; round < 3; ++round) {
    for (size_t s = 0; s < kSessions; s += 2) {
      for (const auto& [xtuple, resolved] :
           DrawOutcomes(pool->overlay(ids[s]), 2, &rng)) {
        ASSERT_TRUE(pool->ApplyCleanOutcome(ids[s], xtuple, resolved).ok());
      }
    }
    ASSERT_TRUE(pool->RefreshAll().ok());
    for (size_t s = 0; s < kSessions; ++s) {
      EXPECT_FALSE(pool->dirty(ids[s]));
      if (s % 2 == 1) ExpectAliasesBase(*pool, ids[s]);
      ExpectMatchesOverlayScan(*pool, ids[s], {},
                               "round " + std::to_string(round) +
                                   " session " + std::to_string(s));
    }
  }
}

// ------------------------------------------------- checkpoint restores
//
// A checkpoint keeps only the count vector; the replay that restores it
// re-derives the per-x-tuple masses over its overlay's prefix. Every
// restore point a session can reach -- each shared engine checkpoint, and
// each private checkpoint a session took past its own first clean --
// must give the bits of a from-scratch scan of the overlay.

TEST(SessionPoolCheckpoints, EveryRestorePointMatchesOverlayScan) {
  SyntheticOptions synthetic;
  synthetic.num_xtuples = 200;
  synthetic.tuples_per_xtuple = 5;
  synthetic.real_mass_min = 0.4;
  synthetic.real_mass_max = 0.9;
  synthetic.seed = 515;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(synthetic);
  ASSERT_TRUE(db.ok()) << db.status();
  const KLadder ladder = MakeLadder({4, 40});
  for (const size_t threads : {1u, 4u}) {
    SessionPool::Options options;
    options.checkpoint_interval = 16;
    options.exec.num_threads = threads;
    Result<SessionPool> pool =
        SessionPool::Create(ProbabilisticDatabase(*db), ladder, options);
    ASSERT_TRUE(pool.ok()) << pool.status();
    const ProbabilisticDatabase& base = pool->base();
    const std::string label = "threads=" + std::to_string(threads);

    // Shared: a clean whose first change lies in [p, next checkpoint)
    // replays from p.
    const std::vector<size_t> shared =
        SnapshotAccess::EngineCheckpointPositions(*pool);
    ASSERT_GT(shared.size(), 4u) << label;
    size_t shared_restores = 0;
    for (size_t c = 0; c < shared.size(); ++c) {
      const size_t next =
          c + 1 < shared.size() ? shared[c + 1] : base.num_tuples();
      std::pair<XTupleId, TupleId> outcome;
      if (!FindCleanFirstChangingIn(base, shared[c], next, &outcome)) {
        continue;
      }
      const SessionPool::SessionId id = pool->OpenSession();
      ASSERT_TRUE(
          pool->ApplyCleanOutcome(id, outcome.first, outcome.second).ok());
      ASSERT_TRUE(pool->Refresh(id).ok());
      ExpectMatchesOverlayScan(*pool, id, {},
                               label + " shared " + std::to_string(shared[c]));
      ASSERT_TRUE(pool->Close(id).ok());
      ++shared_restores;
    }
    EXPECT_GE(shared_restores + 2, shared.size()) << label;

    // Private: a first clean in the first shared interval makes the
    // session snapshot privately past it; a second clean whose first
    // change lies in [q, next private checkpoint) replays from q, deeper
    // than any shared checkpoint still valid for the session.
    std::pair<XTupleId, TupleId> first;
    ASSERT_TRUE(FindCleanFirstChangingIn(base, 0, shared[1], &first));
    const auto open_with_first = [&]() {
      const SessionPool::SessionId id = pool->OpenSession();
      EXPECT_TRUE(pool->ApplyCleanOutcome(id, first.first, first.second).ok());
      EXPECT_TRUE(pool->Refresh(id).ok());
      return id;
    };
    const SessionPool::SessionId probe = open_with_first();
    const std::vector<size_t> own =
        SnapshotAccess::SessionCheckpointPositions(*pool, probe);
    ASSERT_TRUE(pool->Close(probe).ok());
    ASSERT_GT(own.size(), 4u) << label;
    size_t private_restores = 0;
    for (size_t c = 0; c < own.size(); ++c) {
      const size_t next = c + 1 < own.size() ? own[c + 1] : base.num_tuples();
      std::pair<XTupleId, TupleId> second;
      if (!FindCleanFirstChangingIn(base, own[c], next, &second) ||
          second.first == first.first) {
        continue;
      }
      const SessionPool::SessionId id = open_with_first();
      ASSERT_TRUE(
          pool->ApplyCleanOutcome(id, second.first, second.second).ok());
      ASSERT_TRUE(pool->Refresh(id).ok());
      ExpectMatchesOverlayScan(*pool, id, {},
                               label + " private " + std::to_string(own[c]));
      ASSERT_TRUE(pool->Close(id).ok());
      ++private_restores;
    }
    EXPECT_GE(private_restores + 2, own.size()) << label;
  }
}

// ------------------------------------------------------ lane groups
//
// RefreshAll replays its dirty sessions in lane groups
// (PsrEngine::ReplaySessions): up to four sessions' scans step in
// lockstep on one thread, their divide-outs fused into one kernel call.
// Every lane must come out bitwise what a solo Refresh(id) gives it --
// whatever restore point each lane starts from, wherever each one stops.

/// 500 x-tuples x 10 bars with sub-unit masses: nothing saturates, and
/// the deep rung scans past the 4096-live count-refresh grid point.
ProbabilisticDatabase MakeLaneTestDb() {
  SyntheticOptions synthetic;
  synthetic.num_xtuples = 500;
  synthetic.tuples_per_xtuple = 10;
  synthetic.real_mass_min = 0.2;
  synthetic.real_mass_max = 0.5;
  synthetic.seed = 1620;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(synthetic);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

/// Resolves the x-tuple whose best member ranks in [begin, end) to that
/// member in session `id` of every pool; false when none qualifies.
bool ApplyFirstChangingIn(const std::vector<SessionPool*>& pools,
                          SessionPool::SessionId id, size_t begin, size_t end,
                          XTupleId* applied = nullptr) {
  std::pair<XTupleId, TupleId> outcome;
  if (!FindCleanFirstChangingIn(pools.front()->base(), begin, end, &outcome)) {
    return false;
  }
  for (SessionPool* pool : pools) {
    EXPECT_TRUE(
        pool->ApplyCleanOutcome(id, outcome.first, outcome.second).ok());
  }
  if (applied != nullptr) *applied = outcome.first;
  return true;
}

void ExpectSessionsBitwiseEqual(const SessionPool& a, const SessionPool& b,
                                SessionPool::SessionId id,
                                const std::string& label) {
  for (size_t rung = 0; rung < a.num_rungs(); ++rung) {
    const std::string at = label + " rung " + std::to_string(rung);
    const PsrOutput& got = a.psr(id, rung);
    const PsrOutput& want = b.psr(id, rung);
    ExpectPsrBitwiseEq(got, want, at);
    EXPECT_TRUE(got.best_rank_prob == want.best_rank_prob) << at;
    EXPECT_TRUE(got.best_rank_index == want.best_rank_index) << at;
    ExpectTpBitwiseEq(a.tp(id, rung), b.tp(id, rung), at);
  }
}

TEST(SessionPoolLanes, RefreshAllEqualsSoloRefreshesAndOverlayScans) {
  const ProbabilisticDatabase db = MakeLaneTestDb();
  const KLadder ladder = MakeLadder({8, 100});
  std::vector<KernelKind> kernels = {KernelKind::kScalar};
  if (Avx2Supported()) kernels.push_back(KernelKind::kAvx2);
  for (const KernelKind kernel : kernels) {
    // Threads 1: one lane group of four on the caller. Threads 2: two
    // groups of two on the pool. Threads 4: a session per thread.
    for (const size_t threads : {1u, 2u, 4u}) {
      const std::string config = std::string(KernelKindName(kernel)) +
                                 " threads=" + std::to_string(threads);
      SessionPool::Options options;
      options.exec.kernel = kernel;
      options.exec.num_threads = threads;
      Result<SessionPool> lanes =
          SessionPool::Create(ProbabilisticDatabase(db), ladder, options);
      Result<SessionPool> solo =
          SessionPool::Create(ProbabilisticDatabase(db), ladder, options);
      ASSERT_TRUE(lanes.ok()) << lanes.status();
      ASSERT_TRUE(solo.ok()) << solo.status();
      const std::vector<SessionPool*> both = {&*lanes, &*solo};
      const size_t n = db.num_tuples();
      const size_t grid = psr_internal::kCountRefreshGridLive;
      ASSERT_GT(lanes->base_psr(1).scan_end, grid) << config;
      const std::vector<size_t> shared =
          SnapshotAccess::EngineCheckpointPositions(*lanes);

      constexpr size_t kSessions = 4;
      std::vector<SessionPool::SessionId> ids;
      for (size_t s = 0; s < kSessions; ++s) {
        const SessionPool::SessionId a = lanes->OpenSession();
        ASSERT_EQ(a, solo->OpenSession());
        ids.push_back(a);
      }
      // Session 2 takes private checkpoints first: a clean in the first
      // shared interval, refreshed.
      XTupleId first = -1;
      ASSERT_TRUE(ApplyFirstChangingIn(both, ids[2], 0, shared[1], &first));
      ASSERT_TRUE(lanes->Refresh(ids[2]).ok());
      ASSERT_TRUE(solo->Refresh(ids[2]).ok());
      const std::vector<size_t> own =
          SnapshotAccess::SessionCheckpointPositions(*lanes, ids[2]);
      ASSERT_GT(own.size(), 8u) << config;

      // Session 0 restores rank 0. Session 1 restores a shared checkpoint
      // below the grid point and replays across it. Session 2 restores a
      // private checkpoint. Session 3 resolves shallow x-tuples, which
      // moves the shallow rung's stop earlier.
      ASSERT_TRUE(ApplyFirstChangingIn(both, ids[0], 0, 1)) << config;
      size_t mid = 0;
      while (mid + 1 < shared.size() && shared[mid + 1] < grid / 2) ++mid;
      ASSERT_GT(mid, 0u) << config;
      ASSERT_TRUE(ApplyFirstChangingIn(both, ids[1], shared[mid], grid))
          << config;
      const size_t deep = own.size() / 2;
      XTupleId second = -1;
      ASSERT_TRUE(
          ApplyFirstChangingIn(both, ids[2], own[deep], n, &second));
      ASSERT_NE(second, first) << config;
      const size_t shallow_end = lanes->base_psr(0).scan_end;
      for (size_t step = 0; step < 4; ++step) {
        ApplyFirstChangingIn(both, ids[3], step * shallow_end / 8,
                             (step + 1) * shallow_end / 8);
      }
      for (size_t s = 0; s < kSessions; ++s) {
        ASSERT_TRUE(lanes->dirty(ids[s])) << config;
      }

      ASSERT_TRUE(lanes->RefreshAll().ok()) << config;
      for (const SessionPool::SessionId id : ids) {
        ASSERT_TRUE(solo->Refresh(id).ok()) << config;
      }
      EXPECT_GT(lanes->psr(ids[1], 1).scan_end, grid) << config;
      EXPECT_LT(lanes->psr(ids[3], 0).scan_end, shallow_end) << config;
      for (size_t s = 0; s < kSessions; ++s) {
        const std::string label = config + " session " + std::to_string(s);
        EXPECT_FALSE(lanes->dirty(ids[s])) << label;
        ExpectSessionsBitwiseEqual(*lanes, *solo, ids[s], label);
        ExpectMatchesOverlayScan(*lanes, ids[s], {}, label);
      }
    }
  }
}

TEST(SessionPoolLanes, FailedSessionStaysDirtyOthersRefresh) {
  const ProbabilisticDatabase db = MakeLaneTestDb();
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), MakeLadder({8, 100}));
  ASSERT_TRUE(pool.ok()) << pool.status();
  const std::vector<SessionPool*> one = {&*pool};
  std::vector<SessionPool::SessionId> ids;
  for (size_t s = 0; s < 3; ++s) {
    ids.push_back(pool->OpenSession());
    ASSERT_TRUE(ApplyFirstChangingIn(one, ids[s], 100 * s, db.num_tuples()));
  }
  SnapshotAccess::DropSessionRung(&*pool, ids[1]);

  const Status status = pool->RefreshAll();
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(pool->dirty(ids[1]));
  for (const size_t s : {0u, 2u}) {
    EXPECT_FALSE(pool->dirty(ids[s])) << "session " << s;
    ExpectMatchesOverlayScan(*pool, ids[s], {}, "session " + std::to_string(s));
  }
  // The error is the replay's validation failure, and it repeats.
  EXPECT_EQ(pool->Refresh(ids[1]).code(), status.code());
  EXPECT_TRUE(pool->dirty(ids[1]));
}

// ------------------------------------------------- U-kRanks trackers
//
// Only the engine's own full scan tracks the per-rank argmaxes. A session
// replay -- even one that restores the rank-0 checkpoint and rescans
// everything -- rebuilds them from the rank matrix when one is stored and
// resets them to the empty answer otherwise.

TEST(SessionPoolTrackers, RankZeroReplayRebuildsOrResetsTheArgmaxes) {
  const ProbabilisticDatabase db = MakeLazyTestDb();
  for (const bool matrix : {false, true}) {
    SessionPool::Options options;
    options.psr.store_rank_probabilities = matrix;
    Result<SessionPool> pool =
        SessionPool::Create(ProbabilisticDatabase(db), MakeLadder({2, 5}),
                            options);
    ASSERT_TRUE(pool.ok()) << pool.status();
    const SessionPool::SessionId id = pool->OpenSession();
    ASSERT_TRUE(ApplyFirstChangingIn({&*pool}, id, 0, 1));
    ASSERT_TRUE(pool->Refresh(id).ok());
    const std::string label = matrix ? "matrix" : "no matrix";
    if (matrix) {
      ExpectMatchesOverlayScan(*pool, id, options.psr, label);
      continue;
    }
    for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
      const PsrOutput& out = pool->psr(id, rung);
      // The base scan did find argmaxes; the replay must not keep any.
      EXPECT_NE(pool->base_psr(rung).best_rank_index[0], -1) << label;
      for (size_t h = 0; h < out.k; ++h) {
        EXPECT_EQ(out.best_rank_prob[h], 0.0) << label << " rank " << h + 1;
        EXPECT_EQ(out.best_rank_index[h], -1) << label << " rank " << h + 1;
      }
    }
  }
}

TEST(DatabaseOverlay, RecordsOutcomesWithoutTouchingTheBase) {
  Rng maker(66);
  RandomDbOptions opts;
  opts.num_xtuples = 8;
  opts.max_alternatives = 3;
  const ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);
  DatabaseOverlay overlay(&base);
  EXPECT_EQ(overlay.divergence_rank(), base.num_tuples());

  // Find an x-tuple with several alternatives; collapse to its best real
  // one.
  XTupleId target = -1;
  for (size_t l = 0; l < base.num_xtuples(); ++l) {
    if (base.xtuple_members(static_cast<XTupleId>(l)).size() > 1) {
      target = static_cast<XTupleId>(l);
      break;
    }
  }
  ASSERT_GE(target, 0);
  const auto members = base.xtuple_members(target);
  const Tuple resolved = base.tuple(members.front());
  ASSERT_FALSE(resolved.is_null);

  Result<ProbabilisticDatabase::CleanOutcomeDelta> delta =
      overlay.ApplyCleanOutcome(target, resolved.id);
  ASSERT_TRUE(delta.ok()) << delta.status();
  EXPECT_EQ(delta->first_changed_rank, static_cast<size_t>(members.front()));
  EXPECT_EQ(overlay.divergence_rank(), static_cast<size_t>(members.front()));
  EXPECT_EQ(overlay.num_outcomes(), 1u);
  EXPECT_EQ(overlay.num_tombstones(), members.size() - 1);

  // The overlay view reflects the collapse...
  ASSERT_EQ(overlay.xtuple_members(target).size(), 1u);
  EXPECT_DOUBLE_EQ(overlay.tuple(static_cast<size_t>(members.front())).prob,
                   1.0);
  EXPECT_DOUBLE_EQ(overlay.xtuple_real_mass(target), 1.0);
  for (int32_t idx : members) {
    if (idx == members.front()) continue;
    EXPECT_TRUE(overlay.is_tombstone(static_cast<size_t>(idx)));
  }
  // ...while the base is untouched.
  EXPECT_FALSE(base.has_tombstones());
  EXPECT_EQ(base.xtuple_members(target).size(), members.size());
  EXPECT_LT(base.tuple(members.front()).prob, 1.0);

  // Re-cleaning: same outcome is a no-op, a dropped sibling is NotFound.
  Result<ProbabilisticDatabase::CleanOutcomeDelta> again =
      overlay.ApplyCleanOutcome(target, resolved.id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->first_changed_rank, base.num_tuples());
  EXPECT_EQ(overlay.num_outcomes(), 1u);
  if (members.size() > 1) {
    EXPECT_FALSE(
        overlay.ApplyCleanOutcome(target, base.tuple(members[1]).id).ok());
  }

  // Validation mirrors the in-place path.
  EXPECT_FALSE(overlay.ApplyCleanOutcome(-1, 0).ok());
  EXPECT_FALSE(overlay.ApplyCleanOutcome(999, 0).ok());
  EXPECT_FALSE(overlay.ApplyCleanOutcome(target, 123456).ok());

  // Materialization equals replaying the outcome on a copy.
  ProbabilisticDatabase reference = base;
  ASSERT_TRUE(reference.ApplyCleanOutcome(target, resolved.id).ok());
  reference.CompactTombstones();
  const ProbabilisticDatabase merged = overlay.MaterializeCleaned();
  ASSERT_EQ(merged.num_tuples(), reference.num_tuples());
  for (size_t i = 0; i < reference.num_tuples(); ++i) {
    EXPECT_EQ(merged.tuple(i).id, reference.tuple(i).id);
    EXPECT_DOUBLE_EQ(merged.tuple(i).prob, reference.tuple(i).prob);
  }
}

TEST(SessionPoolDeathTest, DirtyReadsAreAHardFailureInEveryBuildType) {
  // The Release-mode stale-read regression: these guards used to be
  // UCLEAN_DCHECKs, which compile out under NDEBUG -- a dirty session
  // then silently served its pre-clean state. They are UCLEAN_CHECKs now,
  // so this death test must pass in Debug AND Release CI legs alike.
  Rng maker(12);
  RandomDbOptions opts;
  opts.num_xtuples = 8;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), MakeLadder({3}));
  ASSERT_TRUE(pool.ok());
  const SessionPool::SessionId id = pool->OpenSession();
  Rng rng(7);
  const auto outcomes = DrawOutcomes(pool->base(), 1, &rng);
  ASSERT_FALSE(outcomes.empty());
  ASSERT_TRUE(
      pool->ApplyCleanOutcome(id, outcomes[0].first, outcomes[0].second)
          .ok());
  ASSERT_TRUE(pool->dirty(id));
  EXPECT_DEATH(pool->quality(id), "UCLEAN_CHECK failed");
  EXPECT_DEATH(pool->tp(id), "UCLEAN_CHECK failed");
  EXPECT_DEATH(pool->psr(id), "UCLEAN_CHECK failed");
  EXPECT_DEATH(pool->tps(id), "UCLEAN_CHECK failed");
}

#ifndef NDEBUG
/// Two threads hammering a pool's mutating entry points from outside any
/// serialization: the header's "callers serialize access" contract in
/// violated form. The debug-build reentrancy guard must turn the overlap
/// into a hard UCLEAN_CHECK failure (instead of the silent slot-table
/// corruption a release build would risk). Nearly all of each thread's
/// time is spent inside guarded calls (apply + replay-carrying refresh),
/// so an overlap -- and the abort -- is certain within a few scheduler
/// slices even on one core.
TEST(SessionPoolDeathTest, ConcurrentUseTripsTheSerializedCallerGuard) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SyntheticOptions opts;
        opts.num_xtuples = 500;
        opts.real_mass_min = 0.4;
        opts.real_mass_max = 0.9;
        Result<ProbabilisticDatabase> base = GenerateSynthetic(opts);
        UCLEAN_CHECK(base.ok());
        Result<SessionPool> pool =
            SessionPool::Create(std::move(base).value(), MakeLadder({8}));
        UCLEAN_CHECK(pool.ok());
        const auto hammer = [&pool](uint64_t seed) {
          Rng rng(seed);
          const SessionPool::SessionId id = pool->OpenSession();
          for (int iter = 0; iter < 4000; ++iter) {
            const DatabaseOverlay& view = pool->overlay(id);
            const size_t rank = static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(view.num_tuples() - 1)));
            if (view.is_tombstone(rank)) continue;
            const Tuple& t = view.tuple(rank);
            (void)pool->ApplyCleanOutcome(id, t.xtuple, t.id);
            (void)pool->Refresh(id);
          }
        };
        std::thread other([&hammer] { hammer(2); });
        hammer(1);
        other.join();
      },
      "serialized");
}
#endif  // NDEBUG

}  // namespace
}  // namespace uclean
