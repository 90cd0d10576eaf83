// Property tests for the SessionPool: every pooled session -- a
// copy-on-write DatabaseOverlay plus a forked PsrEngine::SessionState over
// ONE shared base scan -- must match a dedicated CleaningSession fed the
// same outcomes to 1e-12 at every rung after every refresh, under
// interleaved cleans across sessions, dedicated-side compaction, and
// open/close churn; close-and-merge must materialize exactly the
// dedicated session's cleaned database; and dirty-state reads must be a
// hard failure in EVERY build type (the Release-mode stale-read
// regression).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/session.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr double kTol = 1e-12;

KLadder MakeLadder(std::vector<size_t> ks) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());
  return std::move(ladder).value();
}

/// Eager-compaction options for the dedicated arm: the pooled arm never
/// compacts (overlays keep base rank indices), so agreement across
/// compaction proves the comparison is representation-independent.
CleaningSession::Options EagerCompaction() {
  CleaningSession::Options options;
  options.compact_min_tombstones = 1;
  options.compact_min_fraction = 0.0;
  return options;
}

/// Top-k probabilities keyed by tuple id (stable across compaction and
/// overlay representation), live tuples only.
std::map<TupleId, double> TopkById(const ProbabilisticDatabase& db,
                                   const PsrOutput& psr) {
  std::map<TupleId, double> out;
  for (size_t i = 0; i < db.num_tuples(); ++i) {
    if (db.is_tombstone(i)) continue;
    out[db.tuple(i).id] = psr.topk_prob[i];
  }
  return out;
}

std::map<TupleId, double> TopkById(const DatabaseOverlay& view,
                                   const PsrOutput& psr) {
  std::map<TupleId, double> out;
  for (size_t i = 0; i < view.num_tuples(); ++i) {
    if (view.is_tombstone(i)) continue;
    out[view.tuple(i).id] = psr.topk_prob[i];
  }
  return out;
}

/// The acceptance property: pooled session `id` agrees with `dedicated`
/// (same outcome stream) at every rung -- qualities, per-x-tuple gain and
/// mass tables, and per-tuple top-k probabilities -- to 1e-12.
void ExpectMatchesDedicated(const SessionPool& pool, SessionPool::SessionId id,
                            const CleaningSession& dedicated) {
  ASSERT_EQ(pool.num_rungs(), dedicated.num_rungs());
  for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
    EXPECT_NEAR(pool.quality(id, rung), dedicated.quality(rung), kTol)
        << "rung " << rung;

    const TpOutput& pool_tp = pool.tp(id, rung);
    const TpOutput& ded_tp = dedicated.tp(rung);
    ASSERT_EQ(pool_tp.xtuple_gain.size(), ded_tp.xtuple_gain.size());
    for (size_t l = 0; l < ded_tp.xtuple_gain.size(); ++l) {
      EXPECT_NEAR(pool_tp.xtuple_gain[l], ded_tp.xtuple_gain[l], kTol)
          << "rung " << rung << " x-tuple " << l;
      EXPECT_NEAR(pool_tp.xtuple_topk_mass[l], ded_tp.xtuple_topk_mass[l],
                  kTol)
          << "rung " << rung << " x-tuple " << l;
    }

    const PsrOutput& pool_psr = pool.psr(id, rung);
    const PsrOutput& ded_psr = dedicated.psr(rung);
    EXPECT_EQ(pool_psr.num_nonzero, ded_psr.num_nonzero) << "rung " << rung;
    const std::map<TupleId, double> pool_topk =
        TopkById(pool.overlay(id), pool_psr);
    const std::map<TupleId, double> ded_topk =
        TopkById(dedicated.db(), ded_psr);
    ASSERT_EQ(pool_topk.size(), ded_topk.size()) << "rung " << rung;
    for (const auto& [tuple_id, prob] : ded_topk) {
      const auto it = pool_topk.find(tuple_id);
      ASSERT_NE(it, pool_topk.end()) << "tuple " << tuple_id;
      EXPECT_NEAR(it->second, prob, kTol)
          << "rung " << rung << " tuple " << tuple_id;
    }
  }
}

/// Draws up to `count` random clean outcomes against the dedicated
/// session's database (ids are stable, so they apply verbatim to the
/// pooled twin); empty when the database is fully certain.
std::vector<std::pair<XTupleId, TupleId>> DrawOutcomes(
    const ProbabilisticDatabase& db, int count, Rng* rng) {
  std::vector<std::pair<XTupleId, TupleId>> outcomes;
  for (int draw = 0; draw < count; ++draw) {
    std::vector<XTupleId> uncertain;
    for (size_t l = 0; l < db.num_xtuples(); ++l) {
      const auto& members = db.xtuple_members(static_cast<XTupleId>(l));
      if (members.size() > 1 || db.tuple(members[0]).prob < 1.0) {
        uncertain.push_back(static_cast<XTupleId>(l));
      }
    }
    if (uncertain.empty()) break;
    const XTupleId l = uncertain[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(uncertain.size()) - 1))];
    bool already = false;
    for (const auto& outcome : outcomes) already |= outcome.first == l;
    if (already) continue;  // one resolution per x-tuple per round
    const auto& members = db.xtuple_members(l);
    std::vector<double> weights;
    for (int32_t idx : members) weights.push_back(db.tuple(idx).prob);
    outcomes.emplace_back(l, db.tuple(members[rng->Discrete(weights)]).id);
  }
  return outcomes;
}

TEST(SessionPool, SessionsMatchDedicatedUnderInterleavedCleans) {
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
  std::vector<CleaningSession> dedicated;
  for (size_t s = 0; s < kSessions; ++s) {
    ids.push_back(pool->OpenSession());
    Result<CleaningSession> single = CleaningSession::Start(
        ProbabilisticDatabase(base), ladder, EagerCompaction());
    ASSERT_TRUE(single.ok()) << single.status();
    dedicated.push_back(std::move(single).value());
  }
  EXPECT_EQ(pool->num_open(), kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    ExpectMatchesDedicated(*pool, ids[s], dedicated[s]);
  }

  Rng rng(99999);
  for (int step = 0; step < 10; ++step) {
    // Sessions advance on their own cadences (session s only cleans every
    // s+1 steps), so refreshes interleave with other sessions' applies.
    for (size_t s = 0; s < kSessions; ++s) {
      if (step % static_cast<int>(s + 1) != 0) continue;
      const auto outcomes =
          DrawOutcomes(dedicated[s].db(), 1 + static_cast<int>(s % 2), &rng);
      for (const auto& [xtuple, resolved] : outcomes) {
        ASSERT_TRUE(pool->ApplyCleanOutcome(ids[s], xtuple, resolved).ok());
        ASSERT_TRUE(dedicated[s].ApplyCleanOutcome(xtuple, resolved).ok());
      }
    }
    // Refresh pooled sessions in reverse order, dedicated in forward
    // order: agreement despite the asymmetry shows refreshes are
    // order-independent across sessions.
    for (size_t s = kSessions; s-- > 0;) {
      ASSERT_TRUE(pool->Refresh(ids[s]).ok());
    }
    for (size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(dedicated[s].Refresh().ok());
      ExpectMatchesDedicated(*pool, ids[s], dedicated[s]);
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
    EXPECT_NEAR(pool->quality(reused, rung), pool->base_tp(rung).quality,
                0.0);
  }

  // A session opened mid-stream behaves exactly like a dedicated session
  // started from the base now.
  Result<CleaningSession> dedicated = CleaningSession::Start(
      ProbabilisticDatabase(base), ladder, EagerCompaction());
  ASSERT_TRUE(dedicated.ok());
  for (int round = 0; round < 4; ++round) {
    for (const auto& [xtuple, resolved] :
         DrawOutcomes(dedicated->db(), 2, &rng)) {
      ASSERT_TRUE(pool->ApplyCleanOutcome(reused, xtuple, resolved).ok());
      ASSERT_TRUE(dedicated->ApplyCleanOutcome(xtuple, resolved).ok());
    }
    ASSERT_TRUE(pool->Refresh(reused).ok());
    ASSERT_TRUE(dedicated->Refresh().ok());
    ExpectMatchesDedicated(*pool, reused, *dedicated);
  }
}

TEST(SessionPool, CloseAndMergeMaterializesTheDedicatedDatabase) {
  Rng maker(2024);
  RandomDbOptions opts;
  opts.num_xtuples = 14;
  opts.max_alternatives = 3;
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, opts);

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), /*k=*/4);
  ASSERT_TRUE(pool.ok());
  const SessionPool::SessionId id = pool->OpenSession();
  Result<CleaningSession> dedicated =
      CleaningSession::Start(ProbabilisticDatabase(base), /*k=*/4);
  ASSERT_TRUE(dedicated.ok());

  Rng rng(55);
  for (const auto& [xtuple, resolved] : DrawOutcomes(base, 5, &rng)) {
    ASSERT_TRUE(pool->ApplyCleanOutcome(id, xtuple, resolved).ok());
    ASSERT_TRUE(dedicated->ApplyCleanOutcome(xtuple, resolved).ok());
  }
  // Merge the still-dirty session: materialization consumes the recorded
  // outcomes, not the (deliberately stale) scan state.
  ASSERT_TRUE(pool->dirty(id));
  Result<ProbabilisticDatabase> merged = pool->CloseAndMerge(id);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(pool->num_open(), 0u);

  const ProbabilisticDatabase reference = std::move(*dedicated).TakeDatabase();
  ASSERT_EQ(merged->num_tuples(), reference.num_tuples());
  EXPECT_FALSE(merged->has_tombstones());
  for (size_t i = 0; i < reference.num_tuples(); ++i) {
    const Tuple& a = merged->tuple(i);
    const Tuple& b = reference.tuple(i);
    EXPECT_EQ(a.id, b.id) << "rank " << i;
    EXPECT_EQ(a.xtuple, b.xtuple) << "rank " << i;
    EXPECT_EQ(a.is_null, b.is_null) << "rank " << i;
    EXPECT_DOUBLE_EQ(a.prob, b.prob) << "rank " << i;
    EXPECT_DOUBLE_EQ(a.score, b.score) << "rank " << i;
  }
}

TEST(SessionPool, ExecutePlanOverloadMatchesDedicatedSession) {
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
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Result<SessionPool> pool =
        SessionPool::Create(ProbabilisticDatabase(base), k);
    ASSERT_TRUE(pool.ok());
    const SessionPool::SessionId id = pool->OpenSession();
    Result<CleaningSession> session =
        CleaningSession::Start(ProbabilisticDatabase(base), k);
    ASSERT_TRUE(session.ok());

    Rng rng_a(seed), rng_b(seed);
    Result<SessionExecutionReport> pooled =
        ExecutePlan(&*pool, id, profile, probes, &rng_a);
    ASSERT_TRUE(pooled.ok()) << pooled.status();
    Result<SessionExecutionReport> single =
        ExecutePlan(&*session, profile, probes, &rng_b);
    ASSERT_TRUE(single.ok());

    EXPECT_EQ(pooled->spent, single->spent);
    EXPECT_EQ(pooled->leftover, single->leftover);
    EXPECT_EQ(pooled->successes, single->successes);
    ASSERT_EQ(pooled->log.size(), single->log.size());
    for (size_t j = 0; j < single->log.size(); ++j) {
      EXPECT_EQ(pooled->log[j].resolved_id, single->log[j].resolved_id);
    }
    ASSERT_TRUE(pool->Refresh(id).ok());
    ASSERT_TRUE(session->Refresh().ok());
    ExpectMatchesDedicated(*pool, id, *session);
  }
}

TEST(SessionPool, ValidatesArguments) {
  Rng maker(5);
  ProbabilisticDatabase base = MakeRandomDatabase(&maker, {});

  EXPECT_FALSE(SessionPool::Create(ProbabilisticDatabase(base), 0).ok());
  KLadder bad;
  bad.ks = {5, 3};
  EXPECT_FALSE(SessionPool::Create(ProbabilisticDatabase(base), bad).ok());

  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(base), 2);
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

void ExpectTpBitwiseEq(const TpOutput& a, const TpOutput& b) {
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.scan_end, b.scan_end);
  EXPECT_EQ(a.omega, b.omega);
  EXPECT_EQ(a.xtuple_gain, b.xtuple_gain);
  EXPECT_EQ(a.xtuple_topk_mass, b.xtuple_topk_mass);
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
                                    &eager_tps)
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
    ExpectTpBitwiseEq(pool->tp(id, rung), eager_tps[rung]);
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
  std::vector<CleaningSession> dedicated;
  for (size_t s = 0; s < kSessions; ++s) {
    ids.push_back(pool->OpenSession());
    Result<CleaningSession> single = CleaningSession::Start(
        ProbabilisticDatabase(base), ladder, EagerCompaction());
    ASSERT_TRUE(single.ok()) << single.status();
    dedicated.push_back(std::move(single).value());
  }
  Rng rng(2718);
  for (int round = 0; round < 3; ++round) {
    for (size_t s = 0; s < kSessions; s += 2) {
      for (const auto& [xtuple, resolved] :
           DrawOutcomes(dedicated[s].db(), 2, &rng)) {
        ASSERT_TRUE(pool->ApplyCleanOutcome(ids[s], xtuple, resolved).ok());
        ASSERT_TRUE(dedicated[s].ApplyCleanOutcome(xtuple, resolved).ok());
      }
      ASSERT_TRUE(dedicated[s].Refresh().ok());
    }
    ASSERT_TRUE(pool->RefreshAll().ok());
    for (size_t s = 0; s < kSessions; ++s) {
      EXPECT_FALSE(pool->dirty(ids[s]));
      if (s % 2 == 1) ExpectAliasesBase(*pool, ids[s]);
      ExpectMatchesDedicated(*pool, ids[s], dedicated[s]);
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
      SessionPool::Create(ProbabilisticDatabase(base), 3);
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

  Result<CleaningSession> session = CleaningSession::Start(std::move(base), 3);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      session->ApplyCleanOutcome(outcomes[0].first, outcomes[0].second).ok());
  ASSERT_TRUE(session->dirty());
  EXPECT_DEATH(session->quality(), "UCLEAN_CHECK failed");
  EXPECT_DEATH(session->tp(), "UCLEAN_CHECK failed");
  EXPECT_DEATH(session->psr(), "UCLEAN_CHECK failed");
  EXPECT_DEATH(session->tps(), "UCLEAN_CHECK failed");
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
            SessionPool::Create(std::move(base).value(), 8);
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

/// Same violated contract against a dedicated CleaningSession: its
/// serialized-caller guard was promoted from documentation to a
/// SerialGate capability alongside the pool's, so two threads driving
/// one session must abort the same way.
TEST(SessionPoolDeathTest, ConcurrentSessionUseTripsTheSerializedGuard) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SyntheticOptions opts;
        opts.num_xtuples = 500;
        opts.real_mass_min = 0.4;
        opts.real_mass_max = 0.9;
        Result<ProbabilisticDatabase> base = GenerateSynthetic(opts);
        UCLEAN_CHECK(base.ok());
        Result<CleaningSession> session =
            CleaningSession::Start(std::move(base).value(), 8);
        UCLEAN_CHECK(session.ok());
        const auto hammer = [&session](uint64_t seed) {
          Rng rng(seed);
          for (int iter = 0; iter < 4000; ++iter) {
            const ProbabilisticDatabase& view = session->db();
            const size_t rank = static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(view.num_tuples() - 1)));
            if (view.is_tombstone(rank)) continue;
            const Tuple& t = view.tuple(rank);
            (void)session->ApplyCleanOutcome(t.xtuple, t.id);
            (void)session->Refresh();
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
