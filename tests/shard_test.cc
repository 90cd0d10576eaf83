// Tests for the execution subsystem (exec/thread_pool.h) and the sharded
// parallel PSR scan (rank/sharded_scan.h): ParallelFor/TaskGroup
// semantics, ExecOptions validation, and the load-bearing equivalence
// contract -- parallel scans must match the sequential path to 1e-12
// (bit-for-bit in practice: shard cuts sit on the count-refresh grid, so
// boundary states share the sequential arithmetic lineage) for every
// thread/shard count, on both saturating (unit-mass) and head-mass-stop
// (sub-unit-mass) workloads, and session replays and pooled refreshes
// must match the sequential pool and a from-scratch overlay scan
// bitwise. Also covers the shard cut-point primitive directly: a session
// replay restored from EVERY checkpoint rank of a scanned database,
// including ranks past a shallow rung's Lemma-2 stop, reproduces the
// from-scratch scan of its overlay.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "clean/session_pool.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "test_util.h"
#include "rank/psr_engine.h"
#include "rank/psr_scan_core.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr double kTol = 1e-12;

KLadder MakeLadder(std::vector<size_t> ks) {
  Result<KLadder> ladder = KLadder::Of(std::move(ks));
  UCLEAN_CHECK(ladder.ok());
  return std::move(ladder).value();
}

ExecOptions Threads(size_t n) {
  ExecOptions exec;
  exec.num_threads = n;
  Result<ExecOptions> resolved = ResolveExec(std::move(exec));
  UCLEAN_CHECK(resolved.ok());
  return std::move(resolved).value();
}

/// A database whose deepest-rung scan crosses several count-refresh grid
/// intervals (kCountRefreshGridLive live tuples each), so the sharded
/// path genuinely cuts; sub-unit masses keep every x-tuple unsaturated
/// (head-mass stop rule, widest count vectors).
ProbabilisticDatabase MakeSubunitDb(size_t num_xtuples = 2000) {
  SyntheticOptions opts;
  opts.num_xtuples = num_xtuples;
  opts.real_mass_min = 0.2;
  opts.real_mass_max = 0.5;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

ProbabilisticDatabase MakeUnitDb(size_t num_xtuples = 2000) {
  SyntheticOptions opts;
  opts.num_xtuples = num_xtuples;
  Result<ProbabilisticDatabase> db = GenerateSynthetic(opts);
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

/// Max abs elementwise difference, with the offending index in
/// *arg_max; one assert per array keeps million-entry comparisons cheap.
double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b,
                  size_t* arg_max) {
  UCLEAN_CHECK(a.size() == b.size());
  double max_diff = 0.0;
  *arg_max = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] < b[i] ? b[i] - a[i] : a[i] - b[i];
    if (diff > max_diff) {
      max_diff = diff;
      *arg_max = i;
    }
  }
  return max_diff;
}

void ExpectPsrEqual(const PsrOutput& seq, const PsrOutput& par,
                    const std::string& label) {
  ASSERT_EQ(seq.k, par.k) << label;
  EXPECT_EQ(seq.scan_end, par.scan_end) << label;
  EXPECT_EQ(seq.num_nonzero, par.num_nonzero) << label;
  size_t at = 0;
  ASSERT_LE(MaxAbsDiff(seq.topk_prob, par.topk_prob, &at), kTol)
      << label << " topk_prob at tuple " << at;
  ASSERT_LE(MaxAbsDiff(seq.best_rank_prob, par.best_rank_prob, &at), kTol)
      << label << " best_rank_prob at rank " << at + 1;
  for (size_t h = 0; h < seq.k; ++h) {
    EXPECT_EQ(seq.best_rank_index[h], par.best_rank_index[h])
        << label << " rank " << h + 1;
  }
  ASSERT_EQ(seq.has_rank_probabilities, par.has_rank_probabilities) << label;
  if (seq.has_rank_probabilities) {
    ASSERT_LE(MaxAbsDiff(seq.rank_prob, par.rank_prob, &at), kTol)
        << label << " rank_prob at entry " << at;
  }
}

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEdgeCases) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
  // Fewer items than threads.
  count = 0;
  pool.ParallelFor(2, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 2);
  // A single-thread pool runs inline.
  ThreadPool inline_pool(1);
  count = 0;
  inline_pool.ParallelFor(100, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, TaskGroupRunsAllTasksAndNestedWorkRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  {
    ThreadPool::TaskGroup group(&pool);
    for (int t = 0; t < 16; ++t) {
      group.Run([&] {
        ++outer;
        // Nested parallelism from a worker degrades to inline execution
        // instead of deadlocking the fixed-size pool.
        pool.ParallelFor(8, [&](size_t) { ++inner; });
      });
    }
    group.Wait();
  }
  EXPECT_EQ(outer.load(), 16);
  EXPECT_EQ(inner.load(), 16 * 8);
  // A null-pool group is the sequential path.
  ThreadPool::TaskGroup seq_group(nullptr);
  int calls = 0;
  seq_group.Run([&] { ++calls; });
  seq_group.Wait();
  EXPECT_EQ(calls, 1);
}

TEST(ExecOptionsTest, ResolveExecValidates) {
  ExecOptions zero;
  zero.num_threads = 0;
  EXPECT_FALSE(ResolveExec(zero).ok());
  ExecOptions too_many;
  too_many.num_threads = ThreadPool::kMaxThreads + 1;
  EXPECT_FALSE(ResolveExec(too_many).ok());

  Result<ExecOptions> one = ResolveExec(ExecOptions{});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->pool, nullptr);  // sequential: no pool, no threads
  EXPECT_FALSE(one->parallel());

  ExecOptions four;
  four.num_threads = 4;
  Result<ExecOptions> resolved = ResolveExec(four);
  ASSERT_TRUE(resolved.ok());
  ASSERT_NE(resolved->pool, nullptr);
  EXPECT_EQ(resolved->pool->num_threads(), 4u);
  EXPECT_TRUE(resolved->parallel());

  // A pre-built pool is kept and num_threads aligned to it.
  ExecOptions preset;
  preset.num_threads = 99;
  preset.pool = resolved->pool;
  Result<ExecOptions> kept = ResolveExec(preset);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->pool, resolved->pool);
  EXPECT_EQ(kept->num_threads, 4u);
}

// ------------------------------------------------- sharded equivalence

TEST(ShardedScanTest, OneShotLadderMatchesSequentialAcrossThreadCounts) {
  const KLadder ladder = MakeLadder({16, 256, 512});
  for (const bool subunit : {true, false}) {
    const ProbabilisticDatabase db = subunit ? MakeSubunitDb() : MakeUnitDb();
    Result<std::vector<PsrOutput>> seq = ScanPsrLadder(db, ladder);
    ASSERT_TRUE(seq.ok()) << seq.status();
    // The deep rungs must cross the refresh grid or no cuts exist and
    // the test exercises nothing.
    ASSERT_GT(seq->back().scan_end, psr_internal::kCountRefreshGridLive);
    for (const size_t threads : {2u, 3u, 8u}) {
      Result<std::vector<PsrOutput>> par =
          ScanPsrLadder(db, ladder, {}, Threads(threads));
      ASSERT_TRUE(par.ok()) << par.status();
      for (size_t j = 0; j < ladder.size(); ++j) {
        ExpectPsrEqual(
            (*seq)[j], (*par)[j],
            (subunit ? "subunit" : "unit") + std::string(" threads=") +
                std::to_string(threads) + " k=" +
                std::to_string(ladder[j]));
      }
    }
  }
}

TEST(ShardedScanTest, MatrixAndArgmaxesMatchWithStoredProbabilities) {
  const ProbabilisticDatabase db = MakeSubunitDb(1200);
  const KLadder ladder = MakeLadder({8, 96});
  PsrOptions options;
  options.store_rank_probabilities = true;
  Result<std::vector<PsrOutput>> seq = ScanPsrLadder(db, ladder, options);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_GT(seq->back().scan_end, psr_internal::kCountRefreshGridLive);
  Result<std::vector<PsrOutput>> par =
      ScanPsrLadder(db, ladder, options, Threads(4));
  ASSERT_TRUE(par.ok()) << par.status();
  for (size_t j = 0; j < ladder.size(); ++j) {
    ExpectPsrEqual((*seq)[j], (*par)[j],
                   "matrix k=" + std::to_string(ladder[j]));
  }
}

/// Interleaves cleans and refreshes on a session of an 8-thread pool and
/// one of a sequential pool fed identical outcomes; every refresh must
/// land both sessions on the same maintained PSR + TP state, bitwise, at
/// every rung.
TEST(ShardedScanTest, SessionReplaysMatchSequentialUnderCleans) {
  const ProbabilisticDatabase db = MakeSubunitDb();
  const KLadder ladder = MakeLadder({16, 384});

  SessionPool::Options par_options;
  par_options.exec.num_threads = 8;
  Result<SessionPool> seq =
      SessionPool::Create(ProbabilisticDatabase(db), ladder);
  Result<SessionPool> par =
      SessionPool::Create(ProbabilisticDatabase(db), ladder, par_options);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_TRUE(par.ok()) << par.status();
  const SessionPool::SessionId seq_id = seq->OpenSession();
  const SessionPool::SessionId par_id = par->OpenSession();

  Rng rng(20260728);
  for (int round = 0; round < 4; ++round) {
    // A couple of cleans per round, drawn inside the scanned region so
    // the replay suffix is non-trivial; resolve by the existential
    // distribution (sometimes to absent). The scan depth is read once up
    // front -- psr() on a dirty session is a hard failure by contract.
    const size_t scan_end = seq->psr(seq_id, ladder.size() - 1).scan_end;
    for (int c = 0; c < 2; ++c) {
      const size_t rank = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(scan_end - 1)));
      const DatabaseOverlay& view = seq->overlay(seq_id);
      if (view.is_tombstone(rank)) continue;
      const Tuple& t = view.tuple(rank);
      const TupleId resolved = rng.Bernoulli(0.3) ? TupleId{-1} : t.id;
      Status s1 = seq->ApplyCleanOutcome(seq_id, t.xtuple, resolved);
      Status s2 = par->ApplyCleanOutcome(par_id, t.xtuple, resolved);
      ASSERT_EQ(s1.ok(), s2.ok());
    }
    ASSERT_TRUE(seq->Refresh(seq_id).ok());
    ASSERT_TRUE(par->Refresh(par_id).ok());
    for (size_t j = 0; j < ladder.size(); ++j) {
      const std::string label =
          "round " + std::to_string(round) + " k=" + std::to_string(ladder[j]);
      ExpectPsrBitwiseEq(par->psr(par_id, j), seq->psr(seq_id, j), label);
      ExpectTpBitwiseEq(par->tp(par_id, j), seq->tp(seq_id, j), label);
    }
  }
}

// ------------------------------------- checkpoint cut-point coverage

/// The shard primitive, exercised at every restore point the engine has.
/// For each shared checkpoint p, a session cleans an x-tuple whose best
/// member ranks in [p, next checkpoint), so its replay restores exactly
/// p and rescans the suffix (ScanFrom(p) via ReplaySession). The replayed
/// state must equal a from-scratch scan of the same overlay bitwise at
/// every rung -- including restore points past the shallow rung's
/// Lemma-2 stop, where the replay must leave that rung's latched output
/// untouched.
TEST(ShardedScanTest, ScanFromEveryCheckpointRankMatchesFullScan) {
  const ProbabilisticDatabase db = MakeSubunitDb(800);
  const KLadder ladder = MakeLadder({4, 160});
  // With the matrix on, a replay also re-derives the per-rank argmaxes
  // (through the pool-fanned FinalizeAggregates), so the comparison
  // covers every aggregate; without it a replay resets them by contract.
  PsrOptions options;
  options.store_rank_probabilities = true;
  for (const size_t threads : {1u, 4u}) {
    ScanRequest request;
    request.ladder = ladder;
    request.psr = options;
    request.exec = Threads(threads);
    Result<PsrEngine> engine = PsrEngine::Create(db, request);
    ASSERT_TRUE(engine.ok()) << engine.status();
    const std::vector<size_t> positions = engine->checkpoint_positions();
    ASSERT_GT(positions.size(), 4u);
    // The shallow rung stops early; the deep rung keeps checkpointing
    // past it, so restarts beyond a latched rung are really covered.
    const size_t shallow_end = engine->output(0).scan_end;
    ASSERT_LT(shallow_end, engine->output(1).scan_end);
    ASSERT_GT(positions.back(), shallow_end);
    size_t restarts = 0;
    size_t past_shallow = 0;
    for (size_t c = 0; c < positions.size(); ++c) {
      const size_t pos = positions[c];
      const size_t next =
          c + 1 < positions.size() ? positions[c + 1] : db.num_tuples();
      std::pair<XTupleId, TupleId> outcome;
      if (!FindCleanFirstChangingIn(db, pos, next, &outcome)) continue;
      DatabaseOverlay overlay(&db);
      Result<ProbabilisticDatabase::CleanOutcomeDelta> delta =
          overlay.ApplyCleanOutcome(outcome.first, outcome.second);
      ASSERT_TRUE(delta.ok()) << delta.status();
      ASSERT_GE(delta->first_changed_rank, pos);
      ASSERT_LT(delta->first_changed_rank, next);
      PsrEngine::SessionState state = engine->ForkSession();
      ASSERT_TRUE(
          engine->ReplaySession(overlay, delta->first_changed_rank, &state)
              .ok())
          << "restart at " << pos;
      Result<std::vector<PsrOutput>> scratch =
          ScanOverlayLadder(overlay, ladder, options);
      ASSERT_TRUE(scratch.ok()) << scratch.status();
      for (size_t j = 0; j < ladder.size(); ++j) {
        ExpectPsrBitwiseEq(state.output(j), (*scratch)[j],
                           "threads=" + std::to_string(threads) +
                               " restart at " + std::to_string(pos) +
                               " k=" + std::to_string(ladder[j]));
      }
      ++restarts;
      if (pos > shallow_end) ++past_shallow;
    }
    // Nearly every checkpoint interval holds some x-tuple's best member.
    EXPECT_GE(restarts + 2, positions.size()) << "threads=" << threads;
    EXPECT_GT(past_shallow, 0u) << "threads=" << threads;
  }
}

// --------------------------------------------- pooled refresh fan-out

TEST(SessionPoolParallelTest, RefreshAllMatchesIndividualAndOverlayScan) {
  const ProbabilisticDatabase db = MakeSubunitDb(1200);
  const KLadder ladder = MakeLadder({8, 192});
  constexpr size_t kSessions = 4;

  SessionPool::Options par_options;
  par_options.exec.num_threads = 4;
  Result<SessionPool> par =
      SessionPool::Create(ProbabilisticDatabase(db), ladder, par_options);
  Result<SessionPool> seq =
      SessionPool::Create(ProbabilisticDatabase(db), ladder);
  ASSERT_TRUE(par.ok()) << par.status();
  ASSERT_TRUE(seq.ok()) << seq.status();

  std::vector<SessionPool::SessionId> par_ids, seq_ids;
  for (size_t s = 0; s < kSessions; ++s) {
    par_ids.push_back(par->OpenSession());
    seq_ids.push_back(seq->OpenSession());
  }

  Rng rng(777);
  for (int round = 0; round < 3; ++round) {
    // Distinct per-session outcome streams; session kSessions - 1 stays
    // clean in round 1 so RefreshAll also covers the mixed dirty/clean
    // case.
    for (size_t s = 0; s < kSessions; ++s) {
      if (round == 1 && s == kSessions - 1) continue;
      const size_t scan_end =
          seq->psr(seq_ids[s], ladder.size() - 1).scan_end;
      const size_t rank = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(scan_end - 1)));
      const DatabaseOverlay& view = par->overlay(par_ids[s]);
      if (view.is_tombstone(rank)) continue;
      const Tuple& t = view.tuple(rank);
      // Both pools must agree on whether the outcome is applicable (an
      // x-tuple may already be certain from an earlier round).
      const bool par_ok =
          par->ApplyCleanOutcome(par_ids[s], t.xtuple, t.id).ok();
      const bool seq_ok =
          seq->ApplyCleanOutcome(seq_ids[s], t.xtuple, t.id).ok();
      ASSERT_EQ(par_ok, seq_ok);
    }
    // One concurrent fan-out vs per-session refreshes vs each session's
    // from-scratch overlay scan: all three must land on identical state.
    ASSERT_TRUE(par->RefreshAll().ok());
    for (size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(seq->Refresh(seq_ids[s]).ok());
    }
    for (size_t s = 0; s < kSessions; ++s) {
      const std::string label = "round " + std::to_string(round) +
                                " session " + std::to_string(s);
      for (size_t j = 0; j < ladder.size(); ++j) {
        const std::string at = label + " k=" + std::to_string(ladder[j]);
        ExpectPsrBitwiseEq(par->psr(par_ids[s], j), seq->psr(seq_ids[s], j),
                           at);
        ExpectTpBitwiseEq(par->tp(par_ids[s], j), seq->tp(seq_ids[s], j), at);
      }
      ExpectMatchesOverlayScan(*par, par_ids[s], {}, label);
    }
  }
  // RefreshAll on an all-clean pool is a no-op.
  ASSERT_TRUE(par->RefreshAll().ok());
}

}  // namespace
}  // namespace uclean
