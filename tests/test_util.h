// Shared helpers for randomized/property tests: small random databases with
// controlled shape (so brute-force oracles stay tractable), ScanRequest-
// based one-line scan wrappers so every test drives the request API of
// rank/psr.h, and the from-scratch overlay reference that every cleaning
// session's maintained state must equal bitwise.

#ifndef UCLEAN_TESTS_TEST_UTIL_H_
#define UCLEAN_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "clean/session_pool.h"
#include "common/check.h"
#include "common/rng.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "quality/tp.h"
#include "rank/psr.h"

namespace uclean {

/// Single-k scan through the request API (the shape most tests want).
inline Result<PsrOutput> ScanPsr(const ProbabilisticDatabase& db, size_t k,
                                 const PsrOptions& options = {}) {
  Result<ScanRequest> request = ScanRequest::ForK(k, options);
  if (!request.ok()) return request.status();
  Result<ScanResult> scan = ComputePsrLadder(db, *request);
  if (!scan.ok()) return scan.status();
  return std::move(scan->outputs[0]);
}

/// Ladder scan through the request API, unwrapped to the per-rung vector.
inline Result<std::vector<PsrOutput>> ScanPsrLadder(
    const ProbabilisticDatabase& db, const KLadder& ladder,
    const PsrOptions& options = {}, const ExecOptions& exec = {}) {
  ScanRequest request;
  request.ladder = ladder;
  request.psr = options;
  request.exec = exec;
  Result<ScanResult> scan = ComputePsrLadder(db, request);
  if (!scan.ok()) return scan.status();
  return std::move(scan->outputs);
}

/// From-scratch ladder scan of a session's copy-on-write view: the
/// reference a session's replayed state must equal bitwise.
inline Result<std::vector<PsrOutput>> ScanOverlayLadder(
    const DatabaseOverlay& view, const KLadder& ladder,
    const PsrOptions& options = {}, const ExecOptions& exec = {}) {
  ScanRequest request;
  request.ladder = ladder;
  request.psr = options;
  request.exec = exec;
  request.overlay = &view;
  Result<ScanResult> scan = ComputePsrLadder(view.base(), request);
  if (!scan.ok()) return scan.status();
  return std::move(scan->outputs);
}

/// Bitwise PSR equality. The per-rank argmaxes are compared only when the
/// rank matrix is stored: a replay without it resets them to the empty
/// answer by contract (rank/psr_engine.h), where a full scan tracks them.
inline void ExpectPsrBitwiseEq(const PsrOutput& got, const PsrOutput& want,
                               const std::string& label) {
  ASSERT_EQ(got.k, want.k) << label;
  EXPECT_EQ(got.scan_end, want.scan_end) << label;
  EXPECT_EQ(got.num_nonzero, want.num_nonzero) << label;
  EXPECT_TRUE(got.topk_prob == want.topk_prob) << label << " topk_prob";
  ASSERT_EQ(got.has_rank_probabilities, want.has_rank_probabilities)
      << label;
  if (want.has_rank_probabilities) {
    EXPECT_TRUE(got.rank_prob == want.rank_prob) << label << " rank_prob";
    EXPECT_TRUE(got.best_rank_prob == want.best_rank_prob)
        << label << " best_rank_prob";
    EXPECT_TRUE(got.best_rank_index == want.best_rank_index)
        << label << " best_rank_index";
  }
}

/// Bitwise TP equality, every field.
inline void ExpectTpBitwiseEq(const TpOutput& got, const TpOutput& want,
                              const std::string& label) {
  EXPECT_EQ(got.quality, want.quality) << label;
  EXPECT_EQ(got.scan_end, want.scan_end) << label;
  EXPECT_TRUE(got.omega == want.omega) << label << " omega";
  EXPECT_TRUE(got.xtuple_gain == want.xtuple_gain) << label << " gain";
  EXPECT_TRUE(got.xtuple_topk_mass == want.xtuple_topk_mass)
      << label << " topk mass";
}

/// The session equivalence property: pooled session `id`'s maintained
/// PSR + TP state equals, bitwise at every rung, a from-scratch
/// ComputePsrLadder + ComputeTpQuality over its overlay. `options` must
/// be the pool's PSR options.
inline void ExpectMatchesOverlayScan(const SessionPool& pool,
                                     SessionPool::SessionId id,
                                     const PsrOptions& options = {},
                                     const std::string& label = "") {
  const DatabaseOverlay& view = pool.overlay(id);
  Result<std::vector<PsrOutput>> scan =
      ScanOverlayLadder(view, pool.ladder(), options);
  ASSERT_TRUE(scan.ok()) << scan.status();
  for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
    const std::string at = label + " k=" + std::to_string(pool.ladder()[rung]);
    ExpectPsrBitwiseEq(pool.psr(id, rung), (*scan)[rung], at);
    Result<TpOutput> tp = ComputeTpQuality(view, (*scan)[rung]);
    ASSERT_TRUE(tp.ok()) << tp.status();
    ExpectTpBitwiseEq(pool.tp(id, rung), *tp, at);
    EXPECT_EQ(pool.quality(id, rung), tp->quality) << at;
  }
}

/// Draws a clean outcome for a random still-uncertain x-tuple of `view`
/// (a database or a session overlay), revealed by its existential
/// distribution. Returns false when every x-tuple is already certain.
template <typename View>
bool DrawRandomOutcome(const View& view, Rng* rng,
                       std::pair<XTupleId, TupleId>* outcome) {
  std::vector<XTupleId> uncertain;
  for (size_t l = 0; l < view.num_xtuples(); ++l) {
    const auto& members = view.xtuple_members(static_cast<XTupleId>(l));
    if (members.size() > 1 || view.tuple(members[0]).prob < 1.0) {
      uncertain.push_back(static_cast<XTupleId>(l));
    }
  }
  if (uncertain.empty()) return false;
  const XTupleId l = uncertain[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(uncertain.size()) - 1))];
  const auto& members = view.xtuple_members(l);
  std::vector<double> weights;
  for (int32_t idx : members) weights.push_back(view.tuple(idx).prob);
  // A null alternative's id is negative, which selects the null outcome.
  *outcome = {l, view.tuple(members[rng->Discrete(weights)]).id};
  return true;
}

/// Finds an uncertain x-tuple of `db` whose best-ranked member sits in
/// [begin, end) and resolves it to that member: recording the outcome in
/// an overlay first changes exactly that rank, so a session replay of it
/// restores the last checkpoint at or before the rank. Returns false when
/// no x-tuple qualifies.
inline bool FindCleanFirstChangingIn(const ProbabilisticDatabase& db,
                                     size_t begin, size_t end,
                                     std::pair<XTupleId, TupleId>* outcome) {
  for (size_t r = begin; r < end && r < db.num_tuples(); ++r) {
    const Tuple& t = db.tuple(r);
    const auto& members = db.xtuple_members(t.xtuple);
    if (static_cast<size_t>(members.front()) != r) continue;
    if (members.size() == 1 && t.prob >= 1.0) continue;  // already certain
    *outcome = {t.xtuple, t.id};
    return true;
  }
  return false;
}

/// Applies one DrawRandomOutcome to pooled session `id`; false when the
/// session's view is fully certain.
inline bool ApplyRandomOutcome(SessionPool* pool, SessionPool::SessionId id,
                               Rng* rng) {
  std::pair<XTupleId, TupleId> outcome;
  if (!DrawRandomOutcome(pool->overlay(id), rng, &outcome)) return false;
  Status s = pool->ApplyCleanOutcome(id, outcome.first, outcome.second);
  EXPECT_TRUE(s.ok()) << s;
  return true;
}

struct RandomDbOptions {
  size_t num_xtuples = 4;
  size_t max_alternatives = 3;   // per x-tuple, uniform in [1, max]
  bool allow_subunit_mass = true;  // if true, ~half the x-tuples get mass < 1
  double score_min = 0.0;
  double score_max = 100.0;
};

/// Builds a random database; deterministic given the rng state.
inline ProbabilisticDatabase MakeRandomDatabase(Rng* rng,
                                                const RandomDbOptions& opts) {
  DatabaseBuilder builder;
  TupleId next_id = 0;
  for (size_t l = 0; l < opts.num_xtuples; ++l) {
    XTupleId x = builder.AddXTuple();
    const size_t alts = static_cast<size_t>(
        rng->UniformInt(1, static_cast<int64_t>(opts.max_alternatives)));
    // Random positive weights normalized to the target mass.
    std::vector<double> weights(alts);
    double total = 0.0;
    for (double& w : weights) {
      w = rng->Uniform(0.05, 1.0);
      total += w;
    }
    const double mass = (opts.allow_subunit_mass && rng->Bernoulli(0.5))
                            ? rng->Uniform(0.3, 0.95)
                            : 1.0;
    for (size_t a = 0; a < alts; ++a) {
      const double score = rng->Uniform(opts.score_min, opts.score_max);
      Status s = builder.AddAlternative(x, next_id++, score,
                                        mass * weights[a] / total);
      UCLEAN_CHECK(s.ok());
    }
  }
  Result<ProbabilisticDatabase> db = std::move(builder).Finish();
  UCLEAN_CHECK(db.ok());
  return std::move(db).value();
}

}  // namespace uclean

#endif  // UCLEAN_TESTS_TEST_UTIL_H_
