// Measures the SessionPool: N concurrent cleaning sessions over ONE
// shared base database and ONE checkpointed ladder scan, against N
// dedicated sessions -- N one-session pools, each paying its own
// database copy, full PSR scan, checkpoint set and TP pass -- on session
// start-up plus cleaning rounds with identical per-session outcome
// streams.
//
// The pool's win is amortization: opening a pooled session forks the base
// scan state (a memcpy) instead of re-scanning, and every session's
// refresh replays only its own overlay suffix from the shared
// checkpoints. Per-round replay work is the same as a dedicated
// session's, so the speedup is driven by the start-up side -- exactly
// the cost that multiplies with the user count. The bench therefore
// reports three session-lifetime regimes: "oneshot" (waves of sessions
// that plan once, execute one probe batch and close -- the paper's
// Section V flow per concurrent analyst, where open cost dominates),
// "interactive" (waves of 2-round adaptive bursts with churn) and
// "batch" (one long-lived wave of 10 rounds per session, where the
// shared replay machinery merely has to keep up with dedicated
// sessions).
//
// All arms must land on identical per-session per-round qualities at
// every rung; the bench asserts that to 1e-12 and tools/check_bench.py
// gates the recorded difference at exactly 0 (same scan arithmetic, same
// restored snapshots).
//
// Output: a per-series table on stdout and a machine-readable
// BENCH_pool.json gated by tools/check_bench.py in CI. Acceptance
// target: >= 2x end-to-end at N=8 sessions vs dedicated -- the oneshot
// series are the gated acceptance rows (~2.5-2.9x locally); interactive
// lands around 2x and batch records the keep-up regime (~1.25x).

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "model/database.h"
#include "rank/psr.h"
#include "workload/synthetic.h"

namespace uclean {
namespace {

constexpr size_t kCleansPerRound = 2;
constexpr uint64_t kOutcomeSeed = 20260728;

/// A session-lifetime pattern: `waves` successive generations of
/// `sessions` concurrent sessions, each living for `rounds` cleaning
/// rounds before closing.
struct Regime {
  const char* name;
  size_t waves;
  size_t rounds;
};

/// One session's pre-drawn outcome stream: outcomes[round] is the batch
/// applied before that round's refresh.
using Round = std::vector<std::pair<XTupleId, TupleId>>;
using Schedule = std::vector<Round>;

/// Draws one session-lifetime's schedule, untimed, by walking a scratch
/// one-session pool: each round cleans up to kCleansPerRound x-tuples
/// drawn uniformly over those the deepest rung's scan reaches, resolved
/// by their existential distribution. Distinct seeds per lifetime give
/// the pool genuinely divergent concurrent views.
Result<Schedule> DrawSchedule(const ProbabilisticDatabase& db,
                              const KLadder& ladder, size_t rounds,
                              size_t seed_index) {
  Result<bench::OneSessionPool> session =
      bench::OpenOneSessionPool(db, ladder);
  if (!session.ok()) return session.status();
  SessionPool& pool = session->pool;
  const SessionPool::SessionId id = session->id;
  const DatabaseOverlay& view = pool.overlay(id);
  Rng rng(kOutcomeSeed + 7919 * seed_index);
  Schedule schedule;
  for (size_t r = 0; r < rounds; ++r) {
    Round round;
    const TpOutput& tp = pool.tp(id, pool.num_rungs() - 1);
    for (size_t c = 0; c < kCleansPerRound; ++c) {
      std::vector<double> weights(tp.xtuple_topk_mass.size(), 0.0);
      for (size_t l = 0; l < weights.size(); ++l) {
        weights[l] = tp.xtuple_topk_mass[l] > 0.0 ? 1.0 : 0.0;
      }
      for (const auto& outcome : round) weights[outcome.first] = 0.0;
      double total = 0.0;
      for (size_t l = 0; l < weights.size(); ++l) {
        const auto& members = view.xtuple_members(static_cast<XTupleId>(l));
        if (members.size() == 1 && view.tuple(members[0]).prob >= 1.0) {
          weights[l] = 0.0;  // already certain
        }
        total += weights[l];
      }
      if (total <= 0.0) break;
      const XTupleId l = static_cast<XTupleId>(rng.Discrete(weights));
      const auto& members = view.xtuple_members(l);
      std::vector<double> alt_weights;
      alt_weights.reserve(members.size());
      for (int32_t idx : members) {
        alt_weights.push_back(view.tuple(idx).prob);
      }
      const Tuple& revealed = view.tuple(members[rng.Discrete(alt_weights)]);
      round.emplace_back(l, revealed.id);
    }
    if (round.empty()) break;
    for (const auto& [xtuple, resolved] : round) {
      UCLEAN_RETURN_IF_ERROR(pool.ApplyCleanOutcome(id, xtuple, resolved));
    }
    UCLEAN_RETURN_IF_ERROR(pool.Refresh(id));
    schedule.push_back(std::move(round));
  }
  return schedule;
}

struct ArmResult {
  double create_ms = 0.0;  // session/pool start-up + opens, all waves
  double rounds_ms = 0.0;  // apply + refresh work, all waves
  double total_ms() const { return create_ms + rounds_ms; }
  /// quality[wave * sessions + s][round][rung], for the cross-arm check.
  std::vector<std::vector<std::vector<double>>> quality;
};

/// Dedicated arm: every wave starts (and tears down) one full
/// one-session pool per concurrent user.
Result<ArmResult> RunDedicated(
    const ProbabilisticDatabase& db, const KLadder& ladder,
    const std::vector<std::vector<Schedule>>& waves) {
  ArmResult arm;
  for (const std::vector<Schedule>& wave : waves) {
    arm.quality.resize(arm.quality.size() + wave.size());
    const size_t base_index = arm.quality.size() - wave.size();
    Stopwatch create;
    std::vector<bench::OneSessionPool> sessions;
    sessions.reserve(wave.size());
    for (size_t s = 0; s < wave.size(); ++s) {
      Result<bench::OneSessionPool> session =
          bench::OpenOneSessionPool(db, ladder);
      if (!session.ok()) return session.status();
      sessions.push_back(std::move(session).value());
    }
    arm.create_ms += create.ElapsedMillis();

    Stopwatch rounds;
    size_t max_rounds = 0;
    for (const Schedule& schedule : wave) {
      max_rounds = std::max(max_rounds, schedule.size());
    }
    for (size_t r = 0; r < max_rounds; ++r) {
      // Interleave sessions within the round, like concurrent analysts.
      for (size_t s = 0; s < wave.size(); ++s) {
        if (r >= wave[s].size()) continue;
        SessionPool& own = sessions[s].pool;
        const SessionPool::SessionId id = sessions[s].id;
        for (const auto& [xtuple, resolved] : wave[s][r]) {
          UCLEAN_RETURN_IF_ERROR(own.ApplyCleanOutcome(id, xtuple, resolved));
        }
        UCLEAN_RETURN_IF_ERROR(own.Refresh(id));
        std::vector<double> qualities;
        for (size_t rung = 0; rung < ladder.size(); ++rung) {
          qualities.push_back(own.quality(id, rung));
        }
        arm.quality[base_index + s].push_back(std::move(qualities));
      }
    }
    // Tear the wave's sessions down inside the timed region, mirroring
    // the pool arm's timed Close loop -- both arms charge session
    // teardown to rounds_ms.
    sessions.clear();
    arm.rounds_ms += rounds.ElapsedMillis();
  }
  return arm;
}

/// Pool arm: ONE shared base + engine across all waves; each wave only
/// opens (forks) and closes overlay sessions.
Result<ArmResult> RunPooled(const ProbabilisticDatabase& db,
                            const KLadder& ladder,
                            const std::vector<std::vector<Schedule>>& waves) {
  ArmResult arm;
  Stopwatch create_pool;
  Result<SessionPool> pool =
      SessionPool::Create(ProbabilisticDatabase(db), ladder);
  if (!pool.ok()) return pool.status();
  arm.create_ms += create_pool.ElapsedMillis();

  for (const std::vector<Schedule>& wave : waves) {
    arm.quality.resize(arm.quality.size() + wave.size());
    const size_t base_index = arm.quality.size() - wave.size();
    Stopwatch open;
    std::vector<SessionPool::SessionId> ids;
    ids.reserve(wave.size());
    for (size_t s = 0; s < wave.size(); ++s) {
      ids.push_back(pool->OpenSession());
    }
    arm.create_ms += open.ElapsedMillis();

    Stopwatch rounds;
    size_t max_rounds = 0;
    for (const Schedule& schedule : wave) {
      max_rounds = std::max(max_rounds, schedule.size());
    }
    for (size_t r = 0; r < max_rounds; ++r) {
      for (size_t s = 0; s < wave.size(); ++s) {
        if (r >= wave[s].size()) continue;
        for (const auto& [xtuple, resolved] : wave[s][r]) {
          UCLEAN_RETURN_IF_ERROR(
              pool->ApplyCleanOutcome(ids[s], xtuple, resolved));
        }
        UCLEAN_RETURN_IF_ERROR(pool->Refresh(ids[s]));
        std::vector<double> qualities;
        for (size_t rung = 0; rung < ladder.size(); ++rung) {
          qualities.push_back(pool->quality(ids[s], rung));
        }
        arm.quality[base_index + s].push_back(std::move(qualities));
      }
    }
    for (SessionPool::SessionId id : ids) {
      UCLEAN_RETURN_IF_ERROR(pool->Close(id));
    }
    arm.rounds_ms += rounds.ElapsedMillis();
  }
  return arm;
}

struct Series {
  std::string workload;
  std::string regime;
  size_t sessions = 0;
  size_t waves = 0;
  size_t rounds_per_wave = 0;
  KLadder ladder;
  ArmResult dedicated;
  ArmResult pooled;
  double speedup = 0.0;            // dedicated total / pool total
  double open_amortization = 0.0;  // dedicated create / pool create
  double max_quality_diff = 0.0;
  bool qualities_bitwise_equal = true;
};

std::string JsonKs(const KLadder& ladder) {
  std::string out = "[";
  for (size_t j = 0; j < ladder.size(); ++j) {
    if (j > 0) out += ", ";
    out += std::to_string(ladder[j]);
  }
  return out + "]";
}

Result<Series> RunSeries(const std::string& workload,
                         const ProbabilisticDatabase& db,
                         const KLadder& ladder, size_t num_sessions,
                         const Regime& regime) {
  Series series;
  series.workload = workload;
  series.regime = regime.name;
  series.sessions = num_sessions;
  series.waves = regime.waves;
  series.rounds_per_wave = regime.rounds;
  series.ladder = ladder;

  std::vector<std::vector<Schedule>> waves(regime.waves);
  for (size_t w = 0; w < regime.waves; ++w) {
    for (size_t s = 0; s < num_sessions; ++s) {
      Result<Schedule> schedule =
          DrawSchedule(db, ladder, regime.rounds, w * num_sessions + s);
      if (!schedule.ok()) return schedule.status();
      waves[w].push_back(std::move(schedule).value());
    }
  }

  // Median-of-3 runs per arm; qualities are deterministic across reps.
  // The recorded timings are the MEDIAN rep's (per arm), so the ms
  // columns in the JSON reproduce the gated speedup ratio.
  std::vector<ArmResult> dedicated_reps, pooled_reps;
  for (int rep = 0; rep < 3; ++rep) {
    Result<ArmResult> dedicated = RunDedicated(db, ladder, waves);
    if (!dedicated.ok()) return dedicated.status();
    Result<ArmResult> pooled = RunPooled(db, ladder, waves);
    if (!pooled.ok()) return pooled.status();
    dedicated_reps.push_back(std::move(dedicated).value());
    pooled_reps.push_back(std::move(pooled).value());
  }
  const auto by_total = [](const ArmResult& a, const ArmResult& b) {
    return a.total_ms() < b.total_ms();
  };
  std::sort(dedicated_reps.begin(), dedicated_reps.end(), by_total);
  std::sort(pooled_reps.begin(), pooled_reps.end(), by_total);
  series.dedicated = std::move(dedicated_reps[dedicated_reps.size() / 2]);
  series.pooled = std::move(pooled_reps[pooled_reps.size() / 2]);
  const double dedicated_median = series.dedicated.total_ms();
  const double pooled_median = series.pooled.total_ms();
  series.speedup =
      pooled_median > 0.0 ? dedicated_median / pooled_median : 0.0;
  series.open_amortization =
      series.pooled.create_ms > 0.0
          ? series.dedicated.create_ms / series.pooled.create_ms
          : 0.0;

  // Equivalence: both arms executed identical per-lifetime streams, so
  // every session's per-rung quality trajectory must agree.
  for (size_t s = 0; s < series.dedicated.quality.size(); ++s) {
    for (size_t r = 0; r < series.dedicated.quality[s].size(); ++r) {
      for (size_t rung = 0; rung < ladder.size(); ++rung) {
        const double pooled = series.pooled.quality[s][r][rung];
        const double dedicated = series.dedicated.quality[s][r][rung];
        const double diff = pooled - dedicated;
        series.max_quality_diff =
            std::max(series.max_quality_diff, diff < 0.0 ? -diff : diff);
        if (!bench::SameBits(pooled, dedicated)) {
          series.qualities_bitwise_equal = false;
        }
      }
    }
  }
  return series;
}

}  // namespace
}  // namespace uclean

int main() {
  using namespace uclean;

  SyntheticOptions unit_opts;  // paper default: 5K x-tuples x 10 tuples
  Result<ProbabilisticDatabase> unit = GenerateSynthetic(unit_opts);
  SyntheticOptions subunit_opts;
  subunit_opts.real_mass_min = 0.55;  // entities that may be absent: no
  subunit_opts.real_mass_max = 0.90;  // saturation, head-mass stop rule
  Result<ProbabilisticDatabase> subunit = GenerateSynthetic(subunit_opts);
  if (!unit.ok() || !subunit.ok()) {
    std::printf("generation failed: %s / %s\n",
                unit.status().ToString().c_str(),
                subunit.status().ToString().c_str());
    return 1;
  }
  Result<KLadder> ladder = KLadder::Of({5, 10, 25, 50});
  UCLEAN_CHECK(ladder.ok());

  // Oneshot: waves of sessions that plan once, execute one batch and
  // close -- the paper's Section V flow, per concurrent analyst.
  // Interactive: short adaptive bursts (2 rounds) with churn. Batch: one
  // long-lived wave of 10 rounds per session.
  const Regime kOneshot{"oneshot", 4, 1};
  const Regime kInteractive{"interactive", 4, 2};
  const Regime kBatch{"batch", 1, 10};

  bench::Banner(
      "Session pool",
      "N concurrent cleaning sessions over one shared scan (SessionPool) "
      "vs N one-session pools; identical per-session outcome "
      "streams, oneshot (4 waves x 1 round), interactive (4 waves x 2 "
      "rounds) and batch (1 wave x 10 rounds) regimes");
  bench::Header(
      "workload,regime,sessions,dedicated_total_ms,pool_total_ms,speedup,"
      "open_amortization,max_quality_diff");

  struct SeriesSpec {
    const ProbabilisticDatabase* db;
    const char* workload;
    size_t sessions;
    const Regime* regime;
  };
  const std::vector<SeriesSpec> specs = {
      {&*unit, "unit", 8, &kOneshot},
      {&*unit, "unit", 8, &kInteractive},
      {&*unit, "unit", 8, &kBatch},
      {&*subunit, "subunit", 8, &kOneshot},
      {&*subunit, "subunit", 8, &kInteractive},
  };

  std::vector<Series> all;
  bool ok = true;
  for (const SeriesSpec& spec : specs) {
    Result<Series> series = RunSeries(spec.workload, *spec.db, *ladder,
                                      spec.sessions, *spec.regime);
    if (!series.ok()) {
      std::printf("series failed: %s\n", series.status().ToString().c_str());
      return 1;
    }
    if (!series->qualities_bitwise_equal) {
      std::printf(
          "MISMATCH %s/%s/N=%zu: per-session qualities diverge by %.3e\n",
          series->workload.c_str(), series->regime.c_str(),
          series->sessions, series->max_quality_diff);
      ok = false;
    }
    std::printf("%s,%s,%zu,%.3f,%.3f,%.2f,%.2f,%.3e\n",
                series->workload.c_str(), series->regime.c_str(),
                series->sessions, series->dedicated.total_ms(),
                series->pooled.total_ms(), series->speedup,
                series->open_amortization, series->max_quality_diff);
    all.push_back(std::move(series).value());
  }

  std::FILE* json = std::fopen("BENCH_pool.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_pool.json for writing\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"pool\",\n");
  std::fprintf(json, "  \"kernel\": \"%s\", \"threads\": 1,\n",
               bench::ResolvedKernelName());
  std::fprintf(json,
               "  \"workloads\": {\"unit\": \"synthetic 5Kx10 (paper "
               "default)\", \"subunit\": \"synthetic 5Kx10, existence mass "
               "U[0.55, 0.90]\"},\n");
  std::fprintf(json,
               "  \"cleans_per_round_per_session\": %zu, \"outcome_seed\": "
               "%llu,\n",
               kCleansPerRound,
               static_cast<unsigned long long>(kOutcomeSeed));
  std::fprintf(json, "  \"series\": [\n");
  for (size_t s = 0; s < all.size(); ++s) {
    const Series& x = all[s];
    std::fprintf(json,
                 "    {\"workload\": \"%s\", \"regime\": \"%s\", "
                 "\"sessions\": %zu, \"waves\": %zu, \"rounds_per_wave\": "
                 "%zu, \"ladder\": %s,\n",
                 x.workload.c_str(), x.regime.c_str(), x.sessions, x.waves,
                 x.rounds_per_wave, JsonKs(x.ladder).c_str());
    std::fprintf(json,
                 "     \"dedicated_create_ms\": %.4f, \"pool_create_ms\": "
                 "%.4f, \"dedicated_rounds_ms\": %.4f, \"pool_rounds_ms\": "
                 "%.4f,\n",
                 x.dedicated.create_ms, x.pooled.create_ms,
                 x.dedicated.rounds_ms, x.pooled.rounds_ms);
    std::fprintf(
        json,
        "     \"dedicated_total_ms\": %.4f, \"pool_total_ms\": %.4f,\n",
        x.dedicated.total_ms(), x.pooled.total_ms());
    std::fprintf(json,
                 "     \"speedup\": %.4f, \"open_amortization\": %.4f, "
                 "\"max_quality_diff\": %.3e}%s\n",
                 x.speedup, x.open_amortization, x.max_quality_diff,
                 s + 1 < all.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote BENCH_pool.json\n");
  return ok ? 0 : 1;
}
