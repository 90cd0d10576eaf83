// campaign_deep: no serving. A larger synthetic database with sub-unit
// existence mass at a deep ladder goes through
//
//   set-up   cold SessionPool::Create, several times (the deep ladder
//            scan + TP ladder);
//   store    WriteSnapshot of the cold pool, then OpenFromSnapshot several
//            times; the warm pool must re-serialize to the cold bytes;
//   campaign back-to-back pooled adaptive campaigns (RunPipelinedCleaning,
//            greedy planner) over the same few sessions on the warm pool,
//            until --seconds pass. Sessions keep their outcomes from one
//            campaign to the next, so overlay tombstones pile up. Each
//            round is its own RunPipelinedCleaning call (max_rounds = 1,
//            spent_so_far carrying the campaign's spend), which for the
//            greedy planner commits exactly what one uninterrupted call
//            would, and gives per-round latencies.
//   oracle   the same campaigns replayed on the cold pool with
//            overlap = false, one uninterrupted call each: per-session
//            spend, probe logs, final qualities and Rng states must match.
//
// The traced run drives the same campaigns round by round through the
// public stages (MakeCleaningProblem + RunPlanner, DrawProbes,
// CommitProbeDraws, RefreshAll) with a span around each; its committed
// outcomes must equal the untraced campaigns'.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/pipeline.h"
#include "clean/planners.h"
#include "clean/problem.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "stats.h"
#include "store/snapshot.h"
#include "trace.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace ucbench {
namespace {

using uclean::KLadder;
using uclean::ProbabilisticDatabase;
using uclean::Result;
using uclean::Rng;
using uclean::SessionPool;
using uclean::Status;

constexpr size_t kXTuples = 8000;
constexpr size_t kTuplesPerXTuple = 6;
constexpr double kMassMin = 0.5;  // sub-unit existence mass: deep scans
constexpr double kMassMax = 0.9;
const std::vector<size_t> kLadder = {100, 250, 500};
constexpr size_t kSessions = 3;
// The database and profile are fixed; --seed draws the sessions' probe
// streams. Data drawn from --seed changed the campaigns' course -- and
// their probe rate by up to 3x -- from one seed to the next.
constexpr uint64_t kDataSeed = 11;
constexpr uint64_t kProfileSeed = 3;
constexpr int64_t kBudget = 1500;  // per session and campaign
// Campaigns per epoch: a fixed epoch keeps the mix of early (deep
// replays) and late (few outcomes left) rounds the same in every run.
// Letting epochs run until nothing was left to probe split the runs into
// two groups whose round-latency p99 differed by ~1.8x.
constexpr size_t kEpochCampaigns = 10;
// Set-up and warm-open timings repeat for this long each, over three
// batches of at least kMinReps, and report the median.
constexpr double kRepSeconds = 3.0;
constexpr int kMinReps = 3;
constexpr double kCampaignShare = 0.45;  // of --seconds (the oracle replays it)

struct Inputs {
  ProbabilisticDatabase db;
  uclean::CleaningProfile profile;
  KLadder ladder;
};

Result<Inputs> MakeInputs() {
  Inputs in;
  uclean::SyntheticOptions synth;
  synth.num_xtuples = kXTuples;
  synth.tuples_per_xtuple = kTuplesPerXTuple;
  synth.real_mass_min = kMassMin;
  synth.real_mass_max = kMassMax;
  synth.seed = kDataSeed;
  Result<ProbabilisticDatabase> db = uclean::GenerateSynthetic(synth);
  if (!db.ok()) return db.status();
  in.db = std::move(db).value();
  uclean::CleaningProfileOptions profile;
  profile.seed = kProfileSeed;
  Result<uclean::CleaningProfile> p =
      uclean::GenerateCleaningProfile(in.db.num_xtuples(), profile);
  if (!p.ok()) return p.status();
  in.profile = std::move(p).value();
  Result<KLadder> ladder = KLadder::Of(kLadder);
  if (!ladder.ok()) return ladder.status();
  in.ladder = std::move(ladder).value();
  return in;
}

SessionPool::Options PoolOptions(const uclean::ExecOptions& exec) {
  SessionPool::Options options;
  options.exec = exec;
  return options;
}

std::vector<Rng> SessionRngs(uint64_t seed) {
  std::vector<Rng> rngs;
  for (size_t s = 0; s < kSessions; ++s) rngs.emplace_back(SubSeed(seed, 200 + s));
  return rngs;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// What one campaign committed, per session: the equivalence fingerprint.
struct CampaignOutcome {
  std::vector<int64_t> spent;
  std::vector<std::vector<uclean::ProbeRecord>> logs;
  std::vector<std::vector<double>> final_quality;
  std::vector<std::string> rng_states;
};

bool SameOutcome(const CampaignOutcome& a, const CampaignOutcome& b) {
  if (a.spent != b.spent || a.logs != b.logs || a.rng_states != b.rng_states ||
      a.final_quality.size() != b.final_quality.size()) {
    return false;
  }
  // Bitwise, not numerically, equal qualities.
  for (size_t s = 0; s < a.final_quality.size(); ++s) {
    if (a.final_quality[s].size() != b.final_quality[s].size()) return false;
    for (size_t j = 0; j < a.final_quality[s].size(); ++j) {
      if (std::memcmp(&a.final_quality[s][j], &b.final_quality[s][j],
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

CampaignOutcome EmptyOutcome() {
  CampaignOutcome out;
  out.spent.assign(kSessions, 0);
  out.logs.resize(kSessions);
  out.final_quality.resize(kSessions);
  out.rng_states.resize(kSessions);
  return out;
}

void Finalize(const SessionPool& pool, const std::vector<SessionPool::SessionId>& ids,
              const std::vector<Rng>& rngs, CampaignOutcome* out) {
  for (size_t s = 0; s < kSessions; ++s) {
    out->final_quality[s].clear();
    for (size_t rung = 0; rung < pool.num_rungs(); ++rung) {
      out->final_quality[s].push_back(pool.quality(ids[s], rung));
    }
    out->rng_states[s] = rngs[s].SaveState();
  }
}

struct RoundStats {
  std::vector<double> round_ms;
  size_t probes = 0;      ///< probe attempts committed
  size_t successes = 0;
  int64_t wall_ns = 0;    ///< sum of round calls
};

/// One campaign, round by round through RunPipelinedCleaning.
Status PipelinedCampaign(SessionPool* pool,
                         const std::vector<SessionPool::SessionId>& ids,
                         const uclean::CleaningProfile& profile,
                         std::vector<Rng>* rngs, RoundStats* stats,
                         CampaignOutcome* out) {
  uclean::PipelineOptions options;
  const size_t max_rounds = options.max_rounds;
  options.planner = uclean::PlannerKind::kGreedy;
  options.max_rounds = 1;
  *out = EmptyOutcome();
  for (size_t round = 0; round < max_rounds; ++round) {
    options.spent_so_far = out->spent;
    const int64_t t0 = NowNs();
    Result<uclean::PipelineReport> report =
        uclean::RunPipelinedCleaning(pool, ids, profile, kBudget, rngs, options);
    const int64_t t1 = NowNs();
    if (!report.ok()) return report.status();
    if (report->rounds == 0) break;
    stats->round_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    stats->wall_ns += t1 - t0;
    for (size_t s = 0; s < kSessions; ++s) {
      const uclean::PipelineSessionReport& session = report->sessions[s];
      out->spent[s] += session.spent;
      out->logs[s].insert(out->logs[s].end(), session.log.begin(), session.log.end());
      for (const uclean::ProbeRecord& r : session.log) {
        stats->probes += static_cast<size_t>(r.attempts);
        stats->successes += r.success ? 1 : 0;
      }
    }
  }
  Finalize(*pool, ids, *rngs, out);
  return Status::OK();
}

/// The serial reference: one uninterrupted call, draws inline.
Status SerialCampaign(SessionPool* pool, const std::vector<SessionPool::SessionId>& ids,
                      const uclean::CleaningProfile& profile, std::vector<Rng>* rngs,
                      CampaignOutcome* out) {
  uclean::PipelineOptions options;
  options.planner = uclean::PlannerKind::kGreedy;
  options.overlap = false;
  Result<uclean::PipelineReport> report =
      uclean::RunPipelinedCleaning(pool, ids, profile, kBudget, rngs, options);
  if (!report.ok()) return report.status();
  *out = EmptyOutcome();
  for (size_t s = 0; s < kSessions; ++s) {
    out->spent[s] = report->sessions[s].spent;
    out->logs[s] = report->sessions[s].log;
  }
  Finalize(*pool, ids, *rngs, out);
  return Status::OK();
}

/// Per-layer accumulators of the traced campaign.
struct CampaignLayers {
  std::vector<double> plan_ns, draw_ns, commit_ns, refresh_ns;
  size_t probes = 0;
  size_t successes = 0;
  size_t rounds = 0;
};

/// One campaign through the public stages, with spans: the same
/// arithmetic RunPipelinedCleaning runs with overlap = false.
Status TracedCampaign(SessionPool* pool, const std::vector<SessionPool::SessionId>& ids,
                      const uclean::CleaningProfile& profile, std::vector<Rng>* rngs,
                      Tracer* tracer, uint64_t campaign, CampaignLayers* layers,
                      CampaignOutcome* out) {
  *out = EmptyOutcome();
  std::vector<int64_t> remaining(kSessions, kBudget);
  std::vector<bool> done(kSessions, false);
  const size_t max_rounds = uclean::PipelineOptions().max_rounds;
  for (size_t round = 0; round < max_rounds; ++round) {
    ScopedSpan round_span(tracer, "clean.round", campaign);
    std::vector<Result<uclean::ProbeDraws>> draws;
    std::vector<size_t> drawn;
    for (size_t s = 0; s < kSessions; ++s) {
      if (done[s] || remaining[s] <= 0) continue;
      Result<uclean::CleaningPlan> plan = Status::Internal("unset");
      {
        ScopedSpan span(tracer, "clean.plan", campaign);
        const int64_t t0 = NowNs();
        Result<uclean::CleaningProblem> problem = uclean::MakeCleaningProblem(
            pool->tps(ids[s]), {}, profile, remaining[s]);
        if (!problem.ok()) return problem.status();
        plan = uclean::RunPlanner(uclean::PlannerKind::kGreedy, *problem,
                                  &(*rngs)[s]);
        layers->plan_ns.push_back(static_cast<double>(NowNs() - t0));
      }
      if (!plan.ok()) return plan.status();
      if (plan->total_cost == 0 || plan->expected_improvement <= 0.0) {
        done[s] = true;
        continue;
      }
      ScopedSpan span(tracer, "clean.draw", campaign);
      const int64_t t0 = NowNs();
      draws.push_back(uclean::DrawProbes(pool->overlay(ids[s]), profile,
                                         plan->probes, &(*rngs)[s]));
      layers->draw_ns.push_back(static_cast<double>(NowNs() - t0));
      drawn.push_back(s);
    }
    if (drawn.empty()) break;
    ++layers->rounds;
    for (size_t d = 0; d < drawn.size(); ++d) {
      const size_t s = drawn[d];
      if (!draws[d].ok()) return draws[d].status();
      {
        ScopedSpan span(tracer, "clean.commit", campaign);
        const int64_t t0 = NowNs();
        UCLEAN_RETURN_IF_ERROR(uclean::CommitProbeDraws(pool, ids[s], *draws[d]));
        layers->commit_ns.push_back(static_cast<double>(NowNs() - t0));
      }
      const uclean::SessionExecutionReport& r = draws[d]->report;
      out->spent[s] += r.spent;
      out->logs[s].insert(out->logs[s].end(), r.log.begin(), r.log.end());
      for (const uclean::ProbeRecord& record : r.log) {
        layers->probes += static_cast<size_t>(record.attempts);
        layers->successes += record.success ? 1 : 0;
      }
      if (r.spent == 0) {
        done[s] = true;
        continue;
      }
      remaining[s] -= r.spent;
    }
    ScopedSpan span(tracer, "clean.refresh", campaign);
    const int64_t t0 = NowNs();
    UCLEAN_RETURN_IF_ERROR(pool->RefreshAll());
    layers->refresh_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  Finalize(*pool, ids, *rngs, out);
  return Status::OK();
}

std::vector<SessionPool::SessionId> OpenSessions(SessionPool* pool) {
  std::vector<SessionPool::SessionId> ids;
  for (size_t s = 0; s < kSessions; ++s) ids.push_back(pool->OpenSession());
  return ids;
}

/// Closes `ids` and opens as many pristine sessions in their place.
Status Reopen(SessionPool* pool, std::vector<SessionPool::SessionId>* ids) {
  for (SessionPool::SessionId id : *ids) UCLEAN_RETURN_IF_ERROR(pool->Close(id));
  *ids = OpenSessions(pool);
  return Status::OK();
}

}  // namespace

Report RunCampaign(const RunConfig& config, const Env& env) {
  Report report;
  Result<Inputs> in = MakeInputs();
  if (!in.ok()) {
    report.Fail("inputs: " + in.status().ToString());
    return report;
  }
  const uclean::ExecOptions exec = SharedExec(env.campaign_pool_threads);
  report.Prov("tuples", std::to_string(in->db.num_tuples()));
  report.Prov("xtuples", std::to_string(in->db.num_xtuples()));
  report.Prov("ladder", in->ladder.ToString());
  report.Prov("sessions", std::to_string(kSessions));
  report.Prov("budget_per_session_and_campaign", std::to_string(kBudget));
  report.Prov("threads", "1 caller + " + std::to_string(env.campaign_pool_threads - 1) +
                             " pool workers");
  report.Prov("planner", "greedy");

  Tracer tracer;
  Tracer* tr = config.trace ? &tracer : nullptr;

  // Set-up: the cold create (deep ladder scan + TP ladder). The last
  // pool of the first batch is the oracle's.
  std::vector<double> setup_s;
  std::vector<double> setup_scan_s;
  double scan_ns = 0.0, scan_depth = 0.0, tp_ns = 0.0;
  size_t scans = 0;
  uint64_t rep_id = 0;
  Result<SessionPool> cold = Status::Internal("unset");
  auto setup_rep = [&](bool keep, double* seconds) {
    ProbabilisticDatabase copy = in->db;
    size_t create_span = Tracer::kNone;
    Result<SessionPool> pool = Status::Internal("unset");
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tr, "clean.pool_create", rep_id);
      create_span = span.id();
      pool = SessionPool::Create(std::move(copy), in->ladder, PoolOptions(exec));
    }
    *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    if (!pool.ok()) {
      report.Fail("SessionPool::Create: " + pool.status().ToString());
      return false;
    }
    if (tr != nullptr) {
      // The create's hidden ladder scan + TP ladder, re-issued.
      uclean::ScanRequest request;
      request.ladder = in->ladder;
      request.exec = pool->exec();
      const int64_t s0 = NowNs();
      Result<uclean::ScanResult> scan = uclean::ComputePsrLadder(in->db, request);
      const int64_t s1 = NowNs();
      Result<std::vector<uclean::TpOutput>> tp =
          scan.ok() ? uclean::ComputeTpQualityLadder(in->db, scan->outputs, pool->exec())
                    : Result<std::vector<uclean::TpOutput>>(scan.status());
      const int64_t s2 = NowNs();
      if (!tp.ok()) {
        report.Fail("re-issued set-up scan: " + tp.status().ToString());
        return false;
      }
      tracer.AddReissue("rank.scan", rep_id, create_span, s0, s1);
      tracer.AddReissue("quality.tp", rep_id, create_span, s1, s2);
      size_t depth = 0;
      for (const uclean::PsrOutput& out : scan->outputs) {
        depth = std::max(depth, out.scan_end);
      }
      ++scans;
      scan_ns += static_cast<double>(s1 - s0);
      scan_depth += static_cast<double>(depth);
      tp_ns += static_cast<double>(s2 - s1);
      setup_scan_s.push_back(static_cast<double>(s2 - s0) / 1e9);
    }
    ++rep_id;
    if (keep) cold = std::move(pool);
    return true;
  };
  const std::string cold_path = config.out_dir + "/campaign_deep.snap";
  const std::string warm_path = config.out_dir + "/campaign_deep.warm.snap";
  std::vector<double> warm_s;
  auto warm_rep = [&](double* seconds) {
    ScopedSpan span(tr, "store.open", rep_id++);
    const int64_t t0 = NowNs();
    Result<SessionPool> warm = SessionPool::OpenFromSnapshot(cold_path, PoolOptions(exec));
    *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    if (!warm.ok()) report.Fail("OpenFromSnapshot: " + warm.status().ToString());
    return warm.ok();
  };
  // Set-up and warm-open timings come in three batches -- before the
  // campaigns, after them and after the oracle -- so their medians
  // sample the whole run.
  auto timing_batch = [&]() {
    return TimedReps(kRepSeconds / 3, kMinReps,
                     [&](double* sec) { return setup_rep(false, sec); }, &setup_s) &&
           TimedReps(kRepSeconds / 3, kMinReps, warm_rep, &warm_s);
  };
  if (!TimedReps(kRepSeconds / 3, kMinReps,
                 [&](double* sec) { return setup_rep(true, sec); }, &setup_s)) {
    return report;
  }

  // Store: the cold pool to disk; the campaigns run on a warm copy, which
  // must re-serialize to the same bytes.
  std::vector<double> write_s;
  {
    ScopedSpan span(tr, "store.write", 0);
    const int64_t t0 = NowNs();
    Status written = uclean::store::WriteSnapshot(*cold, cold_path);
    write_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!written.ok()) {
      report.Fail("WriteSnapshot: " + written.ToString());
      return report;
    }
  }
  const std::string cold_bytes = ReadFile(cold_path);
  if (!TimedReps(kRepSeconds / 3, kMinReps, warm_rep, &warm_s)) return report;
  Result<SessionPool> warm = SessionPool::OpenFromSnapshot(cold_path, PoolOptions(exec));
  ++report.attempted;
  if (!warm.ok() || !uclean::store::WriteSnapshot(*warm, warm_path).ok() ||
      ReadFile(warm_path) != cold_bytes) {
    report.Fail("warm-opened pool does not re-serialize to the cold bytes");
    return report;
  }

  // Campaigns on the warm pool until the time share is spent. Sessions
  // carry their outcomes from one campaign to the next for an epoch of
  // kEpochCampaigns campaigns (or until one finds nothing worth probing),
  // then are closed and reopened pristine.
  std::vector<SessionPool::SessionId> warm_ids = OpenSessions(&*warm);
  std::vector<Rng> rngs = SessionRngs(config.seed);
  RoundStats stats;
  std::vector<CampaignOutcome> outcomes;
  std::vector<char> reopen_after;
  size_t epoch_campaigns = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * kCampaignShare * 1e9);
  while (NowNs() < deadline) {
    CampaignOutcome outcome;
    Status run = PipelinedCampaign(&*warm, warm_ids, in->profile, &rngs, &stats,
                                   &outcome);
    if (!run.ok()) {
      report.Fail("campaign: " + run.ToString());
      return report;
    }
    const bool idle = outcome.logs == EmptyOutcome().logs;
    outcomes.push_back(std::move(outcome));
    ++epoch_campaigns;
    const bool reopen = idle || epoch_campaigns == kEpochCampaigns;
    reopen_after.push_back(reopen ? 1 : 0);
    if (reopen) {
      epoch_campaigns = 0;
      Status reopened = Reopen(&*warm, &warm_ids);
      if (!reopened.ok()) {
        report.Fail("reopen: " + reopened.ToString());
        return report;
      }
    }
  }

  if (!timing_batch()) return report;

  // Oracle: the same campaigns, serial and uninterrupted, on the cold pool.
  std::vector<SessionPool::SessionId> cold_ids = OpenSessions(&*cold);
  std::vector<Rng> cold_rngs = SessionRngs(config.seed);
  for (size_t c = 0; c < outcomes.size(); ++c) {
    CampaignOutcome reference;
    Status run = SerialCampaign(&*cold, cold_ids, in->profile, &cold_rngs, &reference);
    if (run.ok() && reopen_after[c]) run = Reopen(&*cold, &cold_ids);
    ++report.attempted;
    if (!run.ok()) {
      report.Fail("reference campaign: " + run.ToString());
      break;
    }
    if (!SameOutcome(outcomes[c], reference)) {
      report.Fail("campaign " + std::to_string(c) +
                  " differs from the overlap=false reference");
    }
  }
  report.attempted += stats.round_ms.size();
  if (!timing_batch()) return report;

  const size_t snapshot_bytes = cold_bytes.size();
  const double snapshot_mb = static_cast<double>(snapshot_bytes) / 1e6;
  if (!config.trace) {
    const size_t n = stats.round_ms.size();
    const PerMille tail = HighestSupportedPercentile(n);
    double tail_ms = 0.0;
    double p90_ms = 0.0;
    if (tail < 0 || !Percentile(stats.round_ms, tail, &tail_ms) ||
        !Percentile(stats.round_ms, 900, &p90_ms)) {
      report.Invalid("only " + std::to_string(n) + " campaign rounds");
    }
    const double probes_per_s =
        stats.wall_ns > 0 ? static_cast<double>(stats.probes) /
                                (static_cast<double>(stats.wall_ns) / 1e9)
                          : 0.0;
    report.Add("setup_s", Median(setup_s), "s", setup_s.size());
    report.Add("latency_p50_ms", Median(stats.round_ms), "ms", n);
    report.Add("latency_p90_ms", p90_ms, "ms", n);
    report.Add("throughput_per_s", probes_per_s, "1/s", stats.probes);
    report.Add("warm_open_s", Median(warm_s), "s", warm_s.size());
    report.Add("snapshot_bytes_per_tuple",
               static_cast<double>(snapshot_bytes) /
                   static_cast<double>(in->db.num_tuples()),
               "B");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Note("probes_per_s", probes_per_s, "probes/s", stats.probes);
    report.Note("round_latency_tail_ms", tail_ms, "ms", n);
    report.Note("round_latency_tail_percentile", tail / 10.0, "pct", n);
    report.Note("campaigns", static_cast<double>(outcomes.size()), "count");
    report.Note("session_reopens",
                static_cast<double>(std::count(reopen_after.begin(), reopen_after.end(), 1)),
                "count");
    report.Note("rounds", static_cast<double>(n), "count");
    report.Note("probe_success_share",
                stats.probes > 0 ? static_cast<double>(stats.successes) /
                                       static_cast<double>(stats.probes)
                                 : 0.0,
                "ratio");
    return report;
  }

  // Traced: the same campaigns through the public stages on a fresh warm
  // pool; their outcomes must equal the untraced ones.
  Result<SessionPool> traced_pool = SessionPool::OpenFromSnapshot(cold_path, PoolOptions(exec));
  if (!traced_pool.ok()) {
    report.Fail(traced_pool.status().ToString());
    return report;
  }
  std::vector<SessionPool::SessionId> traced_ids = OpenSessions(&*traced_pool);
  std::vector<Rng> traced_rngs = SessionRngs(config.seed);
  CampaignLayers layers;
  const int64_t traced_t0 = NowNs();
  for (size_t c = 0; c < outcomes.size(); ++c) {
    CampaignOutcome traced;
    Status run = TracedCampaign(&*traced_pool, traced_ids, in->profile, &traced_rngs,
                                &tracer, c, &layers, &traced);
    if (run.ok() && reopen_after[c]) run = Reopen(&*traced_pool, &traced_ids);
    ++report.attempted;
    if (!run.ok()) {
      report.Fail("traced campaign: " + run.ToString());
      break;
    }
    if (!SameOutcome(outcomes[c], traced)) {
      report.Fail("traced campaign " + std::to_string(c) +
                  " differs from the untraced one");
    }
  }
  const double traced_wall_ns = static_cast<double>(NowNs() - traced_t0);
  const double untraced_wall_ns = static_cast<double>(stats.wall_ns);

  auto mean_us = [](const std::vector<double>& ns) { return Mean(ns) / 1e3; };
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  report.Add("rank.scan_us", per(scan_ns, scans) / 1e3, "us", scans);
  report.Add("rank.scan_depth", per(scan_depth, scans), "count");
  report.Add("rank.scan_ns_per_tuple", per(scan_ns, scan_depth), "ns");
  report.Add("quality.tp_us", per(tp_ns, scans) / 1e3, "us", scans);
  report.Add("quality.tp_ns_per_tuple", per(tp_ns, scan_depth), "ns");
  report.Add("clean.pool_create_s", Median(setup_s), "s", setup_s.size());
  report.Add("clean.setup_scan_s", Median(setup_scan_s), "s", setup_scan_s.size());
  report.Add("clean.refresh_us", mean_us(layers.refresh_ns), "us", layers.refresh_ns.size());
  report.Add("clean.plan_us", mean_us(layers.plan_ns), "us", layers.plan_ns.size());
  report.Add("clean.draw_us", mean_us(layers.draw_ns), "us", layers.draw_ns.size());
  report.Add("clean.commit_us", mean_us(layers.commit_ns), "us", layers.commit_ns.size());
  report.Add("clean.probes", static_cast<double>(layers.probes), "count");
  report.Add("clean.probe_success_share",
             per(static_cast<double>(layers.successes), static_cast<double>(layers.probes)),
             "ratio");
  report.Add("clean.rounds", static_cast<double>(layers.rounds), "count");
  report.Add("store.write_ms", Median(write_s) * 1e3, "ms", write_s.size());
  report.Add("store.write_mb_s", snapshot_mb / Median(write_s), "MB/s");
  report.Add("store.open_ms", Median(warm_s) * 1e3, "ms", warm_s.size());
  report.Add("store.open_mb_s", snapshot_mb / Median(warm_s), "MB/s");
  report.Add("trace.overhead_share",
             per(traced_wall_ns - untraced_wall_ns, untraced_wall_ns), "ratio");
  report.Note("trace.untraced_campaign_ms", untraced_wall_ns / 1e6, "ms");
  report.Note("trace.traced_campaign_ms", traced_wall_ns / 1e6, "ms");

  const std::string trace_path = config.out_dir + "/trace-campaign_deep.json";
  if (!tracer.WriteChromeTrace(trace_path)) report.Fail("could not write " + trace_path);
  report.Prov("trace_file", trace_path);
  report.Prov("spans", std::to_string(tracer.spans().size()));
  std::printf("# per-layer self time (traced run; * = derived: re-issued "
              "children subtracted)\n");
  std::printf("%-22s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms",
              "self_us/op");
  for (const auto& [name, row] : tracer.LayerTable()) {
    std::printf("%-22s %8zu %12.3f %12.3f %10.3f%s\n", name.c_str(), row.count,
                row.total_ns / 1e6, row.self_ns / 1e6,
                row.self_ns / 1e3 / static_cast<double>(row.count),
                row.derived ? " *" : "");
  }
  return report;
}

}  // namespace ucbench
