#include "clean/pipeline.h"

#include <string>
#include <utility>
#include <vector>

#include "clean/fault.h"
#include "clean/problem.h"

namespace uclean {

namespace {

/// Per-session probe options: the shared knobs plus this session's test
/// jitter.
ProbeOptions SessionProbeOptions(const PipelineOptions& options, size_t s) {
  ProbeOptions probe = options.probe;
  if (s < options.session_latency_jitter.size()) {
    probe.latency += options.session_latency_jitter[s];
  }
  return probe;
}

}  // namespace

Result<PipelineReport> RunPipelinedCleaning(
    SessionPool* pool, const std::vector<SessionPool::SessionId>& ids,
    const CleaningProfile& profile, int64_t budget, std::vector<Rng>* rngs,
    const PipelineOptions& options) {
  if (pool == nullptr) {
    return Status::InvalidArgument("RunPipelinedCleaning requires a pool");
  }
  if (rngs == nullptr || rngs->size() != ids.size()) {
    return Status::InvalidArgument(
        "RunPipelinedCleaning requires one Rng per session");
  }
  if (budget < 0) return Status::InvalidArgument("budget must be >= 0");
  for (SessionPool::SessionId id : ids) {
    if (!pool->is_open(id)) {
      return Status::InvalidArgument("session " + std::to_string(id) +
                                     " is not open");
    }
    if (pool->dirty(id)) {
      return Status::FailedPrecondition(
          "session " + std::to_string(id) +
          " is dirty; Refresh before starting the pipeline");
    }
  }

  const size_t n = ids.size();
  ThreadPool* exec = options.overlap ? pool->exec().pool.get() : nullptr;

  // Per-session fault injectors, seeded `fault.seed + s` like the probe
  // Rngs. Each one is consumed only by its own session's draw loop (the
  // in-flight contract of clean/agent.h), so batches stay race-free and
  // serial and pipelined campaigns draw identical fault streams. A
  // caller passing PipelineOptions::injectors substitutes its own
  // identically-constructed set (so it can read their state after the
  // call -- the snapshot store's mid-campaign save).
  std::vector<FaultInjector> owned_injectors;
  std::vector<FaultInjector>* injectors = options.injectors;
  if (options.fault.enabled) {
    UCLEAN_RETURN_IF_ERROR(options.fault.Validate());
    if (injectors != nullptr) {
      if (injectors->size() != n) {
        return Status::InvalidArgument(
            "PipelineOptions::injectors must hold one injector per session");
      }
    } else {
      owned_injectors.reserve(n);
      for (size_t s = 0; s < n; ++s) {
        FaultOptions session_fault = options.fault;
        session_fault.seed = options.fault.seed + s;
        owned_injectors.emplace_back(session_fault);
      }
      injectors = &owned_injectors;
    }
  }

  PipelineReport report;
  report.sessions.resize(n);
  std::vector<int64_t> remaining(n, budget);
  if (!options.spent_so_far.empty()) {
    if (options.spent_so_far.size() != n) {
      return Status::InvalidArgument(
          "PipelineOptions::spent_so_far must hold one entry per session");
    }
    for (size_t s = 0; s < n; ++s) remaining[s] -= options.spent_so_far[s];
  }
  std::vector<bool> done(n, false);

  // One slot per session and round: the in-flight future (overlap mode)
  // or the already-drawn result (serial mode). Both modes run the same
  // plan / draw / commit / refresh sequence -- overlap only moves WHERE
  // the draw loop runs, never what it computes.
  std::vector<ProbeBatch> batches(n);
  std::vector<Result<ProbeDraws>> inline_draws(
      n, Result<ProbeDraws>(Status::Internal("no draw this round")));
  std::vector<bool> in_flight(n, false);

  for (size_t round = 0; round < options.max_rounds; ++round) {
    // ---- plan + submit: batches start drawing while later sessions plan.
    bool submitted_any = false;
    bool waiting_any = false;
    for (size_t s = 0; s < n; ++s) {
      in_flight[s] = false;
      if (done[s] || remaining[s] <= 0) continue;
      FaultInjector* injector =
          options.fault.enabled ? &(*injectors)[s] : nullptr;
      Result<CleaningProblem> problem = MakeCleaningProblem(
          pool->tps(ids[s]), options.plan_weights, profile, remaining[s]);
      if (!problem.ok()) return problem.status();
      // Degradation: mask sources this session's open breakers block, so
      // the plan reinvests its budget in members that can still answer.
      MaskUnavailableSources(injector, &*problem);
      Result<CleaningPlan> plan = RunPlanner(options.planner, *problem,
                                             &(*rngs)[s], options.dp_options);
      if (!plan.ok()) return plan.status();
      if (plan->total_cost == 0 || plan->expected_improvement <= 0.0) {
        // Nothing probeable. Breakers cooling down are a temporary
        // condition: wait one cooldown out (simulated) and re-plan next
        // round; otherwise this session's campaign is done.
        if (injector != nullptr && injector->num_open_sources() > 0) {
          injector->AdvanceClock(options.fault.breaker.cooldown_us);
          waiting_any = true;
        } else {
          done[s] = true;
        }
        continue;
      }
      ProbeOptions probe = SessionProbeOptions(options, s);
      probe.fault = injector;
      if (options.overlap) {
        Result<ProbeBatch> batch =
            SubmitProbes(*pool, ids[s], profile, std::move(plan->probes),
                         &(*rngs)[s], probe, exec);
        if (!batch.ok()) return batch.status();
        batches[s] = std::move(batch).value();
      } else {
        inline_draws[s] = DrawProbes(pool->overlay(ids[s]), profile,
                                     plan->probes, &(*rngs)[s], probe);
      }
      in_flight[s] = true;
      submitted_any = true;
    }
    if (!submitted_any) {
      if (waiting_any) continue;  // breakers cooling down; re-plan
      break;
    }
    report.rounds = round + 1;

    // ---- wait + commit, fixed session order: completion order of the
    // batches never matters, which is the determinism keystone.
    bool progressed = false;
    for (size_t s = 0; s < n; ++s) {
      if (!in_flight[s]) continue;
      Result<ProbeDraws> draws = options.overlap
                                     ? batches[s].Take()
                                     : std::move(inline_draws[s]);
      if (!draws.ok()) return draws.status();
      UCLEAN_RETURN_IF_ERROR(CommitProbeDraws(pool, ids[s], *draws));
      PipelineSessionReport& session = report.sessions[s];
      session.spent += draws->report.spent;
      session.leftover += draws->report.leftover;
      session.successes += draws->report.successes;
      session.log.insert(session.log.end(), draws->report.log.begin(),
                         draws->report.log.end());
      session.faults += draws->report.faults;
      // A session that spent nothing and had nothing blocked by faults is
      // finished; a fault-blocked one keeps its unspent budget and stays
      // in the campaign (its sources may recover).
      if (draws->report.spent == 0 &&
          draws->report.faults.BlockedProbes() == 0) {
        done[s] = true;
        continue;
      }
      if (draws->report.spent > 0) {
        remaining[s] -= draws->report.spent;
        ++session.rounds;
      }
      progressed = true;
    }

    // ---- one concurrent RefreshAll commits the round's state.
    UCLEAN_RETURN_IF_ERROR(pool->RefreshAll());
    if (!progressed) break;
  }

  for (size_t s = 0; s < n; ++s) {
    PipelineSessionReport& session = report.sessions[s];
    session.final_quality.clear();
    for (size_t rung = 0; rung < pool->num_rungs(); ++rung) {
      session.final_quality.push_back(pool->quality(ids[s], rung));
    }
  }
  return report;
}

}  // namespace uclean
