#include "rank/psr_engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "rank/sharded_scan.h"

namespace uclean {

Result<PsrEngine> PsrEngine::Create(const ProbabilisticDatabase& db,
                                    const ScanRequest& request) {
  UCLEAN_RETURN_IF_ERROR(request.Validate());
  if (request.overlay != nullptr) {
    return Status::InvalidArgument(
        "engines are created over base databases; serve session overlays "
        "through ForkSession/ReplaySession");
  }
  Result<ExecOptions> resolved = ResolveExec(request.exec);
  if (!resolved.ok()) return resolved.status();
  Result<const psr_internal::ScanKernel*> kernel =
      SelectScanKernel(resolved->kernel);
  if (!kernel.ok()) return kernel.status();

  PsrEngine engine;
  engine.exec_ = std::move(resolved).value();
  engine.options_ = request.psr;
  engine.checkpoint_interval_ = request.checkpoint_interval;
  engine.ladder_ = request.ladder;
  psr_internal::InitLadderOutputs(db.num_tuples(), request.ladder, request.psr,
                                  &engine.outputs_);
  engine.core_.Init(db.num_xtuples(), *kernel);
  const ScanJob<ProbabilisticDatabase> job = {
      &db,           0, 0, &engine.core_, &engine.outputs_, &engine.checkpoints_,
      &engine.checkpoint_interval_};
  ScanFrom(&job, 1, /*track_best=*/true, engine.options_, engine.exec_);
  return engine;
}

void PsrEngine::ThinCheckpoints(std::vector<Checkpoint>* cps,
                                size_t* interval) {
  // Keep every other checkpoint (always retaining the first one) and
  // double the interval, bounding memory while preserving coverage.
  size_t kept = 0;
  for (size_t j = 0; j < cps->size(); j += 2) {
    // Guard the j == kept case: self-move-assignment empties the kept
    // checkpoint's vectors (corrupting the always-retained rank-0 one).
    if (kept != j) (*cps)[kept] = std::move((*cps)[j]);
    ++kept;
  }
  cps->resize(kept);
  *interval *= 2;
}

void PsrEngine::SnapshotInto(const psr_internal::ScanCore& core, size_t pos,
                             size_t live, std::vector<Checkpoint>* cps,
                             size_t* interval) {
  if (cps->size() >= kMaxCheckpoints) ThinCheckpoints(cps, interval);
  Checkpoint cp;
  cp.pos = pos;
  cp.live = live;
  cp.c.assign(core.c.begin(), core.c.end());
  cp.active = core.active;
  cp.saturated = core.saturated;
  cps->push_back(std::move(cp));
}

void PsrEngine::RestoreInto(const DatabaseOverlay& db, const Checkpoint& cp,
                            psr_internal::ScanCore* core) {
  std::fill(core->q.begin(), core->q.end(), 0.0);
  std::fill(core->state.begin(), core->state.end(),
            psr_internal::XTupleState::kInactive);
  core->active = 0;
  core->saturated = 0;
  const size_t live = psr_internal::ForwardMasses(db, 0, cp.pos, core);
  // The snapshot reader checks every stored checkpoint against the same
  // pass, so a disagreement here is a replay-boundary bug, not bad input.
  UCLEAN_CHECK(live == cp.live && core->active == cp.active &&
               core->saturated == cp.saturated);
  core->c.assign(cp.c.begin(), cp.c.end());
}

size_t PsrEngine::BeginScan(size_t begin, bool track_best,
                            const psr_internal::ScanCore& core,
                            std::vector<PsrOutput>* outputs,
                            std::vector<Checkpoint>* cps, size_t* interval) {
  // A rung whose scan already stopped at or before `begin` cannot be
  // affected: its output beyond scan_end is identically zero and the state
  // that produced its stop decision is prefix-only. Everything deeper
  // re-emits (scan_end is ascending in k, so the replaying rungs are a
  // suffix of the ladder).
  size_t first_active = 0;
  if (begin > 0) {
    while (first_active < outputs->size() &&
           (*outputs)[first_active].scan_end <= begin) {
      ++first_active;
    }
  }
  for (size_t j = first_active; j < outputs->size(); ++j) {
    PsrOutput& out = (*outputs)[j];
    // Everything at or past the rung's previous scan end is already zero
    // (scans only ever write below their stop point), so the wipe is
    // bounded by the old scanned range, not the database size.
    const size_t wipe_end = std::max(begin, out.scan_end);
    std::fill(out.topk_prob.begin() + begin, out.topk_prob.begin() + wipe_end,
              0.0);
    if (out.has_rank_probabilities) {
      std::fill(out.rank_prob.begin() + begin * out.k,
                out.rank_prob.begin() + wipe_end * out.k, 0.0);
    }
    if (track_best) {
      std::fill(out.best_rank_prob.begin(), out.best_rank_prob.end(), 0.0);
      std::fill(out.best_rank_index.begin(), out.best_rank_index.end(), -1);
    }
  }
  if (begin == 0) {
    cps->clear();
    SnapshotInto(core, 0, 0, cps, interval);
  }
  return first_active;
}

template <typename Db>
void PsrEngine::ScanFrom(const ScanJob<Db>* jobs, size_t n, bool track_best,
                         const PsrOptions& options, const ExecOptions& exec) {
  UCLEAN_CHECK(n >= 1 && n <= psr_internal::kMaxScanLanes);
  std::vector<PsrOutput*> outs[psr_internal::kMaxScanLanes];
  size_t first_active[psr_internal::kMaxScanLanes];
  for (size_t l = 0; l < n; ++l) {
    const ScanJob<Db>& job = jobs[l];
    first_active[l] = BeginScan(job.begin, track_best, *job.core, job.outputs,
                                job.cps, job.interval);
    for (PsrOutput& out : *job.outputs) outs[l].push_back(&out);
  }

  // Parallel path, one scan only: shard the active rungs' range over the
  // pool. Shard s snapshots into its own list (its rebuilt boundary state
  // first, then on the usual live-tuple cadence); the lists merge in
  // shard order and thin to capacity, so checkpoint PLACEMENT differs
  // from the sequential path while every snapshot remains a valid
  // restore point.
  bool sharded = false;
  if (n == 1 && exec.parallel()) {
    const ScanJob<Db>& job = jobs[0];
    struct ShardCheckpoints {
      std::vector<Checkpoint> cps;
      size_t interval = 0;
      size_t since = 0;
      bool snapshot_first = false;
    };
    std::vector<ShardCheckpoints> shard_cps;
    const size_t base_interval = *job.interval;
    const auto make_checkpoint_fn = [&shard_cps, base_interval](
                                        size_t s, size_t num_shards) {
      if (shard_cps.empty()) shard_cps.resize(num_shards);
      ShardCheckpoints* local = &shard_cps[s];
      local->interval = base_interval;
      local->snapshot_first = s > 0;
      return [local](const psr_internal::ScanCore& core, size_t pos,
                     size_t live) {
        if (local->snapshot_first || local->since >= local->interval) {
          SnapshotInto(core, pos, live, &local->cps, &local->interval);
          local->snapshot_first = false;
          local->since = 0;
        }
        ++local->since;
      };
    };
    std::vector<PsrOutput*> active_outs(outs[0].begin() + first_active[0],
                                        outs[0].end());
    sharded = psr_internal::RunShardedLadderScan(
        *job.db, job.begin, job.live, options, exec.pool.get(),
        exec.min_tuples_per_shard, *job.core, active_outs, track_best,
        make_checkpoint_fn);
    if (sharded) {
      for (ShardCheckpoints& local : shard_cps) {
        for (Checkpoint& cp : local.cps) job.cps->push_back(std::move(cp));
        *job.interval = std::max(*job.interval, local.interval);
      }
      while (job.cps->size() > kMaxCheckpoints) {
        ThinCheckpoints(job.cps, job.interval);
      }
    }
  }
  if (!sharded) {
    using Lane = psr_internal::ScanLane<Db, CadenceCheckpoints>;
    std::vector<Lane> lanes;
    lanes.reserve(n);
    for (size_t l = 0; l < n; ++l) {
      const ScanJob<Db>& job = jobs[l];
      lanes.emplace_back(*job.db, job.begin, job.db->num_tuples(), job.live,
                         /*emit_base=*/0, options.early_termination,
                         *job.core, outs[l], first_active[l], track_best,
                         CadenceCheckpoints{job.core, job.cps, job.interval});
    }
    psr_internal::RunLadderScanLanes(lanes.data(), n);
  }
  for (size_t l = 0; l < n; ++l) {
    FinalizeAggregates(*jobs[l].db, first_active[l], track_best, exec,
                       jobs[l].outputs);
  }
}

template <typename Db>
void PsrEngine::FinalizeAggregates(const Db& db, size_t first_active,
                                   bool tracked, const ExecOptions& exec,
                                   std::vector<PsrOutput>* outputs) {
  // Each rung's recount/argmax rebuild touches only that rung's output,
  // so the per-rung work fans over the pool verbatim. Rungs below
  // `first_active` did not re-emit and keep every aggregate.
  const size_t rungs = outputs->size() - first_active;
  ExecParallelFor(exec, rungs, [&](size_t r) {
    PsrOutput& out = (*outputs)[first_active + r];
    out.num_nonzero = 0;
    for (size_t i = 0; i < out.scan_end; ++i) {  // zero past the stop point
      if (out.topk_prob[i] > 0.0) ++out.num_nonzero;
    }
    if (tracked) return;  // running argmaxes are exact for full scans
    // Untracked scan: rebuild the argmaxes from the matrix when it is
    // stored, reset them to the empty answer otherwise (see header).
    std::fill(out.best_rank_prob.begin(), out.best_rank_prob.end(), 0.0);
    std::fill(out.best_rank_index.begin(), out.best_rank_index.end(), -1);
    if (!out.has_rank_probabilities) return;
    const size_t k = out.k;
    for (size_t i = 0; i < out.scan_end; ++i) {
      const Tuple& t = db.tuple(i);
      if (t.is_null || db.is_tombstone(i)) continue;
      for (size_t h = 0; h < k; ++h) {
        const double rho = out.rank_prob[i * k + h];
        if (rho > out.best_rank_prob[h]) {
          out.best_rank_prob[h] = rho;
          out.best_rank_index[h] = static_cast<int32_t>(i);
        }
      }
    }
  });
}

PsrEngine::SessionState PsrEngine::ForkSession() const {
  SessionState state;
  // Copy only each rung's live prefix onto a zeroed buffer: every output
  // entry at or past scan_end is identically zero (scans never write past
  // their stop point), and for ranked data the stop leaves the bulk of
  // the array cold -- this is what keeps materializing a session an
  // order of magnitude cheaper than a scan of its own.
  state.outputs_.resize(outputs_.size());
  for (size_t j = 0; j < outputs_.size(); ++j) {
    const PsrOutput& src = outputs_[j];
    PsrOutput& dst = state.outputs_[j];
    dst.k = src.k;
    dst.num_nonzero = src.num_nonzero;
    dst.scan_end = src.scan_end;
    dst.topk_prob.assign(src.topk_prob.size(), 0.0);
    std::copy(src.topk_prob.begin(), src.topk_prob.begin() + src.scan_end,
              dst.topk_prob.begin());
    dst.best_rank_prob = src.best_rank_prob;
    dst.best_rank_index = src.best_rank_index;
    dst.has_rank_probabilities = src.has_rank_probabilities;
    if (src.has_rank_probabilities) {
      dst.rank_prob.assign(src.rank_prob.size(), 0.0);
      std::copy(src.rank_prob.begin(),
                src.rank_prob.begin() + src.scan_end * src.k,
                dst.rank_prob.begin());
    }
  }
  // Sessions inherit the engine's kernel: mixing kernels would be safe
  // (they are bitwise equal) but pointless.
  state.core_.Init(core_.q.size(), core_.kernel);
  state.checkpoint_interval_ = checkpoint_interval_;
  return state;
}

Status PsrEngine::PrepareReplay(const SessionReplay& replay,
                                ScanJob<DatabaseOverlay>* job) const {
  job->db = nullptr;
  if (outputs_.empty() || checkpoints_.empty()) {
    return Status::FailedPrecondition("PsrEngine was not initialized");
  }
  SessionState* state = replay.state;
  if (replay.db == nullptr || state == nullptr ||
      state->outputs_.size() != outputs_.size()) {
    return Status::FailedPrecondition(
        "session state was not forked from this engine");
  }
  const DatabaseOverlay& db = *replay.db;
  if (state->outputs_.front().topk_prob.size() != db.num_tuples()) {
    return Status::FailedPrecondition(
        "session state does not match the overlay's base database");
  }
  const size_t first_changed_rank = replay.first_changed_rank;
  if (first_changed_rank >= db.num_tuples()) return Status::OK();  // no-op
  // The overlay is the single source of truth for how shallow the
  // session's changes reach: every recorded outcome is reflected there,
  // so a shared snapshot at or above its divergence rank is valid no
  // matter what `first_changed_rank` the caller batched up (passing a
  // conservatively shallow rank merely pops more private snapshots).
  const size_t divergence = db.divergence_rank();

  // The session's own snapshots taken past the change hold pre-clean
  // state; drop them.
  while (!state->checkpoints_.empty() &&
         state->checkpoints_.back().pos > first_changed_rank) {
    state->checkpoints_.pop_back();
  }

  // Deepest restore point still valid for this session: a shared base
  // snapshot is valid wherever the overlay still equals the base (at or
  // above the divergence rank -- a snapshot at pos depends only on tuples
  // ranked above pos); a surviving private snapshot is valid by the
  // invalidation above. The shared rank-0 snapshot always qualifies.
  const Checkpoint* restore = nullptr;
  for (auto it = checkpoints_.rbegin(); it != checkpoints_.rend(); ++it) {
    if (it->pos <= divergence) {
      restore = &*it;
      break;
    }
  }
  if (!state->checkpoints_.empty() &&
      (restore == nullptr || state->checkpoints_.back().pos >= restore->pos)) {
    restore = &state->checkpoints_.back();
  }
  UCLEAN_CHECK(restore != nullptr);

  RestoreInto(db, *restore, &state->core_);
  *job = {&db,
          restore->pos,
          restore->live,
          &state->core_,
          &state->outputs_,
          &state->checkpoints_,
          &state->checkpoint_interval_};
  return Status::OK();
}

Status PsrEngine::ReplaySession(const DatabaseOverlay& db,
                                size_t first_changed_rank,
                                SessionState* state) const {
  return ReplaySessions({{&db, first_changed_rank, state}}).front();
}

std::vector<Status> PsrEngine::ReplaySessions(
    const std::vector<SessionReplay>& replays) const {
  std::vector<Status> statuses(replays.size(), Status::OK());
  std::vector<ScanJob<DatabaseOverlay>> jobs;
  jobs.reserve(replays.size());
  for (size_t i = 0; i < replays.size(); ++i) {
    ScanJob<DatabaseOverlay> job;
    statuses[i] = PrepareReplay(replays[i], &job);
    if (statuses[i].ok() && job.db != nullptr) jobs.push_back(job);
  }
  // Replays never track argmaxes (FinalizeAggregates resets or rebuilds
  // them), so every lane runs the untracked emission.
  for (size_t at = 0; at < jobs.size(); at += psr_internal::kMaxScanLanes) {
    const size_t n =
        std::min(psr_internal::kMaxScanLanes, jobs.size() - at);
    ScanFrom(jobs.data() + at, n, /*track_best=*/false, options_, exec_);
  }
  return statuses;
}

}  // namespace uclean
