#include "clean/session_pool.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

namespace uclean {

Result<SessionPool> SessionPool::Create(ProbabilisticDatabase base,
                                        const KLadder& ladder,
                                        const Options& options) {
  // Overlays key their copy-on-write state by rank index, so the shared
  // base must not carry garbage slots that a later compaction would
  // renumber under them.
  base.CompactTombstones();

  SessionPool pool;
  pool.options_ = options;
  // Resolve the executor ONCE: the engine's sharded scans, every TP
  // pass and RefreshAll's session fan-out all share this pool.
  Result<ExecOptions> exec = ResolveExec(options.exec);
  if (!exec.ok()) return exec.status();
  pool.options_.exec = std::move(exec).value();
  pool.base_ = std::make_unique<ProbabilisticDatabase>(std::move(base));

  ScanRequest request;
  request.ladder = ladder;
  request.psr = options.psr;
  request.exec = pool.options_.exec;
  request.checkpoint_interval = options.checkpoint_interval;
  Result<PsrEngine> engine = PsrEngine::Create(*pool.base_, request);
  if (!engine.ok()) return engine.status();
  pool.engine_ = std::move(engine).value();

  Result<std::vector<TpOutput>> tps = ComputeTpQualityLadder(
      *pool.base_, pool.engine_.outputs(), pool.options_.exec);
  if (!tps.ok()) return tps.status();
  pool.base_tps_ = std::move(tps).value();
  return pool;
}

SessionPool::SessionId SessionPool::OpenSession() {
  ScopedSerialCall guard(gate_);
  SessionId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = sessions_.size();
    sessions_.emplace_back();
  }
  Session& session = sessions_[id];
  session.open = true;
  session.overlay = DatabaseOverlay(base_.get());
  session.pending_replay_begin = kNoPending;
  ++num_open_;
  return id;
}

void SessionPool::Materialize(Session* session) const {
  session->scan = engine_.ForkSession();
  // Fork the base TP ladder the same way the engine forks its outputs:
  // omega is identically zero at and past each rung's scan_end, so only
  // the live prefix is copied onto a zeroed buffer.
  session->tps.resize(base_tps_.size());
  for (size_t j = 0; j < base_tps_.size(); ++j) {
    const TpOutput& src = base_tps_[j];
    TpOutput& dst = session->tps[j];
    dst.quality = src.quality;
    dst.scan_end = src.scan_end;
    dst.omega.assign(src.omega.size(), 0.0);
    std::copy(src.omega.begin(), src.omega.begin() + src.scan_end,
              dst.omega.begin());
    dst.xtuple_gain = src.xtuple_gain;
    dst.xtuple_topk_mass = src.xtuple_topk_mass;
  }
}

Status SessionPool::CheckOpen(SessionId id) const {
  if (id >= sessions_.size() || !sessions_[id].open) {
    return Status::InvalidArgument("session " + std::to_string(id) +
                                   " is not open");
  }
  return Status::OK();
}

Status SessionPool::ApplyCleanOutcome(SessionId id, XTupleId xtuple,
                                      TupleId resolved_id) {
  ScopedSerialCall guard(gate_);
  UCLEAN_RETURN_IF_ERROR(CheckOpen(id));
  Session& session = sessions_[id];
  Result<ProbabilisticDatabase::CleanOutcomeDelta> delta =
      session.overlay.ApplyCleanOutcome(xtuple, resolved_id);
  if (!delta.ok()) return delta.status();
  if (delta->first_changed_rank >= base_->num_tuples()) {
    return Status::OK();  // outcome was already materialized
  }
  if (session.pristine()) Materialize(&session);
  const size_t begin = delta->first_changed_rank;
  if (session.pending_replay_begin == kNoPending ||
      begin < session.pending_replay_begin) {
    session.pending_replay_begin = begin;
  }
  return Status::OK();
}

void SessionPool::RefreshSessions(Session* const* sessions, size_t n,
                                  Status* statuses) {
  std::vector<PsrEngine::SessionReplay> replays(n);
  for (size_t i = 0; i < n; ++i) {
    replays[i] = {&sessions[i]->overlay, sessions[i]->pending_replay_begin,
                  &sessions[i]->scan};
  }
  const std::vector<Status> replayed = engine_.ReplaySessions(replays);
  for (size_t i = 0; i < n; ++i) {
    Session* session = sessions[i];
    statuses[i] = replayed[i];
    if (!statuses[i].ok()) continue;  // the session stays dirty
    statuses[i] = UpdateTpQualityLadder(
        session->overlay, session->scan.outputs(),
        session->pending_replay_begin, engine_.outputs().back(),
        base_tps_.back(), &session->tps, options_.exec);
    if (statuses[i].ok()) session->pending_replay_begin = kNoPending;
  }
}

Status SessionPool::Refresh(SessionId id) {
  ScopedSerialCall guard(gate_);
  UCLEAN_RETURN_IF_ERROR(CheckOpen(id));
  Session* session = &sessions_[id];
  if (session->pending_replay_begin == kNoPending) return Status::OK();
  Status status;
  RefreshSessions(&session, 1, &status);
  return status;
}

Status SessionPool::RefreshAll() {
  ScopedSerialCall guard(gate_);
  std::vector<Session*> pending;
  for (Session& session : sessions_) {
    if (session.open && session.pending_replay_begin != kNoPending) {
      pending.push_back(&session);
    }
  }
  // Split the pending sessions into lane groups, one task each: each
  // task reads only the shared engine (immutable after Create) and
  // writes only its own sessions, so per-session results are bitwise
  // what Refresh(id) would produce. With no more sessions than the
  // pool's threads every session gets a task of its own (a lone replay
  // on the caller may still shard); beyond that the groups share the
  // threads, up to kMaxScanLanes lanes each -- so inline, all of a
  // campaign's sessions replay in lockstep on the one thread.
  const size_t width =
      options_.exec.pool != nullptr ? options_.exec.pool->num_threads() : 1;
  const size_t p = pending.size();
  const size_t groups = std::min(
      p, std::max(width, (p + psr_internal::kMaxScanLanes - 1) /
                             psr_internal::kMaxScanLanes));
  std::vector<Status> statuses(p, Status::OK());
  ExecParallelFor(options_.exec, groups, [&](size_t g) {
    // Workers run inside the window this call opened; the caller blocks
    // in ExecParallelFor until every task is done, so the gate stays
    // held for the whole fan-out.
    gate_.AssertHeld();
    const size_t lo = g * p / groups;
    const size_t hi = (g + 1) * p / groups;
    RefreshSessions(pending.data() + lo, hi - lo, statuses.data() + lo);
  });
  for (Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Result<ProbabilisticDatabase> SessionPool::CloseAndMerge(SessionId id) {
  ProbabilisticDatabase merged;
  {
    // Materialization reads the session's overlay, so it must sit
    // inside the guarded window; scoped because Close takes the
    // (non-recursive) guard itself.
    ScopedSerialCall guard(gate_);
    UCLEAN_RETURN_IF_ERROR(CheckOpen(id));
    merged = sessions_[id].overlay.MaterializeCleaned();
  }
  UCLEAN_RETURN_IF_ERROR(Close(id));
  return merged;
}

Status SessionPool::Close(SessionId id) {
  ScopedSerialCall guard(gate_);
  UCLEAN_RETURN_IF_ERROR(CheckOpen(id));
  // Free the slot's heavy state eagerly; the slot is reused by the next
  // OpenSession.
  sessions_[id] = Session();
  free_slots_.push_back(id);
  --num_open_;
  return Status::OK();
}

}  // namespace uclean
