// PsrEngine: the shared, checkpointed PSR scan behind SessionPool,
// serving a whole ladder of k values from one scan.
//
// A successful pclean collapses one x-tuple to a certain tuple and leaves
// every other tuple's rank unchanged (DatabaseOverlay::ApplyCleanOutcome).
// The engine scans the base database once and checkpoints the
// Poisson-binomial count vector of psr_scan_core.h at intervals along the
// rank order. A cleaning session's refresh restores the last checkpoint
// at or before its first changed rank -- re-deriving the per-x-tuple
// masses with one pass over the prefix -- and replays only the suffix of
// the scan, so a round of cleans costs O(m + prefix + suffix * (k_max +
// T)) instead of a full database rebuild plus an O(k n) rescan per
// served k. Replayed results are bitwise identical to a from-scratch
// ComputePsrLadder over the same overlay: the restored state is the
// exact state a fresh scan reaches at the checkpoint (the prefix is
// untouched by the clean), and the suffix executes the same arithmetic.
//
// Multi-k: the scan state (count vector, per-x-tuple masses) is
// k-independent, so ONE checkpoint set serves every rung; only the
// emission cursors differ per k. Each rung stops at its own Lemma-2
// point (scan_end is ascending in k), and a replay is suffix-only PER
// RUNG: rungs whose scan already stopped at or before the replay
// boundary are left untouched -- a clean below a rung's stop point
// cannot change its output -- while deeper rungs re-emit only their own
// reachable suffix.
//
// Multi-session: the same checkpoints are additionally independent of
// WHO is asking -- a snapshot at rank p depends only on the tuples above
// p. A SessionPool therefore forks one SessionState per session (a copy
// of the base outputs, no scan) and replays each session's
// DatabaseOverlay through ReplaySession: the shared base checkpoints
// cover the prefix above the session's own divergence rank (where its
// overlay still equals the base), and the session's private checkpoint
// list covers its post-divergence suffix. The engine is immutable after
// Create, so any number of interleaved sessions replay against it.
//
// Aggregate caveats after a replay:
//  * num_nonzero and scan_end are always maintained, per rung.
//  * best_rank_prob / best_rank_index are the U-kRanks argmaxes. Only
//    Create's full scan tracks them as it goes. Every session replay --
//    whatever checkpoint it restores, rank 0 included -- recomputes them
//    for each rung it re-emits: from the stored rank matrix when
//    PsrOptions::store_rank_probabilities is set, and reset to the empty
//    answer (0 / -1) otherwise. Rungs a replay does not reach keep theirs
//    (their outputs did not change). Cleaning consumers (TP, planners)
//    never read them; query serving should keep the matrix on.
//
// Parallel execution: Create with ExecOptions{num_threads > 1} and every
// scan the engine runs -- the initial full scan and ReplaySession
// suffixes -- is sharded by rank range over the shared ThreadPool
// (rank/sharded_scan.h) whenever the range justifies it, with per-rung
// argmax recomputation fanned over the same pool. Results are bitwise
// equal to the sequential path; checkpoint PLACEMENT may differ between
// the two, which changes replay cost, never replay results. Scans
// triggered from inside a pool worker (nested parallelism, e.g.
// SessionPool::RefreshAll fanning sessions) degrade to the sequential
// loop on that worker.
//
// Threading contract: after Create the engine (checkpoints, base
// outputs, ladder) is read-only. ForkSession and ReplaySession are const
// and safe to call CONCURRENTLY from multiple threads as long as each
// concurrent ReplaySession targets a DISTINCT (overlay, SessionState)
// pair -- exactly SessionPool::RefreshAll's fan-out. Any scan-running
// call may itself execute ON a pool worker; its nested sharded scan then
// degrades to the sequential loop inline (exec/thread_pool.h's nesting
// rule), never deadlocking the pool.

#ifndef UCLEAN_RANK_PSR_ENGINE_H_
#define UCLEAN_RANK_PSR_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "rank/psr.h"
#include "rank/psr_scan_core.h"

namespace uclean {

class PsrEngine {
 private:
  /// Scan state snapshot taken just before processing rank `pos`: the
  /// count vector and its counters only, so taking one copies O(T)
  /// doubles and never walks the x-tuples. The per-x-tuple masses are a
  /// pure function of the tuples ranked above `pos` (the scan only adds
  /// tuple probabilities in rank order); RestoreInto re-derives them over
  /// the restoring view's prefix, which is the snapshotted one because
  /// every checkpoint a replay may restore sits at or above all of that
  /// view's changes. The snapshot is k-independent, so one checkpoint set
  /// serves every rung; it is also session-independent above the
  /// snapshotting session's own changes, which is what lets pooled
  /// sessions share the base set.
  struct Checkpoint {
    size_t pos = 0;
    /// Live-tuple ordinal of `pos` (count of live tuples above it):
    /// anchors the count-refresh grid across replays (see
    /// psr_scan_core.h).
    size_t live = 0;
    std::vector<double> c;
    size_t active = 0;
    size_t saturated = 0;
  };

 public:
  /// An empty engine; assign from Create before use.
  PsrEngine() = default;

  /// Runs the initial full scan over `db` and snapshots checkpoints at
  /// `request.checkpoint_interval` live tuples (smaller = cheaper
  /// replays, more snapshot memory; it doubles whenever the checkpoint
  /// count would exceed kMaxCheckpoints). `request.exec` selects the
  /// execution mode -- thread count AND compute kernel -- for this and
  /// every later scan (sequential by default; see the header note on
  /// parallel execution). Fails with InvalidArgument when the request,
  /// its exec options or its kernel choice do not validate, or when
  /// request.overlay is set: engines scan base databases and serve
  /// session overlays through ForkSession/ReplaySession instead.
  static Result<PsrEngine> Create(const ProbabilisticDatabase& db,
                                  const ScanRequest& request);

  /// The ladder this engine serves (ascending).
  const KLadder& ladder() const { return ladder_; }
  size_t num_rungs() const { return outputs_.size(); }

  /// The base PSR state of rung `rung` (what a fresh session starts
  /// from).
  const PsrOutput& output(size_t rung) const {
    UCLEAN_DCHECK(rung < outputs_.size());
    return outputs_[rung];
  }
  const std::vector<PsrOutput>& outputs() const { return outputs_; }

  /// The current checkpoint ranks, ascending (introspection: replay-cost
  /// diagnostics and the shard cut-point equivalence tests restart scans
  /// at every one of these).
  std::vector<size_t> checkpoint_positions() const {
    std::vector<size_t> positions;
    positions.reserve(checkpoints_.size());
    for (const Checkpoint& cp : checkpoints_) positions.push_back(cp.pos);
    return positions;
  }

  // ----- pooled sessions over the shared scan -----

  /// One pooled session's scan state: a complete per-rung PsrOutput set
  /// plus the session's private post-divergence checkpoints. Forked from
  /// the engine, advanced only through ReplaySession. The session's
  /// divergence rank -- the bound on shared-checkpoint validity -- is
  /// read from its overlay, the single source of truth for what the
  /// session changed.
  class SessionState {
   public:
    SessionState() = default;

    const PsrOutput& output(size_t rung) const {
      UCLEAN_DCHECK(rung < outputs_.size());
      return outputs_[rung];
    }
    const std::vector<PsrOutput>& outputs() const { return outputs_; }

   private:
    friend class PsrEngine;
    friend class SnapshotAccess;  // store/snapshot.h persistence
    std::vector<PsrOutput> outputs_;       // one per rung, ascending k
    std::vector<Checkpoint> checkpoints_;  // private suffix snapshots
    psr_internal::ScanCore core_;          // session replay scratch
    size_t checkpoint_interval_ = kInitialCheckpointInterval;
  };

  /// Forks a pooled session's state: a copy of the base outputs (O(rungs
  /// * n) memcpy, NO scan -- this is why a session's first outcome costs
  /// orders of magnitude less than a scan of its own).
  SessionState ForkSession() const;

  /// Re-derives `state` after ApplyCleanOutcome calls on the session's
  /// overlay `db` (a view of the database this engine was created from).
  /// `first_changed_rank` is the minimum CleanOutcomeDelta::
  /// first_changed_rank over the batch; pass num_tuples() for a batch of
  /// no-ops (the call is then free). Restores the deepest checkpoint still
  /// valid for the session -- its own post-divergence snapshot when one
  /// survives the change, the last shared base snapshot at or above the
  /// overlay's divergence_rank() otherwise -- and replays only the
  /// suffix, taking fresh private checkpoints along the way. Shared
  /// engine state is untouched, so interleaved sessions never observe
  /// each other.
  Status ReplaySession(const DatabaseOverlay& db, size_t first_changed_rank,
                       SessionState* state) const;

  /// One session of a ReplaySessions call: the ReplaySession arguments.
  struct SessionReplay {
    const DatabaseOverlay* db = nullptr;
    size_t first_changed_rank = 0;
    SessionState* state = nullptr;
  };

  /// ReplaySession for several sessions at once, on the calling thread:
  /// each replay is validated and restored exactly as ReplaySession does,
  /// then the scans run in lane groups of up to psr_internal::
  /// kMaxScanLanes (RunLadderScanLanes), whose divide-outs overlap. Each
  /// session's result is bitwise what ReplaySession gives it; a group of
  /// one keeps ReplaySession's sharded path. Returns one status per
  /// replay, in order: a replay that fails validation leaves its state
  /// untouched and the others still run. The replays must target
  /// distinct states.
  std::vector<Status> ReplaySessions(
      const std::vector<SessionReplay>& replays) const;

  /// Checkpoint cadence: every `checkpoint_interval_` live tuples, thinned
  /// (drop every other one, double the interval) when the count exceeds
  /// kMaxCheckpoints so memory stays O(kMaxCheckpoints * m). The default
  /// cadence is the request struct's, spelled once for the whole library.
  static constexpr size_t kInitialCheckpointInterval =
      ScanRequest::kDefaultCheckpointInterval;
  static constexpr size_t kMaxCheckpoints = 160;

 private:
  // The snapshot store (store/snapshot.h) serializes the full engine
  // state -- checkpoints, outputs, ladder, cadence -- and rebuilds it
  // without a scan; it owns the invariants a hand-assembled engine must
  // satisfy (outputs consistent with the ladder, checkpoints ascending).
  friend class SnapshotAccess;

  /// Copies the scan state into a fresh checkpoint appended to `cps`,
  /// thinning (and doubling `*interval`) at capacity. `live` is pos's
  /// live-tuple ordinal.
  static void SnapshotInto(const psr_internal::ScanCore& core, size_t pos,
                           size_t live, std::vector<Checkpoint>* cps,
                           size_t* interval);

  /// Drops every other checkpoint (always retaining the first) and
  /// doubles `*interval` -- the capacity response shared by SnapshotInto
  /// and the sharded-scan checkpoint merge.
  static void ThinCheckpoints(std::vector<Checkpoint>* cps, size_t* interval);

  /// Loads `cp` into `core`: the count vector from the checkpoint, the
  /// per-x-tuple masses re-derived over `db`'s prefix [0, cp.pos), which
  /// must equal the prefix the checkpoint was taken over. The derived
  /// live/active/saturated counts are checked against the stored ones.
  static void RestoreInto(const DatabaseOverlay& db, const Checkpoint& cp,
                          psr_internal::ScanCore* core);

  /// One scan of a ScanFrom group: positions [begin, n) of `db` from the
  /// state in `core` (`live` is begin's live-tuple ordinal), emitting into
  /// `outputs` and snapshotting into `cps` at cadence `*interval`.
  template <typename Db>
  struct ScanJob {
    const Db* db = nullptr;
    size_t begin = 0;
    size_t live = 0;
    psr_internal::ScanCore* core = nullptr;
    std::vector<PsrOutput>* outputs = nullptr;
    std::vector<Checkpoint>* cps = nullptr;
    size_t* interval = nullptr;
  };

  /// The sequential scan's checkpoint hook: snapshots `core` into `cps`
  /// every `*interval` live tuples.
  struct CadenceCheckpoints {
    const psr_internal::ScanCore* core;
    std::vector<Checkpoint>* cps;
    size_t* interval;
    size_t since = 0;

    void operator()(size_t pos, size_t live) {
      if (since >= *interval) {
        SnapshotInto(*core, pos, live, cps, interval);
        since = 0;
      }
      ++since;
    }
  };

  /// Readies one scan from `begin`: zeroes `outputs` from `begin` on for
  /// every rung that re-emits (rungs whose scan had already stopped at or
  /// before `begin` are left untouched), clears their argmax trackers
  /// when `track_best`, and restarts `cps` with the scan-start snapshot
  /// when begin == 0. Returns the first re-emitting rung.
  static size_t BeginScan(size_t begin, bool track_best,
                          const psr_internal::ScanCore& core,
                          std::vector<PsrOutput>* outputs,
                          std::vector<Checkpoint>* cps, size_t* interval);

  /// Runs the `n` (1..kMaxScanLanes) scans of `jobs` to their stop points
  /// and finalizes their aggregates: one lane group on the calling thread,
  /// or -- for a single scan -- sharded over `exec`'s pool when the range
  /// justifies it. `track_best` keeps running U-kRanks argmaxes, which
  /// are exact only for a scan of the whole range on fresh outputs: only
  /// Create passes true. `Db` is ProbabilisticDatabase (the initial scan)
  /// or DatabaseOverlay (session replays); both run identical arithmetic.
  template <typename Db>
  static void ScanFrom(const ScanJob<Db>* jobs, size_t n, bool track_best,
                       const PsrOptions& options, const ExecOptions& exec);

  /// Recomputes num_nonzero of every rung from `first_active` on (the
  /// rungs a scan re-emitted) and, unless the scan `tracked` them, their
  /// per-rank argmaxes: rebuilt from the matrix when stored, reset to the
  /// empty answer otherwise. The per-rung work fans over `exec`'s pool.
  template <typename Db>
  static void FinalizeAggregates(const Db& db, size_t first_active,
                                 bool tracked, const ExecOptions& exec,
                                 std::vector<PsrOutput>* outputs);

  /// ReplaySession's validation and restore: on success `job` is the
  /// session's suffix scan, or has a null db for a no-op replay.
  Status PrepareReplay(const SessionReplay& replay,
                       ScanJob<DatabaseOverlay>* job) const;

  ExecOptions exec_;
  PsrOptions options_;
  KLadder ladder_;
  std::vector<PsrOutput> outputs_;  // one per rung, ascending k
  psr_internal::ScanCore core_;  // initial-scan scratch; fixes the kernel
  std::vector<Checkpoint> checkpoints_;
  size_t checkpoint_interval_ = kInitialCheckpointInterval;
};

}  // namespace uclean

#endif  // UCLEAN_RANK_PSR_ENGINE_H_
