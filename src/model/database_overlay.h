// DatabaseOverlay: one session's copy-on-write view of a shared base
// ProbabilisticDatabase.
//
// The session pool (src/clean/session_pool.h) serves many concurrent
// cleaning sessions from ONE base database and ONE checkpointed PSR scan.
// Each session's clean outcomes must not leak into the base (another
// analyst's view) -- so instead of mutating the base the way
// ProbabilisticDatabase::ApplyCleanOutcome does, an overlay records the
// session's outcomes on the side. It is the only way a cleaning session
// mutates anything:
//
//  * dropped siblings become overlay tombstones (a lazily allocated byte
//    per rank index, never touching the base's tombstone state);
//  * the resolved alternative's certainty is a patched Tuple (prob = 1)
//    shadowing the base tuple at its rank index;
//  * the collapsed x-tuple's member list and real mass are shadowed the
//    same way.
//
// The overlay exposes the exact read interface the PSR scan core, the TP
// delta pass and the probe agent consume (num_tuples / tuple /
// is_tombstone / xtuple_members / xtuple_real_mass), so every templated
// consumer runs the SAME per-tuple arithmetic over an overlay as over a
// plain database -- which is what makes a session's replayed state
// bitwise identical to a from-scratch scan of its overlay and of its
// materialized cleaned database. Rank indices never move
// (overlays never compact; the base is shared), so the shared engine's
// checkpoints stay valid for every session above its own first change.
//
// Overlays hold a pointer to the base; the owner (SessionPool) must keep
// the base alive and unmutated for the overlay's lifetime.

#ifndef UCLEAN_MODEL_DATABASE_OVERLAY_H_
#define UCLEAN_MODEL_DATABASE_OVERLAY_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "model/database.h"
#include "model/tuple.h"

namespace uclean {

/// A read view of `base` plus one session's recorded clean outcomes.
class DatabaseOverlay {
 public:
  /// An empty overlay over nothing; assign from a real one before use.
  DatabaseOverlay() = default;

  /// A pristine overlay over `base`, which must outlive the overlay and
  /// stay unmutated. Prefer a compacted base (SessionPool::Create
  /// compacts on intake): base tombstones are visible through
  /// is_tombstone but are not counted by num_tombstones().
  explicit DatabaseOverlay(const ProbabilisticDatabase* base) : base_(base) {}

  const ProbabilisticDatabase& base() const { return *base_; }

  // ----- the read interface shared with ProbabilisticDatabase -----

  size_t num_tuples() const { return base_->num_tuples(); }
  size_t num_xtuples() const { return base_->num_xtuples(); }

  /// The tuple at `rank_index`: the session's resolved (certain) copy when
  /// one of its cleans patched this slot, the base tuple otherwise.
  const Tuple& tuple(size_t rank_index) const {
    if (is_patched(rank_index)) {
      return patches_.find(rank_index)->second;
    }
    return base_->tuple(rank_index);
  }

  /// True when the slot is dead in this session's view (dropped by one of
  /// its cleans, or already a tombstone in the base).
  bool is_tombstone(size_t rank_index) const {
    if (!tombstones_.empty() && tombstones_[rank_index] != 0) return true;
    return base_->is_tombstone(rank_index);
  }

  /// True when one of this session's cleans patched the slot (the
  /// resolved alternative of a collapsed x-tuple). A live slot that is not
  /// patched belongs to an x-tuple the session never cleaned.
  bool is_patched(size_t rank_index) const {
    return !patched_.empty() && patched_[rank_index] != 0;
  }

  /// Overlay-only tombstones (the base is pristine under a SessionPool).
  size_t num_tombstones() const { return num_tombstones_; }

  const std::vector<int32_t>& xtuple_members(XTupleId l) const {
    const auto it = member_overrides_.find(l);
    return it == member_overrides_.end() ? base_->xtuple_members(l)
                                         : it->second;
  }

  double xtuple_real_mass(XTupleId l) const {
    const auto it = mass_overrides_.find(l);
    return it == mass_overrides_.end() ? base_->xtuple_real_mass(l)
                                       : it->second;
  }

  // ----- session-side mutation -----

  /// Records the collapse of `xtuple` to the certain outcome `resolved_id`
  /// (negative = entity absent) in this overlay only; same validation,
  /// delta semantics and view-level effect as ProbabilisticDatabase::
  /// ApplyCleanOutcome, with the base untouched.
  Result<ProbabilisticDatabase::CleanOutcomeDelta> ApplyCleanOutcome(
      XTupleId xtuple, TupleId resolved_id);

  /// Number of recorded (non-no-op) outcomes.
  size_t num_outcomes() const { return outcomes_.size(); }

  /// The recorded outcomes in application order (resolved id, negative for
  /// the null outcome).
  const std::vector<std::pair<XTupleId, TupleId>>& outcomes() const {
    return outcomes_;
  }

  /// Shallowest rank this overlay diverges from the base at (the minimum
  /// first_changed_rank over every recorded outcome); num_tuples() while
  /// pristine. Base-scan state above this rank is valid for the overlay.
  size_t divergence_rank() const {
    return divergence_ < base_->num_tuples() ? divergence_
                                             : base_->num_tuples();
  }

  /// Materializes base + outcomes into a standalone compacted database
  /// (the close-and-merge product of a pooled session).
  ProbabilisticDatabase MaterializeCleaned() const;

 private:
  const ProbabilisticDatabase* base_ = nullptr;
  std::vector<uint8_t> tombstones_;  // lazily sized to num_tuples()
  std::vector<uint8_t> patched_;     // lazily sized; 1 = entry in patches_
  std::unordered_map<size_t, Tuple> patches_;
  std::unordered_map<XTupleId, std::vector<int32_t>> member_overrides_;
  std::unordered_map<XTupleId, double> mass_overrides_;
  std::vector<std::pair<XTupleId, TupleId>> outcomes_;
  size_t num_tombstones_ = 0;
  size_t divergence_ = static_cast<size_t>(-1);
};

}  // namespace uclean

#endif  // UCLEAN_MODEL_DATABASE_OVERLAY_H_
