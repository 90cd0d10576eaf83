// ProbabilisticDatabase: rank-sorted x-tuple database, and
// DatabaseBuilder, its validating constructor.
//
// The database is immutable under queries, with one carefully scoped
// exception: ApplyCleanOutcome collapses an x-tuple in place after a
// successful pclean (Definition 5). Because the ranking function depends
// only on (is_null, score, id) -- never on probabilities -- collapsing an
// x-tuple leaves every surviving tuple's rank index unchanged, so the
// operation tombstones the dropped siblings instead of rebuilding and
// re-sorting the whole database; CompactTombstones then erases them by a
// monotone renumbering. Cleaning sessions never mutate a database (they
// record outcomes in a model/database_overlay.h overlay); the in-place
// pair serves the consumers that produce a standalone cleaned database:
// DatabaseOverlay::MaterializeCleaned, the one-shot ExecutePlan, and
// SessionPool::Create, which compacts a tombstoned base.
//
// Model recap (Section III-A): a database D holds m x-tuples; each x-tuple
// is a set of mutually exclusive tuples whose existential probabilities sum
// to at most 1. When the sum s_l of x-tuple tau_l is below 1 we materialize
// the paper's conceptual "null" tuple with probability 1 - s_l. Null tuples
// are ranked below every real tuple and, among themselves, by ascending
// x-tuple id, so the ranking function assigns a unique rank to every tuple
// (the paper's standing uniqueness assumption). A possible world then draws
// exactly one alternative per x-tuple, which makes all quality algorithms
// (PW, PWR, TP) agree on one well-defined pw-result space.

#ifndef UCLEAN_MODEL_DATABASE_H_
#define UCLEAN_MODEL_DATABASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/tuple.h"

namespace uclean {

/// An immutable probabilistic database with tuples pre-sorted in descending
/// rank order (the paper's standing assumption before any algorithm runs).
///
/// Tuples are addressed by *rank index*: tuple(0) is the highest-ranked
/// tuple, tuple(num_tuples()-1) the lowest. Rank indices include the
/// materialized null tuples, which occupy the tail of the order.
class ProbabilisticDatabase {
 public:
  ProbabilisticDatabase() = default;

  /// Total number of tuple slots, including materialized null tuples and
  /// (in a cleaning session) tombstoned entries awaiting compaction.
  size_t num_tuples() const { return tuples_.size(); }

  /// Number of live user-supplied (non-null, non-tombstoned) tuples.
  size_t num_real_tuples() const { return num_real_; }

  /// Number of x-tuples (the paper's m).
  size_t num_xtuples() const { return members_.size(); }

  /// The tuple at the given rank index (0 = highest rank).
  const Tuple& tuple(size_t rank_index) const { return tuples_[rank_index]; }

  /// All tuples in descending rank order.
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Rank indices of the alternatives of x-tuple `l`, best rank first.
  /// Includes the null alternative if one was materialized. Never empty.
  const std::vector<int32_t>& xtuple_members(XTupleId l) const {
    return members_[l];
  }

  /// Total existential mass of the real tuples of x-tuple `l` (the paper's
  /// s_l); 1 - mass is the probability of the null alternative.
  double xtuple_real_mass(XTupleId l) const { return real_mass_[l]; }

  /// Number of possible worlds, as a double because it overflows 64 bits
  /// for realistic databases (product over x-tuples of alternative counts).
  double NumPossibleWorlds() const;

  /// Rank index of the (live) tuple with the given user id, or NotFound.
  Result<size_t> RankIndexOfTupleId(TupleId id) const;

  /// Human-readable table of the first `max_rows` tuples in rank order.
  std::string DebugString(size_t max_rows = 32) const;

  // ----- in-place cleaning support (incremental session engine) -----

  /// True when `rank_index` holds a tuple dropped by ApplyCleanOutcome and
  /// not yet compacted away. Tombstoned slots must be skipped by scans.
  bool is_tombstone(size_t rank_index) const {
    return !tombstones_.empty() && tombstones_[rank_index] != 0;
  }

  /// Number of tombstoned slots awaiting compaction.
  size_t num_tombstones() const { return num_tombstones_; }

  /// True when at least one slot is tombstoned.
  bool has_tombstones() const { return num_tombstones_ > 0; }

  /// What a successful ApplyCleanOutcome changed; consumed by incremental
  /// state maintainers (PsrEngine::ReplaySession / delta TP, through the
  /// overlay form).
  struct CleanOutcomeDelta {
    /// First rank index whose tuple (existence or probability) changed;
    /// every tuple ranked strictly above is untouched, so rank-probability
    /// state is valid up to (excluding) this position. Equals num_tuples()
    /// when the outcome was already materialized (no-op).
    size_t first_changed_rank = 0;

    /// Rank index of the surviving certain tuple (the resolved alternative,
    /// or the x-tuple's null slot for an "entity absent" outcome).
    size_t resolved_rank = 0;

    /// True when the entity resolved to the null outcome.
    bool resolved_null = false;
  };

  /// Collapses x-tuple `xtuple` to the certain outcome `resolved_id`
  /// in place, mirroring a successful pclean (Definition 5): the resolved
  /// alternative's probability becomes 1 and every sibling is tombstoned.
  /// A negative `resolved_id` selects the null outcome (entity absent),
  /// which requires a materialized null alternative. Surviving rank
  /// indices are unchanged; call CompactTombstones to reclaim slots.
  ///
  /// Fails with OutOfRange/NotFound when `xtuple` or `resolved_id` does not
  /// name a live alternative of the x-tuple.
  Result<CleanOutcomeDelta> ApplyCleanOutcome(XTupleId xtuple,
                                              TupleId resolved_id);

  /// Erases tombstoned slots and renumbers rank indices. Returns the
  /// old-to-new rank-index map (-1 for erased slots); the map is monotone
  /// on surviving indices. No-op (identity-free empty vector) when there
  /// are no tombstones.
  std::vector<int32_t> CompactTombstones();

 private:
  friend class DatabaseBuilder;
  // The snapshot store (store/snapshot.h) persists and reconstitutes the
  // exact private representation -- including tombstone state -- so a
  // reloaded database is bitwise the saved one without re-validating or
  // re-sorting through the builder.
  friend class SnapshotAccess;

  std::vector<Tuple> tuples_;                 // descending rank order
  std::vector<std::vector<int32_t>> members_; // per-x-tuple rank indices
  std::vector<double> real_mass_;             // per-x-tuple s_l
  std::vector<uint8_t> tombstones_;           // empty until first clean
  size_t num_tombstones_ = 0;
  size_t num_real_ = 0;
};

/// Accumulates tuples, validates the model invariants and produces an
/// immutable ProbabilisticDatabase.
///
/// Usage:
///
///     DatabaseBuilder b;
///     XTupleId s1 = b.AddXTuple("S1");
///     b.AddAlternative(s1, /*id=*/0, /*score=*/21.0, /*prob=*/0.6);
///     b.AddAlternative(s1, /*id=*/1, /*score=*/32.0, /*prob=*/0.4);
///     Result<ProbabilisticDatabase> db = std::move(b).Finish();
///
/// Finish() rejects: non-positive or >1 probabilities, per-x-tuple mass
/// above 1 (beyond rounding slack), duplicate tuple ids, and negative ids
/// (reserved for null tuples). An x-tuple with no alternatives is legal and
/// becomes a certain null (used to represent entities cleaned to "absent").
class DatabaseBuilder {
 public:
  DatabaseBuilder() = default;

  /// Registers a new x-tuple and returns its id. `label` is carried into
  /// the null tuple's label and reports.
  XTupleId AddXTuple(std::string label = "");

  /// Adds one alternative to an existing x-tuple.
  Status AddAlternative(XTupleId xtuple, TupleId id, double score, double prob,
                        std::string label = "");

  /// Number of x-tuples added so far.
  size_t num_xtuples() const { return xtuple_labels_.size(); }

  /// Validates and builds the database. Consumes the builder.
  Result<ProbabilisticDatabase> Finish() &&;

  /// Builds a new builder pre-loaded with the contents of `db` (real tuples
  /// only; null completion is re-derived by Finish). Used by the cleaning
  /// engine to derive cleaned databases.
  static DatabaseBuilder FromDatabase(const ProbabilisticDatabase& db);

  /// Drops every alternative of `xtuple` and replaces it with the single
  /// certain tuple `certain` (prob forced to 1), or with nothing if
  /// `certain` is nullptr (entity known absent -> certain null). Mirrors a
  /// successful pclean (Definition 5).
  Status ReplaceWithCertain(XTupleId xtuple, const Tuple* certain);

 private:
  /// Mass slack tolerated before an x-tuple is declared over-full, and
  /// below which a residual is not materialized as a null tuple.
  static constexpr double kMassEpsilon = 1e-9;

  std::vector<std::string> xtuple_labels_;
  std::vector<std::vector<Tuple>> pending_;  // per-x-tuple alternatives
};

}  // namespace uclean

#endif  // UCLEAN_MODEL_DATABASE_H_
