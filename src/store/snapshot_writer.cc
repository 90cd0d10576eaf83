// Writer half of the snapshot store: section payload encoders, the
// container builder, and WriteSnapshot. See store/snapshot.h for the
// format contract; the byte-level encodings here are mirrored by
// snapshot_reader.cc and must only ever change together with a section
// version bump.

#include <cmath>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/fault.h"
#include "clean/session_pool.h"
#include "common/status.h"
#include "model/database.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "rank/psr_engine.h"
#include "store/binstream.h"
#include "store/crc32.h"
#include "store/snapshot.h"

namespace uclean {
namespace store {

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionMeta:
      return "meta";
    case kSectionDatabase:
      return "database";
    case kSectionEngine:
      return "engine";
    case kSectionSessions:
      return "sessions";
    case kSectionCampaign:
      return "campaign";
    default:
      return "unknown";
  }
}

void AppendSectionEntry(BinWriter* w, const SectionEntry& entry) {
  w->PutU32(entry.id);
  w->PutU32(entry.version);
  w->PutU64(entry.offset);
  w->PutU64(entry.size);
  w->PutU32(entry.crc);
}

Status ParseSectionEntry(BinReader* r, SectionEntry* entry) {
  UCLEAN_RETURN_IF_ERROR(r->GetU32(&entry->id));
  UCLEAN_RETURN_IF_ERROR(r->GetU32(&entry->version));
  UCLEAN_RETURN_IF_ERROR(r->GetU64(&entry->offset));
  UCLEAN_RETURN_IF_ERROR(r->GetU64(&entry->size));
  UCLEAN_RETURN_IF_ERROR(r->GetU32(&entry->crc));
  return Status::OK();
}

void SnapshotFileBuilder::AddSection(uint32_t id, uint32_t version,
                                     std::string payload) {
  sections_.push_back({id, version, std::move(payload)});
}

std::string SnapshotFileBuilder::Finish() const {
  // Payloads sit back to back after the header; the table trails them so
  // the writer streams in one pass.
  uint64_t offset = kSnapshotHeaderSize;
  std::vector<SectionEntry> entries;
  entries.reserve(sections_.size());
  for (const PendingSection& section : sections_) {
    SectionEntry entry;
    entry.id = section.id;
    entry.version = section.version;
    entry.offset = offset;
    entry.size = section.payload.size();
    entry.crc = Crc32(section.payload.data(), section.payload.size());
    entries.push_back(entry);
    offset += entry.size;
  }
  const uint64_t table_offset = offset;

  BinWriter file;
  file.PutU8(static_cast<uint8_t>(kSnapshotMagic[0]));
  for (size_t i = 1; i < sizeof(kSnapshotMagic); ++i) {
    file.PutU8(static_cast<uint8_t>(kSnapshotMagic[i]));
  }
  file.PutU32(format_version_);
  file.PutU32(feature_flags_);
  file.PutU32(static_cast<uint32_t>(sections_.size()));
  file.PutU64(table_offset);
  file.PutU32(Crc32(file.bytes().data(), file.bytes().size()));

  std::string bytes = file.Take();
  for (const PendingSection& section : sections_) {
    bytes.append(section.payload);
  }

  BinWriter table;
  for (const SectionEntry& entry : entries) {
    AppendSectionEntry(&table, entry);
  }
  table.PutU32(Crc32(table.bytes().data(), table.bytes().size()));
  bytes.append(table.bytes());
  return bytes;
}

namespace {

/// Writes `values[0, live)` as a double array; the reader re-creates the
/// zero tail. Every entry at or past `live` must be +0.0 bit for bit
/// (Lemma 2: nothing past a rung's scan end carries probability or
/// weight) -- anything else would be dropped silently, so it is Internal.
Status PutLivePrefix(const std::vector<double>& values, size_t live,
                     const char* what, BinWriter* w) {
  if (live > values.size()) {
    return Status::Internal(std::string(what) + ": scan end " +
                            std::to_string(live) + " past the array (" +
                            std::to_string(values.size()) + ")");
  }
  for (size_t i = live; i < values.size(); ++i) {
    if (values[i] != 0.0 || std::signbit(values[i])) {
      return Status::Internal(std::string(what) + ": nonzero entry at " +
                              std::to_string(i) + " past scan end " +
                              std::to_string(live));
    }
  }
  w->PutF64Array(values.data(), live);
  return Status::OK();
}

Status EncodePsrOutput(const PsrOutput& out, BinWriter* w) {
  w->PutVarint(out.k);
  w->PutVarint(out.scan_end);
  w->PutVarint(out.num_nonzero);
  UCLEAN_RETURN_IF_ERROR(
      PutLivePrefix(out.topk_prob, out.scan_end, "PSR top-k vector", w));
  w->PutF64Array(out.best_rank_prob.data(), out.best_rank_prob.size());
  w->PutVarint(out.best_rank_index.size());
  for (int32_t index : out.best_rank_index) w->PutZigzag(index);
  w->PutBool(out.has_rank_probabilities);
  if (!out.has_rank_probabilities) {
    if (!out.rank_prob.empty()) {
      return Status::Internal(
          "rank-probability matrix present but not flagged as stored");
    }
    return Status::OK();
  }
  return PutLivePrefix(out.rank_prob, out.scan_end * out.k,
                       "rank-probability matrix", w);
}

Status EncodeTpOutput(const TpOutput& tp, BinWriter* w) {
  w->PutF64(tp.quality);
  w->PutVarint(tp.scan_end);
  UCLEAN_RETURN_IF_ERROR(
      PutLivePrefix(tp.omega, tp.scan_end, "TP omega vector", w));
  w->PutF64Array(tp.xtuple_gain.data(), tp.xtuple_gain.size());
  w->PutF64Array(tp.xtuple_topk_mass.data(), tp.xtuple_topk_mass.size());
  return Status::OK();
}

void EncodeProbeRecord(const ProbeRecord& record, BinWriter* w) {
  w->PutZigzag(record.xtuple);
  w->PutZigzag(record.attempts);
  w->PutZigzag(record.spent);
  w->PutBool(record.success);
  w->PutZigzag(record.resolved_id);
  w->PutZigzag(record.failures);
  w->PutZigzag(record.retries);
  w->PutVarint(static_cast<uint64_t>(record.last_error));
}

void EncodeFaultStats(const FaultStats& stats, BinWriter* w) {
  w->PutZigzag(stats.transient);
  w->PutZigzag(stats.timeouts);
  w->PutZigzag(stats.source_down);
  w->PutZigzag(stats.retries);
  w->PutZigzag(stats.failed_probes);
  w->PutZigzag(stats.breaker_skips);
  w->PutZigzag(stats.deadline_skips);
  w->PutZigzag(stats.budget_unspent);
}

void EncodeInjectorState(const FaultInjectorState& state, BinWriter* w) {
  w->PutString(state.rng_state);
  w->PutZigzag(state.now_us);
  w->PutBool(state.ever_opened);
  w->PutVarint(state.breakers.size());
  for (const FaultInjectorState::BreakerEntry& breaker : state.breakers) {
    w->PutZigzag(breaker.source);
    w->PutU8(breaker.state);
    w->PutZigzag(breaker.consecutive_failures);
    w->PutZigzag(breaker.open_until_us);
  }
  w->PutVarint(state.down.size());
  for (const FaultInjectorState::DownEntry& entry : state.down) {
    w->PutZigzag(entry.source);
    w->PutBool(entry.down);
  }
}

}  // namespace

Status WriteSnapshot(const SessionPool& pool, const std::string& path,
                     const CampaignSnapshot* campaign) {
  std::string bytes;
  UCLEAN_RETURN_IF_ERROR(SnapshotAccess::Serialize(pool, campaign, &bytes));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace store

// ---------------------------------------------------------------------------
// SnapshotAccess: writer half.
// ---------------------------------------------------------------------------

void SnapshotAccess::EncodeMeta(const SessionPool& pool,
                                const store::CampaignSnapshot* campaign,
                                store::BinWriter* w) {
  (void)campaign;
  w->PutString("uclean");
  // The RESOLVED kernel the pool's scans actually ran on (never "auto"):
  // the satellite provenance bench_* JSON and `snapshot inspect` report.
  w->PutString(pool.engine_.core_.kernel->name);
  w->PutVarint(pool.exec().num_threads);
  w->PutVarint(pool.base().num_xtuples());
  w->PutVarint(pool.base().num_tuples());
  w->PutVarint(pool.num_open());
  w->PutVarintArray(pool.ladder().ks);
}

Status SnapshotAccess::EncodeDatabase(const ProbabilisticDatabase& db,
                                      store::BinWriter* w) {
  w->PutVarint(db.tuples_.size());
  for (const Tuple& t : db.tuples_) {
    w->PutZigzag(t.id);
    w->PutVarint(static_cast<uint64_t>(t.xtuple));
    w->PutF64(t.score);
    w->PutF64(t.prob);
    w->PutBool(t.is_null);
    w->PutString(t.label);
  }
  // Member lists are not stored: the reader derives them from the tuple
  // table and the tombstone bitmap. Prove the derivation is exact -- each
  // list ascending, live and owned, and together covering every live
  // tuple once -- rather than ship a file that reloads differently.
  size_t listed = 0;
  for (size_t l = 0; l < db.members_.size(); ++l) {
    int32_t prev = -1;
    for (int32_t rank : db.members_[l]) {
      if (rank <= prev || db.is_tombstone(static_cast<size_t>(rank)) ||
          db.tuples_[rank].xtuple != static_cast<XTupleId>(l)) {
        return Status::Internal("x-tuple " + std::to_string(l) +
                                " member list is not its ascending live "
                                "ranks");
      }
      prev = rank;
    }
    listed += db.members_[l].size();
  }
  if (listed != db.tuples_.size() - db.num_tombstones_) {
    return Status::Internal("x-tuple member lists miss live tuples");
  }
  w->PutF64Array(db.real_mass_.data(), db.real_mass_.size());
  w->PutString(std::string_view(
      reinterpret_cast<const char*>(db.tombstones_.data()),
      db.tombstones_.size()));
  w->PutVarint(db.num_tombstones_);
  w->PutVarint(db.num_real_);
  return Status::OK();
}

void SnapshotAccess::EncodeCheckpoint(const PsrEngine::Checkpoint& cp,
                                      store::BinWriter* w) {
  w->PutVarint(cp.pos);
  w->PutVarint(cp.live);
  w->PutF64Array(cp.c.data(), cp.c.size());
  w->PutVarint(cp.active);
  w->PutVarint(cp.saturated);
}

Status SnapshotAccess::EncodeEngine(const PsrEngine& engine,
                                    store::BinWriter* w) {
  w->PutBool(engine.options_.early_termination);
  w->PutBool(engine.options_.store_rank_probabilities);
  w->PutVarintArray(engine.ladder_.ks);
  w->PutVarint(engine.outputs_.size());
  for (const PsrOutput& out : engine.outputs_) {
    UCLEAN_RETURN_IF_ERROR(store::EncodePsrOutput(out, w));
  }
  w->PutVarint(engine.checkpoints_.size());
  for (const PsrEngine::Checkpoint& cp : engine.checkpoints_) {
    EncodeCheckpoint(cp, w);
  }
  w->PutVarint(engine.checkpoint_interval_);
  return Status::OK();
}

Status SnapshotAccess::EncodeSessions(const SessionPool& pool,
                                      store::BinWriter* w) {
  w->PutVarint(pool.base_tps_.size());
  for (const TpOutput& tp : pool.base_tps_) {
    UCLEAN_RETURN_IF_ERROR(store::EncodeTpOutput(tp, w));
  }
  w->PutVarint(pool.sessions_.size());
  for (const SessionPool::Session& session : pool.sessions_) {
    w->PutBool(session.open);
    if (!session.open) continue;
    const auto& outcomes = session.overlay.outcomes();
    w->PutVarint(outcomes.size());
    for (const auto& [xtuple, resolved_id] : outcomes) {
      w->PutZigzag(xtuple);
      w->PutZigzag(resolved_id);
    }
    // Pristine sessions (no outcomes) carry no state, in memory or on
    // disk: they alias the engine's outputs and the base TP ladder.
    const bool has_state = !outcomes.empty();
    UCLEAN_DCHECK(has_state != session.pristine());
    w->PutBool(has_state);
    if (!has_state) continue;
    const PsrEngine::SessionState& scan = session.scan;
    w->PutVarint(scan.outputs_.size());
    for (const PsrOutput& out : scan.outputs_) {
      UCLEAN_RETURN_IF_ERROR(store::EncodePsrOutput(out, w));
    }
    w->PutVarint(scan.checkpoints_.size());
    for (const PsrEngine::Checkpoint& cp : scan.checkpoints_) {
      EncodeCheckpoint(cp, w);
    }
    w->PutVarint(scan.checkpoint_interval_);
    w->PutVarint(session.tps.size());
    for (const TpOutput& tp : session.tps) {
      UCLEAN_RETURN_IF_ERROR(store::EncodeTpOutput(tp, w));
    }
  }
  w->PutVarintArray(pool.free_slots_);
  w->PutVarint(pool.num_open_);
  return Status::OK();
}

void SnapshotAccess::EncodeCampaign(const store::CampaignSnapshot& campaign,
                                    store::BinWriter* w) {
  w->PutZigzag(campaign.budget);
  w->PutVarint(campaign.sessions.size());
  for (const store::CampaignSessionSnapshot& session : campaign.sessions) {
    w->PutVarint(session.session_id);
    w->PutZigzag(session.spent);
    w->PutZigzag(session.leftover);
    w->PutVarint(session.successes);
    w->PutVarint(session.rounds);
    w->PutVarint(session.log.size());
    for (const ProbeRecord& record : session.log) {
      store::EncodeProbeRecord(record, w);
    }
    store::EncodeFaultStats(session.faults, w);
    w->PutString(session.rng_state);
    w->PutBool(session.has_injector);
    if (session.has_injector) {
      store::EncodeInjectorState(session.injector, w);
    }
  }
}

Status SnapshotAccess::Serialize(const SessionPool& pool,
                                 const store::CampaignSnapshot* campaign,
                                 std::string* bytes) {
  for (size_t id = 0; id < pool.sessions_.size(); ++id) {
    const SessionPool::Session& session = pool.sessions_[id];
    if (session.open &&
        session.pending_replay_begin != SessionPool::kNoPending) {
      return Status::FailedPrecondition(
          "session " + std::to_string(id) +
          " is dirty; Refresh before WriteSnapshot (a snapshot must not "
          "freeze stale maintained state)");
    }
  }

  store::SnapshotFileBuilder builder;
  builder.set_feature_flags(campaign != nullptr ? store::kFeatureCampaign
                                                : 0);
  {
    store::BinWriter w;
    EncodeMeta(pool, campaign, &w);
    builder.AddSection(store::kSectionMeta, store::kSectionVersion, w.Take());
  }
  {
    store::BinWriter w;
    UCLEAN_RETURN_IF_ERROR(EncodeDatabase(pool.base(), &w));
    builder.AddSection(store::kSectionDatabase, store::kSectionVersion,
                       w.Take());
  }
  {
    store::BinWriter w;
    UCLEAN_RETURN_IF_ERROR(EncodeEngine(pool.engine_, &w));
    builder.AddSection(store::kSectionEngine, store::kSectionVersion,
                       w.Take());
  }
  {
    store::BinWriter w;
    UCLEAN_RETURN_IF_ERROR(EncodeSessions(pool, &w));
    builder.AddSection(store::kSectionSessions, store::kSectionVersion,
                       w.Take());
  }
  if (campaign != nullptr) {
    store::BinWriter w;
    EncodeCampaign(*campaign, &w);
    builder.AddSection(store::kSectionCampaign, store::kSectionVersion,
                       w.Take());
  }
  *bytes = builder.Finish();
  return Status::OK();
}

std::vector<size_t> SnapshotAccess::EngineCheckpointPositions(
    const SessionPool& pool) {
  return pool.engine_.checkpoint_positions();
}

std::vector<size_t> SnapshotAccess::SessionCheckpointPositions(
    const SessionPool& pool, SessionPool::SessionId id) {
  const SessionPool::Session& session = pool.Slot(id);
  std::vector<size_t> positions;
  positions.reserve(session.scan.checkpoints_.size());
  for (const PsrEngine::Checkpoint& cp : session.scan.checkpoints_) {
    positions.push_back(cp.pos);
  }
  return positions;
}

PsrOutput* SnapshotAccess::MutableEngineOutput(SessionPool* pool,
                                               size_t rung) {
  return &pool->engine_.outputs_[rung];
}

TpOutput* SnapshotAccess::MutableBaseTp(SessionPool* pool, size_t rung) {
  return &pool->base_tps_[rung];
}

void SnapshotAccess::DropSessionRung(SessionPool* pool,
                                     SessionPool::SessionId id) {
  std::vector<PsrOutput>& outputs = pool->sessions_[id].scan.outputs_;
  UCLEAN_CHECK(!outputs.empty());
  outputs.pop_back();
}

}  // namespace uclean
