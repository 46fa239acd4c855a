#ifndef TOPKPKG_STORAGE_CODEC_H_
#define TOPKPKG_STORAGE_CODEC_H_

// Versioned binary codecs for the session state the durable store persists:
// the elicited PreferenceSet DAG, the SamplePool (with its process-unique
// SampleIds — identity is part of the state, the incremental ranker's cache
// is keyed by it), the ranking layer's TopListCache, and the RoundLog
// history — the sections of one session's checkpoint record. Each
// payload starts with a one-byte format version so sections can evolve
// independently; decoders reject unknown versions with Unimplemented and
// malformed bytes with OutOfRange/InvalidArgument — never UB (every read is
// bounds-checked through ByteReader).
//
// The contract is *bit-identical* restore: doubles round-trip as IEEE-754
// bit patterns, orders are preserved (pool order, node order, adjacency
// order), so a restored session's next round replays exactly as the
// uninterrupted one would.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topkpkg/common/serde.h"
#include "topkpkg/common/status.h"
#include "topkpkg/pref/preference_set.h"
#include "topkpkg/ranking/incremental_ranker.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/sampling/sample_pool.h"

namespace topkpkg::storage {

class SessionStore;

// A checkpointed PackageRecommender session is one store record under its
// session id: the whole serving state, encoded by
// PackageRecommender::EncodeCheckpoint with the payloads below as
// length-prefixed sections. One record is one CRC-checked append, so the
// record log's torn-tail rule makes a checkpoint all-or-nothing and one
// generation per session stays live. The record's leading version byte
// makes Restore refuse other checkpoint versions (Unimplemented) instead
// of misreading them.
//
// The store side of a checkpoint, shared by PackageRecommender's
// Checkpoint/Restore and the serving tier (which calls these under its
// store lock and encodes/decodes outside it). PutCheckpoint is Put + Flush.
// GetCheckpoint returns nullopt only when the session has no checkpoint
// record; a record that is present but unreadable (its segment missing or
// damaged) is an error, never mistaken for a fresh session.
Status PutCheckpoint(SessionStore& store, std::uint64_t session_id,
                     const std::string& checkpoint);
Result<std::optional<std::string>> GetCheckpoint(const SessionStore& store,
                                                 std::uint64_t session_id);

// The single wire format for one model::Package (u32 item count + u32
// item ids), shared by the codecs here and the recommender's checkpoint
// record.
void PutPackage(ByteWriter& w, const model::Package& p);
Result<model::Package> GetPackage(ByteReader& r);

// --- PreferenceSet -------------------------------------------------------

std::string EncodePreferenceSet(const pref::PreferenceSet& set);
Result<pref::PreferenceSet> DecodePreferenceSet(const std::string& payload);

// --- SamplePool ----------------------------------------------------------

// Decode rebuilds the pool via SamplePool::FromSnapshot, which also raises
// the process-wide id mint past the restored ids.
std::string EncodeSamplePool(const sampling::SamplePool& pool);
Result<sampling::SamplePool> DecodeSamplePool(const std::string& payload);

// --- IncrementalRanker's TopListCache ------------------------------------

std::string EncodeTopListCache(const ranking::IncrementalRanker& ranker);
Status DecodeTopListCacheInto(const std::string& payload,
                              ranking::IncrementalRanker& ranker);

// --- RoundLog history ----------------------------------------------------

std::string EncodeRoundHistory(const std::vector<recsys::RoundLog>& history);
Result<std::vector<recsys::RoundLog>> DecodeRoundHistory(
    const std::string& payload);

}  // namespace topkpkg::storage

#endif  // TOPKPKG_STORAGE_CODEC_H_
