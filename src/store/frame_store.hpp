// frame_store.hpp — zero-copy mmap-backed persistent frame store.
//
// The data-service half of the roadmap: where frame_io streams a run
// through buffered writes (with a serialize-then-copy on the faulted path)
// and slurps it back whole, the store arena-allocates each frame inside a
// writable mapping and serializes it *in place* — the bytes the CRC covers
// are the bytes the kernel persists — then serves the run back by parsing
// frames straight out of a read-only mapping.
//
// On-disk layout (all little-endian, page = 4096 bytes):
//
//   page 0          superblock: magic/version, frame layout, averages, CRC
//   page 1..        frame arena: one v2 frame container per slot, each slot
//                   starting on a page boundary, zero-padded to the next
//   index           packed FrameEntry array, page-aligned after the arena
//   last 64 bytes   footer: counts, index offset, index CRC, footer CRC
//
// Two deliberate compatibility properties:
//
//  * The arena is a valid v2 frame *stream*: with the index destroyed
//    (partial finalize, footer corruption) the reader falls back to the
//    same skip-and-resync scan FrameStreamReader runs over any stream, so
//    every intact frame is still served and every loss is counted.
//  * Finalize is atomic-by-ordering: data pages are synced first, the
//    index+footer written and synced last. A crash mid-run (or the
//    store.index_torn fault) leaves a prefix the resync path recovers.
//
// Frames carry an application sequence tag (the live run's frame index) in
// a CRC-covered header word, so a replayed run preserves the seq identity
// of every frame it serves — that is what lets replay digests be matched
// 1:1 against the live run even when write faults lost frames in between.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "pipeline/frame.hpp"
#include "pipeline/frame_io.hpp"
#include "store/mmap_file.hpp"

namespace htims::store {

/// Arena granularity: every frame slot and the index start on a boundary.
inline constexpr std::size_t kStorePageBytes = 4096;

/// Run-level metadata persisted in the superblock.
struct StoreMeta {
    pipeline::FrameLayout layout;
    std::uint64_t averages = 1;  ///< periods accumulated per stored frame
};

/// One frame's index record.
struct FrameEntry {
    std::uint64_t offset = 0;  ///< container start (page-aligned)
    std::uint64_t bytes = 0;   ///< container bytes (header + payload)
    std::uint64_t seq = 0;     ///< application tag (live frame index)
};

/// Appends frames in place into a growing mapping; finalize() writes the
/// index footer last and fsyncs. Destroying the writer without finalize()
/// models a crash mid-run: the file holds a recoverable un-indexed prefix.
class FrameStoreWriter {
public:
    /// Creates (truncates) `path`. `faults` may arm store.torn_page (a
    /// page of an appended frame never hits disk) and store.index_torn
    /// (finalize dies mid-index); null injects nothing.
    FrameStoreWriter(const std::string& path, const StoreMeta& meta,
                     fault::FaultInjector* faults = nullptr);
    ~FrameStoreWriter() = default;

    FrameStoreWriter(const FrameStoreWriter&) = delete;
    FrameStoreWriter& operator=(const FrameStoreWriter&) = delete;

    /// Serialize `frame` into the arena, tagged `seq`. Appends must come in
    /// nondecreasing seq order (binary seek depends on it). Layout must
    /// match the superblock.
    void append(const pipeline::Frame& frame, std::uint64_t seq);

    /// Sync data, write index + footer (in that order), sync, truncate to
    /// exact size, close. Idempotent; append() afterwards is an error.
    void finalize();

    std::size_t frames() const { return entries_.size(); }
    std::uint64_t data_bytes() const { return data_end_; }
    bool finalized() const { return finalized_; }

private:
    MappedFile map_;
    StoreMeta meta_;
    fault::FaultInjector* faults_ = nullptr;
    std::vector<FrameEntry> entries_;
    std::uint64_t data_end_ = kStorePageBytes;  ///< end of last container
    bool finalized_ = false;
};

class FrameStoreReader;

/// Sequential validated pass over a store: every intact frame in order,
/// every damaged one counted as a loss — degraded-mode reading with the
/// same accounting contract as FrameStreamReader.
class FrameStoreScan {
public:
    /// Next intact frame, or nullopt when the store is exhausted.
    std::optional<pipeline::Frame> next();

    /// Seq tag of the last frame next() returned.
    std::uint64_t last_seq() const { return last_seq_; }

    const pipeline::FrameStreamStats& stats() const { return stats_; }

private:
    friend class FrameStoreReader;
    explicit FrameStoreScan(const FrameStoreReader* reader) : reader_(reader) {}

    const FrameStoreReader* reader_;
    std::size_t next_entry_ = 0;
    std::uint64_t last_seq_ = 0;
    pipeline::FrameStreamStats stats_;
};

/// Maps a store read-only and serves frames with O(1) seek by index and
/// O(log n) seek by sequence tag. When the index footer is missing or
/// damaged, construction rebuilds the entry table with a linear resync
/// scan (losses in recovery_stats()). frame() is const and touches only
/// immutable state, so K readers can fan out over one mapping.
class FrameStoreReader {
public:
    explicit FrameStoreReader(const std::string& path);

    const StoreMeta& meta() const { return meta_; }
    const pipeline::FrameLayout& layout() const { return meta_.layout; }
    std::uint64_t averages() const { return meta_.averages; }

    /// True when the index footer validated; false when the entry table
    /// was rebuilt by the resync scan.
    bool indexed() const { return indexed_; }

    std::size_t frames() const { return entries_.size(); }
    const FrameEntry& entry(std::size_t i) const { return entries_.at(i); }

    /// Verify frame i in place, copying nothing: the container's checks
    /// (magic, version, header CRC, plausible layout, payload length,
    /// payload CRC; pipeline::check_frame) and the slot's identity (its
    /// container fills exactly the indexed bytes and carries the indexed
    /// seq). Returns the frame's layout. Throws htims::Error when the slot
    /// is damaged (torn page, corruption).
    pipeline::FrameLayout verify(std::size_t i) const;

    /// verify(i), then a copy of the payload out of the mapping. Throws as
    /// verify() does; use scan() for counted skip-over-losses reading.
    pipeline::Frame frame(std::size_t i) const;

    /// Unverified zero-copy payload view of entry i: the row-major float64
    /// cells straight out of the mapping (page-aligned slot + 64-byte
    /// header keeps them 8-byte aligned). No CRC is rechecked — for callers
    /// that checked the entry once with verify() and then serve it hot, the
    /// replay path's warm loop.
    std::span<const double> payload(std::size_t i) const;

    /// Entry index holding sequence tag `seq`, if any (binary search).
    std::optional<std::size_t> find_seq(std::uint64_t seq) const;

    FrameStoreScan scan() const { return FrameStoreScan(this); }

    /// Losses observed while rebuilding the index (empty when indexed()).
    const pipeline::FrameStreamStats& recovery_stats() const {
        return recovery_stats_;
    }

    std::span<const std::byte> mapped() const { return map_.span(); }

    /// Page-cache eviction hint for cold-replay measurement.
    void advise_dont_need() { map_.advise_dont_need(); }

private:
    MappedFile map_;
    StoreMeta meta_;
    bool indexed_ = false;
    std::vector<FrameEntry> entries_;
    pipeline::FrameStreamStats recovery_stats_;
};

}  // namespace htims::store
