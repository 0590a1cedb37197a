// replay.hpp — serve a recorded run back into the hybrid pipeline.
//
// ReplaySource adapts a FrameStoreReader to the pipeline's RecordSource
// interface: each stored frame (a period template tagged with its live
// frame index) is parsed out of the read-only mapping on demand, converted
// back to the uint32 sample records the link carries, and handed to the
// producer as runs of contiguous rows — at the recorded line rate (rate_x = 1), a scaled
// rate, or as fast as the link accepts (rate_x = 0).
//
// The conversion is llround of nonnegative integral doubles, the exact
// inverse of to_period_samples(), so the replayed byte stream is identical
// to the live run's and decoded frame digests match bit for bit. Damaged
// frames (torn pages, truncation) are excluded up front; frame_seq(i) maps
// replayed frame i back to its live frame index so digests can still be
// compared 1:1 when the store lost frames.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pipeline/frame.hpp"
#include "pipeline/hybrid.hpp"
#include "store/frame_store.hpp"

namespace htims::store {

/// Expand a uint32 period-sample template into a double-valued Frame —
/// the conversion a recording caller applies before FrameStoreWriter::
/// append(). Integral values survive the round trip exactly.
pipeline::Frame period_to_frame(const pipeline::FrameLayout& layout,
                                std::span<const std::uint32_t> samples);

struct ReplayConfig {
    /// Playback speed as a multiple of the recorded line rate. 1.0 replays
    /// at the instrument's drift-bin cadence; 0 (or negative) streams at
    /// the maximum rate the link accepts.
    double rate_x = 0.0;

    /// Runs whose converted uint32 image fits this budget are made fully
    /// resident during construction (validation already parses every frame,
    /// so conversion rides along for free) — record_block() then serves
    /// pure span lookups at template-source speed. Larger runs stream through a
    /// bounded slot ring sized by set_window(), converting frames on first
    /// touch as the window slides.
    std::size_t resident_cap_bytes = std::size_t{256} << 20;
};

/// RecordSource over a frame store. Single-producer use only (the hybrid
/// pipeline's producer thread), like every RecordSource.
class ReplaySource final : public pipeline::RecordSource {
public:
    /// Validates every stored frame once (CRC + parse) and keeps the intact
    /// ones; damaged frames are dropped here and counted in skipped().
    ReplaySource(const FrameStoreReader& reader, const ReplayConfig& config);

    /// Intact frames available for replay.
    std::uint64_t frames() const { return static_cast<std::uint64_t>(intact_.size()); }

    /// Live frame index (store seq tag) of replayed frame i.
    std::uint64_t frame_seq(std::size_t i) const { return seqs_.at(i); }

    /// Stored frames excluded because their slot failed validation.
    std::uint64_t skipped() const { return skipped_; }

    /// Records per replayed frame: averages * drift_bins, matching the
    /// live run's stream shape.
    std::uint64_t records_per_frame() const { return records_per_frame_; }

    /// True when the whole converted run is held in memory (fit under
    /// ReplayConfig::resident_cap_bytes).
    bool resident() const { return !resident_.empty(); }

    std::uint64_t total_records() const override {
        return frames() * records_per_frame_;
    }
    std::span<const std::uint32_t> record_block(std::uint64_t seq,
                                                std::size_t max_records) override;
    std::uint64_t release_ns(std::uint64_t seq) const override;
    void set_window(std::size_t records) override;

private:
    /// One cached frame converted to link samples. The slot ring is sized
    /// by set_window() so every record span the pipeline may still hold a
    /// pointer into stays alive until the ring wraps past it.
    struct Slot {
        std::uint64_t frame = ~std::uint64_t{0};
        std::vector<std::uint32_t> samples;
    };

    std::span<const std::uint32_t> samples_for(std::uint64_t frame_index);
    std::vector<std::uint32_t> convert(std::size_t entry_index) const;

    const FrameStoreReader* reader_;
    double rate_x_ = 0.0;
    double record_period_ns_ = 0.0;
    std::uint64_t records_per_frame_ = 0;
    std::size_t drift_bins_ = 0;
    std::size_t mz_bins_ = 0;
    std::vector<std::size_t> intact_;   ///< store entry index per replay frame
    std::vector<std::uint64_t> seqs_;   ///< live frame index per replay frame
    std::uint64_t skipped_ = 0;
    std::vector<std::vector<std::uint32_t>> resident_;  ///< full-run cache
    std::vector<Slot> slots_;           ///< windowed fallback past the cap
};

}  // namespace htims::store
