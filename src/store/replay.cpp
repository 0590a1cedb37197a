#include "store/replay.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace htims::store {

namespace {

telemetry::Counter& frames_served_counter() {
    static auto& counter =
        telemetry::Registry::global().counter("replay.frames_served");
    return counter;
}

telemetry::Gauge& rate_gauge() {
    // Gauges are integral; expose the playback speed in milli-x.
    static auto& gauge = telemetry::Registry::global().gauge("replay.rate_x");
    return gauge;
}

}  // namespace

pipeline::Frame period_to_frame(const pipeline::FrameLayout& layout,
                                std::span<const std::uint32_t> samples) {
    if (samples.size() != layout.cells())
        throw ConfigError("period template must have layout.cells() samples");
    pipeline::Frame frame(layout);
    auto cells = frame.data();
    for (std::size_t i = 0; i < samples.size(); ++i)
        cells[i] = static_cast<double>(samples[i]);
    return frame;
}

ReplaySource::ReplaySource(const FrameStoreReader& reader,
                           const ReplayConfig& config)
    : reader_(&reader),
      rate_x_(config.rate_x),
      drift_bins_(reader.layout().drift_bins),
      mz_bins_(reader.layout().mz_bins) {
    if (drift_bins_ == 0 || mz_bins_ == 0)
        throw ConfigError("replay needs a store with a non-empty layout");
    records_per_frame_ =
        reader.averages() * static_cast<std::uint64_t>(drift_bins_);
    // One record per drift bin at the instrument's cadence.
    record_period_ns_ = reader.layout().drift_bin_width_s * 1e9;

    // Verify every slot once, in place; replay then serves only intact
    // frames, in stored order, remembering each one's live frame index.
    intact_.reserve(reader.frames());
    seqs_.reserve(reader.frames());
    for (std::size_t i = 0; i < reader.frames(); ++i) {
        try {
            (void)reader.verify(i);
            intact_.push_back(i);
            seqs_.push_back(reader.entry(i).seq);
        } catch (const Error&) {
            ++skipped_;
        }
    }

    // Conversion already rode along with validation's page walk: when the
    // uint32 image fits the cap, keep it resident so record_block() is a
    // pure span lookup — the path that matches live-template serving speed.
    const std::size_t image_bytes =
        intact_.size() * reader.layout().cells() * sizeof(std::uint32_t);
    if (image_bytes <= config.resident_cap_bytes) {
        resident_.reserve(intact_.size());
        for (const std::size_t entry_index : intact_)
            resident_.push_back(convert(entry_index));
        frames_served_counter().add(static_cast<std::int64_t>(intact_.size()));
    } else {
        slots_.resize(2);
    }
    rate_gauge().set(static_cast<std::int64_t>(
        std::llround(std::max(0.0, rate_x_) * 1000.0)));
}

std::vector<std::uint32_t> ReplaySource::convert(std::size_t entry_index) const {
    // Stored cells are nonnegative integral doubles (the exact image of the
    // live uint32 stream), so llround is lossless. The payload is read
    // straight from the mapping — CRC-verified once at construction, and
    // the file is immutable from then on.
    const auto cells = reader_->payload(entry_index);
    std::vector<std::uint32_t> samples(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        samples[i] = static_cast<std::uint32_t>(
            std::llround(std::max(0.0, cells[i])));
    return samples;
}

void ReplaySource::set_window(std::size_t records) {
    if (resident()) return;  // the whole run is cached; no window to keep
    // `records` spans may be queued at once; they can straddle at most
    // records / records_per_frame + 2 distinct frames (partial frame at
    // each end). One extra slot keeps the frame being filled safe too.
    const std::size_t span_frames =
        records / static_cast<std::size_t>(records_per_frame_) + 3;
    slots_.assign(std::max<std::size_t>(2, span_frames), Slot{});
}

std::span<const std::uint32_t> ReplaySource::samples_for(
    std::uint64_t frame_index) {
    if (resident()) return resident_[static_cast<std::size_t>(frame_index)];
    Slot& slot = slots_[static_cast<std::size_t>(frame_index) % slots_.size()];
    if (slot.frame != frame_index) {
        slot.samples = convert(intact_[static_cast<std::size_t>(frame_index)]);
        slot.frame = frame_index;
        frames_served_counter().increment();
    }
    return slot.samples;
}

std::span<const std::uint32_t> ReplaySource::record_block(
    std::uint64_t seq, std::size_t max_records) {
    HTIMS_DCHECK(seq < total_records(), "replay record index in range");
    // Rows are contiguous in the cached frame image until the period wraps
    // at the drift axis; the batch producer takes whatever is contiguous.
    const std::uint64_t frame_index = seq / records_per_frame_;
    const auto samples = samples_for(frame_index);
    const std::size_t row = static_cast<std::size_t>(seq % drift_bins_);
    const std::size_t k = std::min(max_records, drift_bins_ - row);
    return samples.subspan(row * mz_bins_, k * mz_bins_);
}

std::uint64_t ReplaySource::release_ns(std::uint64_t seq) const {
    if (rate_x_ <= 0.0 || record_period_ns_ <= 0.0) return 0;
    const double at = static_cast<double>(seq) * record_period_ns_ / rate_x_;
    return static_cast<std::uint64_t>(at);
}

}  // namespace htims::store
