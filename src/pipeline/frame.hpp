// frame.hpp — the IMS-TOF data unit flowing through the pipeline.
//
// One frame is a full multiplexing period: drift_bins x mz_bins accumulated
// detector counts. Drift is the slow axis (one TOF record per drift bin),
// matching the instrument's nested acquisition. Storage is row-major with
// drift as the row index, so a "TOF record" is one contiguous row and a
// per-m/z drift profile is a strided column. The decoders work on tiles of
// adjacent columns in place (EnhancedDeconvolver::decode_batch with the
// m/z width as its stride), so a frame holds no tile layout of its own.
#pragma once

#include <cstddef>
#include <span>

#include "common/aligned_buffer.hpp"

namespace htims::pipeline {

/// Dimensions and time base of a frame.
struct FrameLayout {
    std::size_t drift_bins = 0;     ///< fine-grid drift bins per period
    std::size_t mz_bins = 0;        ///< m/z channels per TOF record
    double drift_bin_width_s = 0.0; ///< wall-clock duration of one drift bin

    std::size_t cells() const { return drift_bins * mz_bins; }
    /// Duration of one full frame (one multiplexing period).
    double period_s() const { return static_cast<double>(drift_bins) * drift_bin_width_s; }
    /// Raw detector sample rate implied by the layout (samples/s): one m/z
    /// record per drift bin.
    double sample_rate() const {
        return drift_bin_width_s > 0.0
                   ? static_cast<double>(mz_bins) / drift_bin_width_s
                   : 0.0;
    }

    bool operator==(const FrameLayout&) const = default;
};

/// Dense drift x m/z intensity frame.
class Frame {
public:
    Frame() = default;
    explicit Frame(const FrameLayout& layout);

    const FrameLayout& layout() const { return layout_; }
    std::size_t drift_bins() const { return layout_.drift_bins; }
    std::size_t mz_bins() const { return layout_.mz_bins; }

    double& at(std::size_t drift, std::size_t mz);
    double at(std::size_t drift, std::size_t mz) const;

    /// One TOF record (contiguous row).
    std::span<double> record(std::size_t drift);
    std::span<const double> record(std::size_t drift) const;

    /// Copy the drift profile of one m/z channel into `out`
    /// (out.size() == drift_bins()).
    void drift_profile(std::size_t mz, std::span<double> out) const;

    /// Write a drift profile back into one m/z channel.
    void set_drift_profile(std::size_t mz, std::span<const double> profile);

    /// Total ion current per drift bin (sum over m/z), appended into `out`.
    void total_ion_current(std::span<double> out) const;

    /// Sum of all cells.
    double total() const;

    std::span<double> data() { return data_; }
    std::span<const double> data() const { return data_; }

    void fill(double value);
    /// Element-wise add another frame of identical layout.
    void accumulate(const Frame& other);
    /// Multiply every cell by a scalar.
    void scale(double factor);

private:
    FrameLayout layout_{};
    AlignedVector<double> data_;
};

}  // namespace htims::pipeline
