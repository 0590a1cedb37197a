#include "pipeline/frame.hpp"

#include <algorithm>
#include <limits>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace htims::pipeline {

Frame::Frame(const FrameLayout& layout) : layout_(layout) {
    if (layout.drift_bins == 0 || layout.mz_bins == 0)
        throw ConfigError("frame layout must have nonzero dimensions");
    HTIMS_CHECK(layout.mz_bins <= std::numeric_limits<std::size_t>::max() / layout.drift_bins,
                "frame cell count overflows size_t");
    data_.assign(layout.cells(), 0.0);
    HTIMS_CHECK(data_.size() == layout.cells(), "frame storage matches layout");
}

// at() is the per-cell accessor on the FPGA decode hot path: its bounds
// check is a debug/sanitizer-tier contract (HTIMS_DCHECK), not a throwing
// precondition — out-of-range indices here are library bugs, not caller
// configuration errors, and the release build must not pay for the check.
double& Frame::at(std::size_t drift, std::size_t mz) {
    HTIMS_DCHECK(drift < layout_.drift_bins && mz < layout_.mz_bins,
                 "frame cell index out of range");
    return data_[drift * layout_.mz_bins + mz];
}

double Frame::at(std::size_t drift, std::size_t mz) const {
    HTIMS_DCHECK(drift < layout_.drift_bins && mz < layout_.mz_bins,
                 "frame cell index out of range");
    return data_[drift * layout_.mz_bins + mz];
}

std::span<double> Frame::record(std::size_t drift) {
    HTIMS_EXPECTS(drift < layout_.drift_bins);
    return std::span(data_).subspan(drift * layout_.mz_bins, layout_.mz_bins);
}

std::span<const double> Frame::record(std::size_t drift) const {
    HTIMS_EXPECTS(drift < layout_.drift_bins);
    return std::span(data_).subspan(drift * layout_.mz_bins, layout_.mz_bins);
}

void Frame::drift_profile(std::size_t mz, std::span<double> out) const {
    HTIMS_EXPECTS(mz < layout_.mz_bins);
    HTIMS_EXPECTS(out.size() == layout_.drift_bins);
    for (std::size_t d = 0; d < layout_.drift_bins; ++d)
        out[d] = data_[d * layout_.mz_bins + mz];
}

void Frame::set_drift_profile(std::size_t mz, std::span<const double> profile) {
    HTIMS_EXPECTS(mz < layout_.mz_bins);
    HTIMS_EXPECTS(profile.size() == layout_.drift_bins);
    for (std::size_t d = 0; d < layout_.drift_bins; ++d)
        data_[d * layout_.mz_bins + mz] = profile[d];
}

void Frame::total_ion_current(std::span<double> out) const {
    HTIMS_EXPECTS(out.size() == layout_.drift_bins);
    for (std::size_t d = 0; d < layout_.drift_bins; ++d) {
        double s = 0.0;
        const double* row = &data_[d * layout_.mz_bins];
        for (std::size_t m = 0; m < layout_.mz_bins; ++m) s += row[m];
        out[d] = s;
    }
}

double Frame::total() const {
    double s = 0.0;
    for (double v : data_) s += v;
    return s;
}

void Frame::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

void Frame::accumulate(const Frame& other) {
    HTIMS_EXPECTS(other.layout_ == layout_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Frame::scale(double factor) {
    for (double& v : data_) v *= factor;
}

}  // namespace htims::pipeline
