#include "pipeline/fpga.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "fault/fault.hpp"
#include "telemetry/telemetry.hpp"
#include "transform/fwht.hpp"

namespace htims::pipeline {

FpgaPipeline::FpgaPipeline(const prs::OversampledPrs& sequence, const FrameLayout& layout,
                           const FpgaConfig& config)
    : sequence_(sequence),
      base_(sequence.base()),
      layout_(layout),
      config_(config),
      order_(sequence.base().order()) {
    if (layout.drift_bins != sequence.length())
        throw ConfigError("frame drift bins must equal the sequence fine-grid length");
    if (config.clock_hz <= 0.0) throw ConfigError("FPGA clock must be positive");
    if (config.samples_per_cycle < 1 || config.butterflies_per_cycle < 1 ||
        config.deconv_engines < 1)
        throw ConfigError("FPGA parallelism parameters must be >= 1");
    validate(config.output_format);

    bins_.assign(layout.cells(), SaturatingAccumulator(config.accumulator_bits));
    const std::size_t n = base_.length();
    chan_.resize(n);
    pad_.resize(n + 1);
    w_.resize(n);
    if (sequence_.mode() == prs::GateMode::kStretched && sequence_.factor() > 1)
        zstack_.resize(sequence_.length());

    bram_bytes_used_ =
        layout.cells() * static_cast<std::size_t>(config.accumulator_bits) / 8 +
        static_cast<std::size_t>(config.deconv_engines) * (n + 1) * sizeof(std::int64_t);
    fits_bram_ = bram_bytes_used_ <= config.bram_bytes;
    report_.bram_bytes_used = bram_bytes_used_;
    report_.fits_bram = fits_bram_;

    HTIMS_CHECK(bins_.size() == layout.cells(), "one accumulator bin per frame cell");
    HTIMS_CHECK(n > 0 && pad_.size() == n + 1, "deconvolution scratch sized to sequence");
}

void FpgaPipeline::begin_frame() {
    for (auto& b : bins_) b.reset();
    stream_pos_ = 0;
    frame_samples_ = 0;
    capture_cycles_ = 0;
}

void FpgaPipeline::push_samples(std::span<const std::uint32_t> samples) {
    const std::size_t cells = bins_.size();
    HTIMS_DCHECK(stream_pos_ < cells, "stream cursor within the frame");
    for (std::uint32_t s : samples) {
        bins_[stream_pos_].add(static_cast<std::int64_t>(s));
        if (++stream_pos_ == cells) stream_pos_ = 0;  // next period, same map
    }
    frame_samples_ += samples.size();
    capture_cycles_ += (samples.size() +
                        static_cast<std::size_t>(config_.samples_per_cycle) - 1) /
                       static_cast<std::size_t>(config_.samples_per_cycle);
}

FpgaCapture FpgaPipeline::capture_frame(FpgaCapture reuse) {
    FpgaCapture capture;
    capture.bins = std::move(bins_);
    capture.capture_cycles = capture_cycles_;
    capture.frame_samples = frame_samples_;
    // A fired kFpgaOverrun models the decode window closing early. The
    // decision is drawn here — on the capture thread, once per frame, in
    // frame order — so the injector's per-site event sequence is identical
    // whether one or many workers run finalize, and identical to the
    // synchronous path (end_frame captures then finalizes).
    if (faults_ != nullptr) {
        const auto overrun = faults_->decide(fault::Site::kFpgaOverrun);
        if (overrun.fire) {
            capture.budget_overrun = true;
            capture.channel_limit = static_cast<std::size_t>(faults_->draw_below(
                fault::Site::kFpgaOverrun, overrun.event, layout_.mz_bins));
            auto& tel = telemetry::Registry::global();
            static auto& c_overruns = tel.counter("fpga.budget_overruns");
            c_overruns.increment();
        }
    }
    if (reuse.bins.size() == layout_.cells()) {
        bins_ = std::move(reuse.bins);
        for (auto& b : bins_) b.reset();
    } else {
        bins_.assign(layout_.cells(), SaturatingAccumulator(config_.accumulator_bits));
    }
    stream_pos_ = 0;
    frame_samples_ = 0;
    capture_cycles_ = 0;
    return capture;
}

void FpgaPipeline::integer_decode(const std::vector<std::int64_t>& y,
                                  std::vector<std::int64_t>& w_out) {
    const std::size_t n = base_.length();
    std::fill(pad_.begin(), pad_.end(), 0LL);
    const auto scatter = base_.scatter_index();
    const auto gather = base_.gather_index();
    for (std::size_t t = 0; t < n; ++t) pad_[scatter[t]] = y[t];
    transform::fwht_i64(pad_);
    for (std::size_t k = 0; k < n; ++k) w_out[k] = -pad_[gather[k]];
}

namespace {

/// Convert w = 2^(order-1) * x (exact integer) into the output Q-format,
/// with round-to-nearest and saturation — the output-register boundary.
double quantize_out(std::int64_t w, int order, const QFormat& fmt) {
    const int shift = order - 1;
    const double value = static_cast<double>(w) / static_cast<double>(1LL << shift);
    return Fixed(value, fmt).to_double();
}

}  // namespace

void FpgaPipeline::decode_channel_pulsed(const std::vector<SaturatingAccumulator>& bins,
                                         std::size_t mz, Frame& out) {
    const std::size_t n = base_.length();
    const auto f = static_cast<std::size_t>(sequence_.factor());
    const std::size_t m = layout_.mz_bins;
    // Hoisted bound for every bin index the phase loops touch below.
    HTIMS_DCHECK(f >= 1 && mz < m && (f * (n - 1) + (f - 1)) * m + mz < bins.size(),
                 "channel decode reads inside the bin array");
    for (std::size_t r = 0; r < f; ++r) {
        for (std::size_t q = 0; q < n; ++q)
            chan_[q] = bins[(f * q + r) * m + mz].value();
        integer_decode(chan_, w_);
        for (std::size_t p = 0; p < n; ++p)
            out.at(f * p + r, mz) = quantize_out(w_[p], order_, config_.output_format);
    }
}

void FpgaPipeline::decode_channel_stretched(
    const std::vector<SaturatingAccumulator>& bins, std::size_t mz, Frame& out) {
    const std::size_t n = base_.length();
    const auto f = static_cast<std::size_t>(sequence_.factor());
    const std::size_t m = layout_.mz_bins;
    HTIMS_DCHECK(f >= 1 && mz < m && (f * (n - 1) + (f - 1)) * m + mz < bins.size(),
                 "channel decode reads inside the bin array");
    HTIMS_DCHECK(zstack_.size() == f * n, "phase stack sized to F chip profiles");

    // Z_r in w-units (exact integers).
    for (std::size_t r = 0; r < f; ++r) {
        for (std::size_t q = 0; q < n; ++q)
            chan_[q] = bins[(f * q + r) * m + mz].value();
        integer_decode(chan_, w_);
        std::copy(w_.begin(), w_.end(), zstack_.begin() + static_cast<std::ptrdiff_t>(r * n));
    }
    const std::int64_t* w_total = zstack_.data() + (f - 1) * n;  // Z_{F-1}

    // Quiet-chip anchor.
    std::size_t q0 = 0;
    for (std::size_t q = 1; q < n; ++q)
        if (w_total[q] < w_total[q0]) q0 = q;

    // Integrate the circular difference equations per phase.
    std::vector<std::int64_t> d(n), p_r(n);
    std::int64_t sum_w = 0;
    for (std::size_t q = 0; q < n; ++q) sum_w += w_total[q];
    std::int64_t sum_p = 0;
    for (std::size_t r = 0; r < f; ++r) {
        const std::int64_t* zr = zstack_.data() + r * n;
        if (r == 0) {
            for (std::size_t q = 0; q < n; ++q) d[q] = zr[q] - w_total[(q + n - 1) % n];
        } else {
            const std::int64_t* zp = zstack_.data() + (r - 1) * n;
            for (std::size_t q = 0; q < n; ++q) d[q] = zr[q] - zp[q];
        }
        p_r[q0] = 0;
        for (std::size_t s = 1; s < n; ++s) {
            const std::size_t q = (q0 + s) % n;
            p_r[q] = p_r[(q0 + s - 1) % n] + d[q];
        }
        for (std::size_t p = 0; p < n; ++p) {
            // Stash the unanchored integral; constant added after the loop.
            out.at(f * p + r, mz) = static_cast<double>(p_r[p]);
            sum_p += p_r[p];
        }
    }
    // Distribute the constant so sum_r X_r matches W in the mean.
    const double alpha =
        static_cast<double>(sum_w - sum_p) / static_cast<double>(n * f);
    for (std::size_t p = 0; p < n; ++p)
        for (std::size_t r = 0; r < f; ++r) {
            const double w_val = out.at(f * p + r, mz) + alpha;
            out.at(f * p + r, mz) = quantize_out(
                static_cast<std::int64_t>(std::llround(w_val)), order_,
                config_.output_format);
        }
}

Frame FpgaPipeline::end_frame() { return finalize_frame(capture_frame()); }

Frame FpgaPipeline::finalize_frame(const FpgaCapture& capture, Frame reuse) {
    auto& tel = telemetry::Registry::global();
    static const auto kStageFrame = tel.intern("fpga.end_frame");
    auto span = tel.span(kStageFrame);

    Frame out = reuse.layout() == layout_ ? std::move(reuse) : Frame(layout_);
    const std::size_t n = base_.length();
    const auto f = static_cast<std::size_t>(sequence_.factor());
    const bool stretched = sequence_.mode() == prs::GateMode::kStretched && f > 1;

    FpgaCycleReport report{};
    report.bram_bytes_used = bram_bytes_used_;
    report.fits_bram = fits_bram_;
    report.capture_cycles = capture.capture_cycles;

    // A capture-time kFpgaOverrun means the decode window closed early: the
    // engine emits the frame with only the first `channels` m/z channels
    // decoded (the rest zeroed) rather than stalling capture of the next
    // frame. Cycle accounting below charges only the decoded channels.
    std::size_t channels = layout_.mz_bins;
    if (capture.budget_overrun) {
        channels = capture.channel_limit;
        report.budget_overrun = true;
    }
    report.channels_decoded = channels;

    for (std::size_t mz = 0; mz < channels; ++mz) {
        if (stretched)
            decode_channel_stretched(capture.bins, mz, out);
        else
            decode_channel_pulsed(capture.bins, mz, out);
    }
    if (channels < layout_.mz_bins)
        for (std::size_t d = 0; d < layout_.drift_bins; ++d)
            std::ranges::fill(out.record(d).subspan(channels), 0.0);

    // Saturation census.
    for (const auto& b : capture.bins) report.accumulator_saturations += b.saturations();

    // Cycle model: per channel, per phase: scatter N + gather N + butterflies;
    // stretched adds ~3 F N integer adds for the phase recombination.
    const std::uint64_t butterflies =
        static_cast<std::uint64_t>((n + 1) / 2) * static_cast<std::uint64_t>(order_);
    std::uint64_t per_phase = 2 * n + butterflies /
                                          static_cast<std::uint64_t>(
                                              config_.butterflies_per_cycle);
    std::uint64_t per_channel = per_phase * f;
    if (stretched) per_channel += 3 * f * n;
    HTIMS_DCHECK(per_channel > 0, "cycle model must charge every channel");
    report.deconv_cycles = per_channel * channels /
                           static_cast<std::uint64_t>(config_.deconv_engines);

    // Real-time cycle budget: the streamed periods occupy wall time
    // periods * period_s on the instrument; the fabric clock affords that
    // many cycles to capture and decode the frame.
    const double periods = layout_.cells() > 0
                               ? static_cast<double>(capture.frame_samples) /
                                     static_cast<double>(layout_.cells())
                               : 0.0;
    HTIMS_DCHECK(periods >= 0.0, "streamed period count cannot be negative");
    report.cycle_budget = static_cast<std::uint64_t>(
        periods * layout_.period_s() * config_.clock_hz);
    report_ = report;
    // Whole-run accounting for sustained_sample_rate(): frames differ (a
    // budget overrun decodes fewer channels), so the sustained figure must
    // average deconv cycles over every finalized frame, not quote the last.
    total_deconv_cycles_ += report.deconv_cycles;
    ++frames_finalized_;

    static auto& c_frames = tel.counter("fpga.frames");
    static auto& c_capture = tel.counter("fpga.capture_cycles");
    static auto& c_deconv = tel.counter("fpga.deconv_cycles");
    static auto& c_budget = tel.counter("fpga.cycle_budget");
    static auto& c_sat = tel.counter("fpga.accumulator_saturations");
    static auto& g_bram = tel.gauge("fpga.bram_bytes_used");
    c_frames.increment();
    c_capture.add(static_cast<std::int64_t>(report_.capture_cycles));
    c_deconv.add(static_cast<std::int64_t>(report_.deconv_cycles));
    c_budget.add(static_cast<std::int64_t>(report_.cycle_budget));
    c_sat.add(static_cast<std::int64_t>(report_.accumulator_saturations));
    g_bram.set(static_cast<std::int64_t>(report_.bram_bytes_used));
    return out;
}

double FpgaPipeline::sustained_sample_rate(std::size_t averages) const {
    const std::uint64_t per_frame =
        static_cast<std::uint64_t>(averages) * layout_.cells();
    const std::uint64_t capture_per_frame =
        (per_frame + static_cast<std::uint64_t>(config_.samples_per_cycle) - 1) /
        static_cast<std::uint64_t>(config_.samples_per_cycle);
    // The capture term covers `averages` periods of EVERY frame, so the
    // deconv term must cover the same frames. Quoting only the last frame's
    // report_.deconv_cycles overstated the sustained rate whenever an
    // earlier frame decoded more channels (e.g. the run ended on a
    // budget-overrun partial frame). With homogeneous frames the per-frame
    // terms cancel and the figure is unchanged.
    const std::uint64_t frames = std::max<std::uint64_t>(frames_finalized_, 1);
    const std::uint64_t deconv =
        frames_finalized_ > 0 ? total_deconv_cycles_ : report_.deconv_cycles;
    const std::uint64_t samples = per_frame * frames;
    const std::uint64_t total = capture_per_frame * frames + deconv;
    if (total == 0) return 0.0;
    return static_cast<double>(samples) * config_.clock_hz / static_cast<double>(total);
}

}  // namespace htims::pipeline
