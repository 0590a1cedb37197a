#include "pipeline/fpga.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "fault/fault.hpp"
#include "telemetry/telemetry.hpp"
#include "transform/fwht.hpp"

namespace htims::pipeline {

namespace {

/// m/z channels decoded per tile: one cache line of int64 words per bin row.
constexpr std::size_t kTileLanes = 8;

std::int64_t accumulator_rail(int bits) {
    if (bits < 2 || bits > 63) throw ConfigError("accumulator width must be in [2,63]");
    return (std::int64_t{1} << (bits - 1)) - 1;
}

}  // namespace

FpgaPipeline::FpgaPipeline(const prs::OversampledPrs& sequence, const FrameLayout& layout,
                           const FpgaConfig& config)
    : sequence_(sequence),
      base_(sequence.base()),
      layout_(layout),
      config_(config),
      order_(sequence.base().order()),
      rail_(accumulator_rail(config.accumulator_bits)),
      quantizer_(order_ - 1, config.output_format) {
    if (layout.drift_bins != sequence.length())
        throw ConfigError("frame drift bins must equal the sequence fine-grid length");
    if (config.clock_hz <= 0.0) throw ConfigError("FPGA clock must be positive");
    if (config.samples_per_cycle < 1 || config.butterflies_per_cycle < 1 ||
        config.deconv_engines < 1)
        throw ConfigError("FPGA parallelism parameters must be >= 1");

    bins_.assign(layout.cells(), 0);
    const std::size_t n = base_.length();
    const auto f = static_cast<std::size_t>(sequence_.factor());
    tile_.resize((n + 1) * kTileLanes);
    if (sequence_.mode() == prs::GateMode::kStretched && f > 1) {
        zstack_.resize(f * n * kTileLanes);
        integral_.resize(f * n);
        diff_.resize(n);
    }

    bram_bytes_used_ =
        layout.cells() * static_cast<std::size_t>(config.accumulator_bits) / 8 +
        static_cast<std::size_t>(config.deconv_engines) * (n + 1) * sizeof(std::int64_t);
    fits_bram_ = bram_bytes_used_ <= config.bram_bytes;
    report_.bram_bytes_used = bram_bytes_used_;
    report_.fits_bram = fits_bram_;

    HTIMS_CHECK(bins_.size() == layout.cells(), "one accumulator bin per frame cell");
    HTIMS_CHECK(n > 0 && tile_.size() == (n + 1) * kTileLanes,
                "decode tile sized to sequence");
}

void FpgaPipeline::begin_frame() {
    std::ranges::fill(bins_, 0);
    saturations_ = 0;
    stream_pos_ = 0;
    frame_samples_ = 0;
    capture_cycles_ = 0;
}

void FpgaPipeline::push_samples(std::span<const std::uint32_t> samples) {
    const std::size_t cells = bins_.size();
    HTIMS_DCHECK(stream_pos_ < cells, "stream cursor within the frame");
    // One clamp-add run per stretch of cells up to the period wrap.
    for (std::size_t done = 0; done < samples.size();) {
        const std::size_t run = std::min(samples.size() - done, cells - stream_pos_);
        saturations_ += saturating_accumulate(bins_.data() + stream_pos_,
                                              samples.data() + done, run, rail_);
        done += run;
        stream_pos_ += run;
        if (stream_pos_ == cells) stream_pos_ = 0;  // next period, same map
    }
    frame_samples_ += samples.size();
    capture_cycles_ += (samples.size() +
                        static_cast<std::size_t>(config_.samples_per_cycle) - 1) /
                       static_cast<std::size_t>(config_.samples_per_cycle);
}

FpgaCapture FpgaPipeline::capture_frame(FpgaCapture reuse) {
    FpgaCapture capture;
    capture.bins = std::move(bins_);
    capture.saturations = saturations_;
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
        std::ranges::fill(bins_, 0);
    } else {
        bins_.assign(layout_.cells(), 0);
    }
    saturations_ = 0;
    stream_pos_ = 0;
    frame_samples_ = 0;
    capture_cycles_ = 0;
    return capture;
}

void FpgaPipeline::transform_phase(const FpgaCapture& capture, std::size_t r,
                                   std::size_t mz0, std::size_t lanes) {
    const std::size_t n = base_.length();
    const auto f = static_cast<std::size_t>(sequence_.factor());
    const std::size_t m = layout_.mz_bins;
    // Hoisted bound for every bin row the gather below reads.
    HTIMS_DCHECK(r < f && lanes <= kTileLanes && mz0 + lanes <= m &&
                     (f * (n - 1) + r) * m + mz0 + lanes <= capture.bins.size(),
                 "tile gather reads inside the bin array");
    const auto scatter = base_.scatter_index();
    std::int64_t* tile = tile_.data();
    const std::int64_t* row = capture.bins.data() + r * m + mz0;
    std::fill_n(tile, lanes, std::int64_t{0});  // node 0 is the zero pad
    for (std::size_t q = 0; q < n; ++q, row += f * m)
        std::copy_n(row, lanes, tile + std::size_t{scatter[q]} * lanes);
    transform::fwht_batch(std::span(tile, (n + 1) * lanes), lanes);
}

void FpgaPipeline::decode_tile_pulsed(const FpgaCapture& capture, std::size_t mz0,
                                      std::size_t lanes, Frame& out) {
    const std::size_t n = base_.length();
    const auto f = static_cast<std::size_t>(sequence_.factor());
    const auto gather = base_.gather_index();
    for (std::size_t r = 0; r < f; ++r) {
        transform_phase(capture, r, mz0, lanes);
        for (std::size_t p = 0; p < n; ++p) {
            const std::int64_t* w = tile_.data() + std::size_t{gather[p]} * lanes;
            double* row = out.record(f * p + r).data() + mz0;
            for (std::size_t l = 0; l < lanes; ++l) row[l] = quantizer_.value(-w[l]);
        }
    }
}

void FpgaPipeline::decode_tile_stretched(const FpgaCapture& capture, std::size_t mz0,
                                         std::size_t lanes, Frame& out) {
    const std::size_t n = base_.length();
    const auto f = static_cast<std::size_t>(sequence_.factor());
    HTIMS_DCHECK(zstack_.size() >= f * n * lanes && integral_.size() == f * n &&
                     diff_.size() == n,
                 "stretched scratch sized to F chip profiles per lane");

    // Z_r in w-units (exact integers), lane-interleaved: zstack_[(r n + q) L + l].
    const auto gather = base_.gather_index();
    for (std::size_t r = 0; r < f; ++r) {
        transform_phase(capture, r, mz0, lanes);
        std::int64_t* zr = zstack_.data() + r * n * lanes;
        for (std::size_t q = 0; q < n; ++q) {
            const std::int64_t* w = tile_.data() + std::size_t{gather[q]} * lanes;
            for (std::size_t l = 0; l < lanes; ++l) zr[q * lanes + l] = -w[l];
        }
    }

    for (std::size_t l = 0; l < lanes; ++l) {
        const auto z = [&](std::size_t r, std::size_t q) {
            return zstack_[(r * n + q) * lanes + l];
        };
        // Quiet-chip anchor of W = Z_{F-1}.
        std::size_t q0 = 0;
        std::int64_t sum_w = z(f - 1, 0);
        for (std::size_t q = 1; q < n; ++q) {
            if (z(f - 1, q) < z(f - 1, q0)) q0 = q;
            sum_w += z(f - 1, q);
        }

        // Integrate the circular difference equations per phase.
        std::int64_t sum_p = 0;
        for (std::size_t r = 0; r < f; ++r) {
            for (std::size_t q = 0; q < n; ++q)
                diff_[q] = r == 0 ? z(0, q) - z(f - 1, q == 0 ? n - 1 : q - 1)
                                  : z(r, q) - z(r - 1, q);
            std::int64_t* p_r = integral_.data() + r * n;
            p_r[q0] = 0;
            for (std::size_t s = 1, prev = q0; s < n; ++s) {
                const std::size_t q = prev + 1 == n ? 0 : prev + 1;
                p_r[q] = p_r[prev] + diff_[q];
                prev = q;
            }
            for (std::size_t p = 0; p < n; ++p) sum_p += p_r[p];
        }
        // Distribute the constant so sum_r X_r matches W in the mean.
        const double alpha =
            static_cast<double>(sum_w - sum_p) / static_cast<double>(n * f);
        for (std::size_t p = 0; p < n; ++p)
            for (std::size_t r = 0; r < f; ++r) {
                const double w_val = static_cast<double>(integral_[r * n + p]) + alpha;
                out.at(f * p + r, mz0 + l) =
                    quantizer_.value(static_cast<std::int64_t>(std::llround(w_val)));
            }
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

    HTIMS_CHECK(capture.bins.size() == layout_.cells() && channels <= layout_.mz_bins,
                "capture matches the pipeline's layout");
    for (std::size_t mz0 = 0; mz0 < channels; mz0 += kTileLanes) {
        const std::size_t lanes = std::min(kTileLanes, channels - mz0);
        if (stretched)
            decode_tile_stretched(capture, mz0, lanes, out);
        else
            decode_tile_pulsed(capture, mz0, lanes, out);
    }
    if (channels < layout_.mz_bins)
        for (std::size_t d = 0; d < layout_.drift_bins; ++d)
            std::ranges::fill(out.record(d).subspan(channels), 0.0);

    report.accumulator_saturations = capture.saturations;

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
