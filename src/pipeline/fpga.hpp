// fpga.hpp — software model of the FPGA data-capture + deconvolution stage.
//
// The paper implements data capture, spectrum accumulation and the enhanced
// Hadamard deconvolution on the Cray XD1's Xilinx FPGA. This model answers
// the same engineering questions in software, with explicit hardware
// semantics:
//
//  * capture/accumulation: one ADC word per cycle streams into
//    BRAM-modelled accumulation bins with *saturating* integer adds of a
//    configurable word width (overflow pressure is reported, not hidden).
//    Each bin is one int64 word clamped at the width's rail, and a capture
//    keeps one saturation count;
//  * deconvolution: the simplex inverse runs entirely in integer/fixed
//    point. Because N + 1 is a power of two, the 2/(N+1) normalization is
//    an exact shift — the FWHT butterflies are adds/subtracts only, so the
//    whole decoder maps to adder fabric with no multipliers. The model
//    decodes a tile of adjacent m/z channels at a time, as parallel decode
//    engines would: those channels sit side by side in each bin row, so a
//    tile loads without a transpose and transforms through the int64
//    fwht_batch. Results are quantized into a configurable Q-format at the
//    output boundary, in integers (ShiftQuantizer);
//  * cycle accounting: every stage charges cycles under a configurable
//    clock and number of parallel butterfly units / deconvolution engines,
//    yielding the sustained-throughput numbers experiment E3 compares with
//    the instrument's raw data rate;
//  * BRAM budget: the accumulation store and transform scratch must fit the
//    configured on-chip memory; the report says whether they do.
//
// In the streaming engine a frame keeps one store from first sample to
// emission, as on the device: capture_frame() detaches the accumulation
// into the frame's buffer (taking back the bins that buffer's previous
// capture held), and finalize_frame() decodes it into that buffer's frame.
//
// Numerical fidelity of this model against the double-precision software
// decoder is the subject of experiment E8.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/fixed_point.hpp"
#include "pipeline/frame.hpp"
#include "prs/oversampled.hpp"
#include "transform/deconvolver.hpp"

namespace htims::fault {
class FaultInjector;
}

namespace htims::pipeline {

/// Hardware-model parameters.
struct FpgaConfig {
    double clock_hz = 100e6;        ///< fabric clock
    int accumulator_bits = 32;      ///< BRAM accumulation word width
    QFormat output_format{24, 6};   ///< fixed-point output quantization
    std::size_t bram_bytes = 4 * 1024 * 1024;  ///< on-chip memory budget
    int samples_per_cycle = 1;      ///< capture ingest rate
    int butterflies_per_cycle = 2;  ///< parallel FWHT butterfly units
    int deconv_engines = 4;         ///< parallel per-channel decode engines
};

/// Cycle/resource accounting for one processed frame.
struct FpgaCycleReport {
    std::uint64_t capture_cycles = 0;
    std::uint64_t deconv_cycles = 0;
    std::uint64_t cycle_budget = 0;  ///< cycles the frame's real-time window
                                     ///< affords at the configured clock
    std::uint64_t accumulator_saturations = 0;
    std::size_t bram_bytes_used = 0;
    bool fits_bram = true;
    bool budget_overrun = false;       ///< cycle budget ran out mid-decode
    std::size_t channels_decoded = 0;  ///< m/z channels actually decoded;
                                       ///< < mz_bins only on budget_overrun

    std::uint64_t total_cycles() const { return capture_cycles + deconv_cycles; }
    double seconds(double clock_hz) const {
        return clock_hz > 0.0 ? static_cast<double>(total_cycles()) / clock_hz : 0.0;
    }
    /// Budget / spent; > 1 means the frame fits its real-time window.
    double headroom() const {
        return total_cycles() > 0
                   ? static_cast<double>(cycle_budget) /
                         static_cast<double>(total_cycles())
                   : 0.0;
    }
};

/// Accumulation state of one captured frame, detached from the pipeline so
/// a decode worker can finalize it while the next frame streams in.
/// Produced by FpgaPipeline::capture_frame(), consumed by finalize_frame();
/// a spent capture can be passed back to capture_frame() to reuse its bin
/// storage, as the streaming engine does with each of a stream's frame
/// buffers.
struct FpgaCapture {
    /// One accumulation word per frame cell, drift-major like the frame;
    /// each word at most the pipeline's rail, 2^(accumulator_bits-1) - 1.
    AlignedVector<std::int64_t> bins;
    /// Adds that hit the rail, over every word: the overflow status register.
    std::uint64_t saturations = 0;
    std::uint64_t capture_cycles = 0;
    std::uint64_t frame_samples = 0;
    /// Decode-window fault, drawn at capture time so the injector's event
    /// order is always frame order even when several workers finalize
    /// captures concurrently. When set, finalize decodes only the first
    /// `channel_limit` m/z channels (a partial frame).
    bool budget_overrun = false;
    std::size_t channel_limit = 0;
};

/// The FPGA pipeline model: stream in ADC words, get a deconvolved frame.
class FpgaPipeline {
public:
    FpgaPipeline(const prs::OversampledPrs& sequence, const FrameLayout& layout,
                 const FpgaConfig& config);

    const FpgaConfig& config() const { return config_; }
    const FrameLayout& layout() const { return layout_; }

    /// Reset accumulators and cycle counters for a new frame. report() is
    /// untouched: it keeps the last finalized frame's accounting.
    void begin_frame();

    /// Stream a block of digitized samples in frame order (drift-major:
    /// sample index = drift * mz_bins + mz, wrapping across periods so the
    /// same cell accumulates over repeated periods).
    void push_samples(std::span<const std::uint32_t> samples);

    /// Finish the frame: run the fixed-point enhanced deconvolution over
    /// every m/z channel and return the result (converted to doubles in
    /// detector-count units). Equivalent to finalize_frame(capture_frame()).
    Frame end_frame();

    /// Detach the accumulated frame so capture of the next one can start
    /// immediately (no begin_frame() needed): returns the bins and cycle
    /// counters streamed so far and resets the capture state. `reuse`
    /// donates the bin storage of a finalized capture, avoiding a
    /// reallocation per frame.
    FpgaCapture capture_frame(FpgaCapture reuse = {});

    /// Decode a detached capture. Touches only decode scratch and report(),
    /// never the capture state: safe to run on a different thread than
    /// push_samples()/capture_frame(), one finalize at a time. A spent
    /// frame of this layout passed as `reuse` receives the result, every
    /// cell overwritten (channels a budget overrun leaves undecoded are
    /// zeroed), so a stream's frame buffer is decoded into where it lies.
    Frame finalize_frame(const FpgaCapture& capture, Frame reuse = {});

    /// Accounting for the last finalized frame.
    const FpgaCycleReport& report() const { return report_; }

    /// Attach a fault injector. A fired fault::Site::kFpgaOverrun models a
    /// cycle-budget overrun: the decode stops at a plan-determined channel,
    /// leaving the remaining channels zero (a *partial* frame, flagged in
    /// the report and counted as fpga.budget_overruns). The decision is
    /// drawn in capture_frame() — once per frame, in frame order — and
    /// carried in the FpgaCapture to finalize. Pass nullptr to detach.
    void set_faults(fault::FaultInjector* faults) { faults_ = faults; }

    /// Samples/second the model sustains at the configured clock, for
    /// frames of this layout processed `averages` periods per frame.
    /// Averages the deconvolution cost over every frame finalized so far
    /// (frames can differ — a budget overrun decodes fewer channels); with
    /// no finalized frame yet it falls back to a nominal one-frame estimate.
    double sustained_sample_rate(std::size_t averages) const;

private:
    /// Load phase r of the `lanes` m/z channels from mz0 into tile_ and
    /// transform them: afterwards w_p = -tile_[gather[p] * lanes + l] is
    /// 2^(order-1) times chip p's decoded value, exact in int64.
    void transform_phase(const FpgaCapture& capture, std::size_t r, std::size_t mz0,
                         std::size_t lanes);
    void decode_tile_pulsed(const FpgaCapture& capture, std::size_t mz0,
                            std::size_t lanes, Frame& out);
    void decode_tile_stretched(const FpgaCapture& capture, std::size_t mz0,
                               std::size_t lanes, Frame& out);

    prs::OversampledPrs sequence_;
    transform::Deconvolver base_;
    FrameLayout layout_;
    FpgaConfig config_;
    int order_;
    std::int64_t rail_;          ///< accumulation word maximum, from accumulator_bits
    ShiftQuantizer quantizer_;   ///< w (order-1 fraction bits) -> output_format

    fault::FaultInjector* faults_ = nullptr;
    AlignedVector<std::int64_t> bins_;
    std::uint64_t saturations_ = 0;     ///< rail hits this frame
    std::size_t stream_pos_ = 0;
    std::uint64_t frame_samples_ = 0;   ///< samples streamed into this frame
    std::uint64_t capture_cycles_ = 0;  ///< ingest cycles charged this frame
    std::size_t bram_bytes_used_ = 0;   ///< fixed at construction
    bool fits_bram_ = true;             ///< fixed at construction
    FpgaCycleReport report_;
    std::uint64_t total_deconv_cycles_ = 0;  ///< across all finalized frames
    std::uint64_t frames_finalized_ = 0;     ///< frames finalize_frame() ran

    // Decode scratch: one lane-interleaved transform tile, (N + 1) x lanes;
    // stretched mode adds the F phase profiles Z_r of a tile, F x N x
    // lanes, and one lane's integration, F x N plus N differences.
    AlignedVector<std::int64_t> tile_;
    std::vector<std::int64_t> zstack_;
    std::vector<std::int64_t> integral_;
    std::vector<std::int64_t> diff_;
};

}  // namespace htims::pipeline
