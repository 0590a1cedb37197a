#include "pipeline/cpu_backend.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "telemetry/telemetry.hpp"

namespace htims::pipeline {

CpuBackend::CpuBackend(const prs::OversampledPrs& sequence, const FrameLayout& layout,
                       std::size_t threads)
    : decon_(sequence), layout_(layout), pool_(threads) {
    if (layout.drift_bins != sequence.length())
        throw ConfigError("frame drift bins must equal the sequence fine-grid length");
}

void CpuBackend::set_faults(fault::FaultInjector* faults, int max_retries,
                            double backoff_s) {
    HTIMS_EXPECTS(max_retries >= 0);
    HTIMS_EXPECTS(backoff_s >= 0.0);
    faults_ = faults;
    max_retries_ = max_retries;
    backoff_s_ = backoff_s;
}

void CpuBackend::deconvolve(const Frame& raw, Frame& out) {
    if (faults_ == nullptr) {
        run(raw, out, /*scalar=*/false);
        return;
    }
    // A fired kCpuFault models a transient task failure (lost worker, ECC
    // retry, preempted node): the attempt is abandoned and retried after an
    // exponential backoff. The injector's per-site event counter advances
    // per attempt, so a persistent fault plan (probability 1.0) exhausts the
    // retry budget deterministically.
    static auto& c_retries =
        telemetry::Registry::global().counter("cpu.task_retries");
    int attempt = 0;
    while (faults_->should_fire(fault::Site::kCpuFault)) {
        if (attempt >= max_retries_)
            throw Error("cpu backend: persistent task failure after " +
                        std::to_string(attempt) + " retries");
        ++attempt;
        task_retries_.fetch_add(1, std::memory_order_relaxed);
        c_retries.increment();
        const double backoff = backoff_s_ * static_cast<double>(1 << (attempt - 1));
        if (backoff > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    run(raw, out, /*scalar=*/false);
}

Frame CpuBackend::deconvolve(const Frame& raw) {
    Frame out(layout_);
    deconvolve(raw, out);
    return out;
}

Frame CpuBackend::deconvolve_scalar(const Frame& raw) {
    Frame out(layout_);
    run(raw, out, /*scalar=*/true);
    return out;
}

void CpuBackend::run(const Frame& raw, Frame& out, bool scalar) {
    HTIMS_EXPECTS(raw.layout() == layout_ && out.layout() == layout_);
    auto& tel = telemetry::Registry::global();
    static const auto kStageDecode = tel.intern("cpu.deconvolve");
    static auto& c_frames = tel.counter("cpu.frames");
    static auto& c_channels = tel.counter("cpu.channels");
    static auto& c_tiles = tel.counter("cpu.tiles");
    static auto& g_tier = tel.gauge("cpu.simd_tier");
    static auto& g_lanes = tel.gauge("cpu.batch_lanes");
    static auto& h_decode = tel.histogram("cpu.decode_ns");
    static auto& h_tile = tel.histogram("cpu.tile_ns");
    auto span = tel.span(kStageDecode);

    WallTimer timer;
    const std::size_t mz_bins = layout_.mz_bins;
    const std::size_t lanes = scalar ? 1 : htims::batch_lanes();
    const std::size_t tiles = scalar ? 0 : (mz_bins + lanes - 1) / lanes;
    const bool trace_tiles = telemetry::kCompiledIn && tel.enabled();
    if (scalar) {
        pool_.parallel_for(mz_bins, [&](std::size_t lo, std::size_t hi) {
            auto ws = decon_.make_workspace();
            AlignedVector<double> in(layout_.drift_bins);
            AlignedVector<double> result(layout_.drift_bins);
            for (std::size_t m = lo; m < hi; ++m) {
                raw.drift_profile(m, in);
                decon_.decode(in, result, ws);
                out.set_drift_profile(m, result);
            }
        });
    } else {
        // Tile-granular: one grain = one L-lane decode, already far coarser
        // than a dispatch, so grain 1 keeps small frames parallel too. Each
        // tile decodes in the frame's rows; the last may be narrower.
        pool_.parallel_for(
            tiles,
            [&](std::size_t lo, std::size_t hi) {
                auto ws = decon_.make_batch_workspace(lanes);
                for (std::size_t tile = lo; tile < hi; ++tile) {
                    const std::uint64_t t0 = trace_tiles ? telemetry::now_ns() : 0;
                    const std::size_t mz0 = tile * lanes;
                    decon_.decode_batch(raw.data().subspan(mz0), out.data().subspan(mz0),
                                        mz_bins, std::min(lanes, mz_bins - mz0), ws);
                    if (trace_tiles) h_tile.observe(telemetry::now_ns() - t0);
                }
            },
            /*grain=*/1);
    }
    const double elapsed = timer.seconds();
    {
        std::lock_guard lock(stats_mutex_);
        last_seconds_ = elapsed;
        total_seconds_ += elapsed;
        ++total_frames_;
    }
    c_frames.increment();
    c_channels.add(static_cast<std::int64_t>(mz_bins));
    c_tiles.add(static_cast<std::int64_t>(tiles));
    g_tier.set(static_cast<std::int64_t>(simd_tier()));
    g_lanes.set(static_cast<std::int64_t>(lanes));
    h_decode.observe(static_cast<std::uint64_t>(elapsed * 1e9));
}

double CpuBackend::sustained_sample_rate(std::size_t averages) const {
    double seconds = 0.0;
    std::size_t frames = 0;
    {
        std::lock_guard lock(stats_mutex_);
        seconds = total_seconds_;
        frames = total_frames_;
    }
    if (seconds <= 0.0 || frames == 0) return 0.0;
    const double samples = static_cast<double>(averages) *
                           static_cast<double>(layout_.cells()) *
                           static_cast<double>(frames);
    return samples / seconds;
}

}  // namespace htims::pipeline
