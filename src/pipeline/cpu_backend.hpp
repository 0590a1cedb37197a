// cpu_backend.hpp — the software deconvolution component.
//
// The paper's CPU side streams data and collects results, but it is also
// the natural fallback when no FPGA is present; this backend is the
// double-precision software deconvolver, parallelised across m/z channels
// (channels are independent, so the decomposition is embarrassingly
// parallel with uniform per-channel work — static chunking suffices).
// Experiment E3 compares its sustained throughput against the FPGA model,
// and E4 measures its strong scaling.
//
// Two decode paths share the same math:
//  * batched (default) — m/z channels are processed L lanes per tile: a
//    cache-friendly tile transpose (Frame::gather_tile) feeds
//    EnhancedDeconvolver::decode_batch, whose butterflies run one SIMD
//    register wide (common/simd.hpp picks L and the kernel tier at
//    runtime). Channels beyond the last full tile take the scalar path.
//  * scalar — the original one-channel-at-a-time decode, kept as the
//    reference oracle and for A/B benchmarking (deconvolve_scalar).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/thread_pool.hpp"
#include "pipeline/frame.hpp"
#include "prs/oversampled.hpp"
#include "transform/enhanced.hpp"

namespace htims::fault {
class FaultInjector;
}

namespace htims::pipeline {

/// Multithreaded software deconvolution backend.
class CpuBackend {
public:
    /// `threads` == 0 selects hardware concurrency.
    CpuBackend(const prs::OversampledPrs& sequence, const FrameLayout& layout,
               std::size_t threads = 0);

    const FrameLayout& layout() const { return layout_; }
    std::size_t threads() const { return pool_.size(); }

    /// Attach a fault injector for transient decode-task failures
    /// (fault::Site::kCpuFault). A firing fault makes the next deconvolve()
    /// attempt fail transiently; the backend retries with exponential
    /// backoff up to `max_retries` times (counted in cpu.task_retries)
    /// before giving up with htims::Error. Pass nullptr to detach.
    void set_faults(fault::FaultInjector* faults, int max_retries = 4,
                    double backoff_s = 50e-6);

    /// Transient task failures retried since construction.
    std::uint64_t task_retries() const {
        return task_retries_.load(std::memory_order_relaxed);
    }

    /// Deconvolve every m/z channel of `raw`; returns the drift-domain
    /// frame. Uses the batched tile path, htims::batch_lanes() channels per
    /// tile. A spent frame of this layout passed as `reuse` lends its
    /// storage to the result (every cell is overwritten), sparing a
    /// frame-sized allocation and its page faults per decode.
    ///
    /// Thread safety: one deconvolve at a time, but the calling thread may
    /// change between calls (the streaming engine decodes on the consumer
    /// or on pool workers). Retry/backoff state is per-call; the
    /// stats below are synchronized so any thread reads consistent values.
    Frame deconvolve(const Frame& raw, Frame reuse = {});

    /// Reference path: one channel at a time, on the same thread pool.
    Frame deconvolve_scalar(const Frame& raw);

    /// Wall time of the last deconvolve() call (seconds).
    double last_seconds() const {
        std::lock_guard lock(stats_mutex_);
        return last_seconds_;
    }
    /// Total decode wall time across all frames since construction.
    double total_seconds() const {
        std::lock_guard lock(stats_mutex_);
        return total_seconds_;
    }
    /// Frames deconvolved since construction.
    std::size_t frames_decoded() const {
        std::lock_guard lock(stats_mutex_);
        return total_frames_;
    }

    /// Raw-sample throughput averaged over every frame deconvolved since
    /// construction, for frames that each accumulated `averages` periods:
    /// total samples processed / total decode time. (A single slow frame no
    /// longer defines the figure — E3's steady-state number comes from the
    /// whole run.)
    double sustained_sample_rate(std::size_t averages) const;

private:
    Frame run(const Frame& raw, std::size_t lanes, Frame reuse = {});

    transform::EnhancedDeconvolver decon_;
    FrameLayout layout_;
    ThreadPool pool_;
    mutable std::mutex stats_mutex_;  ///< guards the decode-time stats
    double last_seconds_ = 0.0;
    double total_seconds_ = 0.0;
    std::size_t total_frames_ = 0;
    fault::FaultInjector* faults_ = nullptr;
    int max_retries_ = 4;
    double backoff_s_ = 50e-6;
    std::atomic<std::uint64_t> task_retries_{0};
};

}  // namespace htims::pipeline
