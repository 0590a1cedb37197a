// workloads.hpp — one repetition of a workload, and its output checks.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/stage.hpp"
#include "common.hpp"
#include "pipeline/fpga.hpp"
#include "spans.hpp"

namespace perfbench {

/// What one repetition measured. Per-frame vectors are indexed by frame.
struct RepStats {
    bool verify = false;  ///< the digest-checked repetition (not timed)
    std::size_t frames = 0;
    double setup_s = 0.0;
    double wall_s = 0.0;  ///< first source call -> last result complete
    double samples = 0.0;
    std::vector<double> latency_ms;  ///< due -> result complete
    std::vector<std::uint8_t> emit_fault;  ///< missing, repeated or out of order
    std::vector<std::uint64_t> digests;    ///< verify rep: emitted frames;
                                           ///< replay: re-read archive
    bool archive_intact = true;            ///< replay: output archive re-read
    std::vector<htims::analysis::FrameVerdict> verdicts;
    std::uint64_t verdict_digest = 0;
    std::uint64_t clusters = 0;
    pipeline::FpgaCycleReport fpga{};

    // Public report counters.
    double producer_stall_ms = 0.0;
    double consumer_idle_ms = 0.0;
    double decode_wait_ms = 0.0;
    std::uint64_t records_dropped = 0;
    std::uint64_t frames_degraded = 0;
    std::uint64_t cpu_task_retries = 0;
    std::uint64_t frames_skipped = 0;

    // The benchmark's own wrappers.
    std::uint64_t source_records = 0;
    std::uint64_t source_calls = 0;
    double source_busy_ms = 0.0;
    std::vector<double> generator_lag_ms;  ///< paced: per source call
    std::vector<double> close_to_emit_ms;  ///< last record served -> sink entry
    std::vector<double> analyze_ms;
    std::vector<double> append_ms;
    double finalize_ms = 0.0;
    double replay_open_ms = 0.0;
    double library_build_ms = 0.0;
};

/// The off-clock reference: what every frame must decode to and what the
/// analysis stage must conclude, computed without the pipeline.
struct Oracle {
    std::vector<std::uint64_t> template_digest;  ///< frame_digest per template
    std::vector<pipeline::FpgaCycleReport> template_fpga;
    std::vector<htims::analysis::FrameVerdict> verdicts;  ///< per frame
    std::uint64_t verdict_digest = 0;         ///< over shape.frames frames
    std::uint64_t verify_verdict_digest = 0;  ///< over shape.verify_frames
};

Oracle make_oracle(const Shape& shape, const Inputs& in);

/// Frames of `rep` that fail a check against the oracle; fills `notes`
/// with one line per kind of failure.
std::size_t check_rep(const Shape& shape, const Inputs& in, const Oracle& oracle,
                      const RepStats& rep, std::vector<std::string>& notes);

class WorkloadRunner {
public:
    /// `corrupt` damages a copy of one output in the verify repetition so
    /// the self-test can show that the output check catches it.
    WorkloadRunner(const Shape& shape, const Inputs& in, bool corrupt);

    /// One set-up, timed and torn down; returns seconds.
    double setup_only();

    RepStats run_rep(bool verify, SpanLog* spans);

private:
    const Shape& shape_;
    const Inputs& in_;
    bool corrupt_;
};

}  // namespace perfbench
