// common.hpp — shared types of the htims benchmark driver.
//
// The driver measures the library from outside: it calls the public API
// (HybridPipeline, FleetRunner, ReplaySource, FrameStoreWriter,
// AnalysisStage and the layer classes) and times those calls with its own
// steady clock. Nothing here reaches into the library's internals.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "instrument/ion.hpp"
#include "pipeline/frame.hpp"
#include "pipeline/hybrid.hpp"
#include "prs/oversampled.hpp"

namespace perfbench {

namespace pipeline = htims::pipeline;
namespace prs = htims::prs;

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Linear-interpolated quantile (numpy's default), q in [0, 1]; 0 for an
/// empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

enum class WorkloadKind { kLive, kPaced, kReplay };

/// Everything that defines one workload's shape. make_shape() holds the
/// three workloads; README.md records why each was chosen.
struct Shape {
    WorkloadKind kind = WorkloadKind::kLive;
    std::string name;
    int order = 10;
    int oversampling = 2;
    std::size_t mz_bins = 1024;
    std::size_t averages = 4;
    std::size_t templates = 8;      ///< K distinct period templates
    std::size_t frames = 50;        ///< frames per repetition
    std::size_t verify_frames = 16; ///< frames of the digest-checked repetition
    std::size_t min_frames = 100;   ///< timed frames a run needs (tail support)
    pipeline::BackendKind backend = pipeline::BackendKind::kCpu;
    bool analysis = true;
    std::size_t cpu_threads = 1;    ///< CpuBackend threads (live)
    std::size_t decode_workers = 0; ///< FleetRunner decode pool (paced)
    double rate_x = 0.0;            ///< pacing, multiple of line rate (0 = unpaced)
    std::size_t threads = 2;        ///< runnable threads the workload starts
    double period_s = 15e-3;        ///< drift period (fixes the line rate)
    std::size_t library_size = 200;
    std::size_t dim = 4096;
    std::size_t resident_cap_bytes = 0;  ///< replay memory budget
    std::size_t setup_samples = 7;  ///< set-ups timed per run (median reported)
};

Shape make_shape(const std::string& name, bool tiny, std::size_t nproc);

/// Seed-generated inputs, built before anything is timed.
struct Inputs {
    prs::OversampledPrs sequence;
    pipeline::FrameLayout layout;
    std::vector<std::vector<std::uint32_t>> templates;  ///< period samples
    std::vector<std::size_t> assignment;  ///< template index of each frame
    htims::instrument::SampleMixture mixture;  ///< library species
    std::string archive_path;  ///< replay: the input archive
    std::string output_path;   ///< replay: the per-repetition output archive
};

Inputs make_inputs(const Shape& shape, std::uint64_t seed,
                   const std::string& work_dir);

/// One named figure with its unit.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

}  // namespace perfbench
