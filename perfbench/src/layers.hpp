// layers.hpp — layer-alone passes: each times one public call on the
// workload's own data shape and thread count, off the pipeline.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct LayerRate {
    std::string layer;
    double msamples_s = 0.0;  ///< the layer alone, in the workload's samples/s
};

struct AlonePasses {
    std::vector<Metric> metrics;  ///< the *_alone_* per-layer metrics
    /// Rates of the layers every frame passes through in series on this
    /// workload; end-to-end throughput cannot beat the slowest.
    std::vector<LayerRate> serial;
    std::vector<std::string> notes;
};

AlonePasses run_alone_passes(const Shape& shape, const Inputs& in,
                             const std::string& work_dir);

}  // namespace perfbench
