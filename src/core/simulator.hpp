// simulator.hpp — the top-level facade: instrument + gate program +
// processing backend in one object.
//
// This is the public entry point a downstream user starts from (see
// examples/quickstart.cpp): configure the instrument once, pick an
// acquisition program and a processing backend, call run(), and get the
// deconvolved drift/m-z frame with ground truth and timing attached.
#pragma once

#include <optional>

#include "core/metrics.hpp"
#include "fault/fault.hpp"
#include "instrument/detector.hpp"
#include "instrument/ion_trap.hpp"
#include "instrument/mobility.hpp"
#include "instrument/tof.hpp"
#include "pipeline/acquisition.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/hybrid.hpp"
#include "telemetry/registry.hpp"

namespace htims::core {

/// Complete simulator configuration with instrument defaults matching a
/// PNNL-style 1-m atmospheric-interface drift tube with oa-TOF detection.
struct SimulatorConfig {
    instrument::DriftCellConfig cell{};
    instrument::TofConfig tof{};
    instrument::DetectorConfig detector{};
    instrument::IonTrapConfig trap{};
    pipeline::AcquisitionConfig acquisition{};
    pipeline::BackendKind backend = pipeline::BackendKind::kCpu;
    pipeline::FpgaConfig fpga{};
    std::size_t cpu_threads = 0;
    bool lc_mode = false;  ///< gate species currents by LC retention time

    /// Deterministic fault injection; an empty plan (the default) keeps the
    /// pipeline on the fault-free fast path. Transient CPU faults get
    /// CpuBackend::set_faults' default retries (4, backoff from 50 us,
    /// doubling).
    fault::FaultPlan fault_plan{};
};

/// One simulated acquisition + processing round.
struct RunResult {
    pipeline::AcquisitionResult acquisition;
    pipeline::Frame deconvolved;
    double decode_seconds = 0.0;
    std::optional<pipeline::FpgaCycleReport> fpga;  ///< set for FPGA backend
    fault::InjectionCounts faults{};  ///< injector counters after this run
    std::uint64_t cpu_task_retries = 0;  ///< transient CPU faults retried

    /// Detection scoring against the acquisition's ground-truth traces.
    DetectionScore score(double min_snr = 3.0) const {
        return score_detections(deconvolved, acquisition.traces, min_snr);
    }
};

/// End-to-end simulator.
class Simulator {
public:
    Simulator(const SimulatorConfig& config, instrument::SampleMixture sample);

    const SimulatorConfig& config() const { return config_; }
    const pipeline::AcquisitionEngine& engine() const { return engine_; }
    const pipeline::FrameLayout& layout() const { return engine_.layout(); }

    /// The process-wide telemetry registry the pipeline layers record into
    /// during run(). Snapshot it for run reports, or set_enabled(false) to
    /// switch instrumentation off at runtime.
    telemetry::Registry& telemetry() const { return telemetry::Registry::global(); }

    /// The fault injector built from config().fault_plan, or nullptr when
    /// the plan is empty. Stable for the simulator's lifetime.
    fault::FaultInjector* faults() {
        return faults_.has_value() ? &*faults_ : nullptr;
    }

    /// Acquire one frame at experiment time t and deconvolve it. In
    /// signal-averaging mode the raw frame already is the drift-domain
    /// record, so deconvolution is the identity.
    RunResult run(double start_time_s = 0.0);

private:
    SimulatorConfig config_;
    std::optional<fault::FaultInjector> faults_;
    pipeline::AcquisitionEngine engine_;
    pipeline::CpuBackend cpu_;
};

}  // namespace htims::core
