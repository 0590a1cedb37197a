#include "core/simulator.hpp"

#include "common/timer.hpp"

namespace htims::core {

Simulator::Simulator(const SimulatorConfig& config, instrument::SampleMixture sample)
    : config_(config),
      engine_(config.cell, config.tof, config.detector, config.trap,
              instrument::EsiSource(std::move(sample), config.lc_mode),
              config.acquisition),
      cpu_(engine_.sequence(), engine_.layout(), config.cpu_threads) {
    if (!config_.fault_plan.empty()) {
        faults_.emplace(config_.fault_plan);
        cpu_.set_faults(&*faults_);
    }
}

RunResult Simulator::run(double start_time_s) {
    auto& tel = telemetry::Registry::global();
    static const auto kStageRun = tel.intern("simulator.run");
    auto span = tel.span(kStageRun);

    RunResult result{.acquisition = engine_.acquire(start_time_s),
                     .deconvolved = pipeline::Frame(engine_.layout()),
                     .decode_seconds = 0.0,
                     .fpga = std::nullopt};

    if (config_.acquisition.mode == pipeline::AcquisitionMode::kSignalAveraging) {
        // Conventional IMS: the accumulated record is the drift spectrum.
        result.deconvolved = result.acquisition.raw;
        return result;
    }

    WallTimer timer;
    if (config_.backend == pipeline::BackendKind::kFpga) {
        pipeline::FpgaPipeline fpga(engine_.sequence(), engine_.layout(), config_.fpga);
        fpga.set_faults(faults());
        fpga.begin_frame();
        // Stream the accumulated frame as one period of (wide) samples —
        // the accumulation already happened in the acquisition model.
        std::vector<std::uint32_t> samples =
            pipeline::to_period_samples(result.acquisition.raw, 1);
        fpga.push_samples(samples);
        result.deconvolved = fpga.end_frame();
        result.fpga = fpga.report();
    } else {
        result.deconvolved = cpu_.deconvolve(result.acquisition.raw);
    }
    result.decode_seconds = timer.seconds();
    result.cpu_task_retries = cpu_.task_retries();
    if (faults_.has_value()) result.faults = faults_->counts();
    return result;
}

}  // namespace htims::core
