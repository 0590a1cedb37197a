#include "pipeline/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "pipeline/fleet.hpp"
#include "telemetry/telemetry.hpp"

namespace htims::pipeline {

PeriodTemplateSource::PeriodTemplateSource(std::vector<std::uint32_t> period_samples,
                                           const FrameLayout& layout,
                                           std::uint64_t frames,
                                           std::uint64_t averages)
    : period_samples_(std::move(period_samples)),
      record_len_(layout.mz_bins),
      records_per_period_(layout.drift_bins),
      total_records_(frames * averages * layout.drift_bins) {
    if (period_samples_.size() != layout.cells())
        throw ConfigError("period sample template must have layout.cells() entries");
}

std::span<const std::uint32_t> PeriodTemplateSource::record(std::uint64_t seq) {
    const std::size_t record_in_period =
        static_cast<std::size_t>(seq % records_per_period_);
    return std::span(period_samples_.data() + record_in_period * record_len_,
                     record_len_);
}

std::span<const std::uint32_t> PeriodTemplateSource::record_block(
    std::uint64_t seq, std::size_t max_records) {
    // Rows are contiguous until the template wraps at the period boundary.
    const std::size_t record_in_period =
        static_cast<std::size_t>(seq % records_per_period_);
    const std::size_t k =
        std::min(max_records, records_per_period_ - record_in_period);
    return std::span(period_samples_.data() + record_in_period * record_len_,
                     k * record_len_);
}

std::vector<std::uint32_t> to_period_samples(const Frame& raw, std::size_t averages) {
    HTIMS_EXPECTS(averages >= 1);
    std::vector<std::uint32_t> samples(raw.data().size());
    const double inv = 1.0 / static_cast<double>(averages);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double v = std::max(0.0, raw.data()[i] * inv);
        samples[i] = static_cast<std::uint32_t>(std::llround(v));
    }
    return samples;
}

HybridPipeline::HybridPipeline(const prs::OversampledPrs& sequence,
                               const FrameLayout& layout,
                               std::vector<std::uint32_t> period_samples,
                               const HybridConfig& config)
    : sequence_(sequence), layout_(layout), config_(config) {
    template_source_.emplace(std::move(period_samples), layout,
                             config.frames, config.averages);
    source_ = &*template_source_;
    validate_stream(FleetStream{sequence, layout, config, {}, source_},
                    config.decode_workers, "hybrid run");
}

HybridPipeline::HybridPipeline(const prs::OversampledPrs& sequence,
                               const FrameLayout& layout, RecordSource& source,
                               const HybridConfig& config)
    : sequence_(sequence), layout_(layout), source_(&source), config_(config) {
    validate_stream(FleetStream{sequence, layout, config, {}, source_},
                    config.decode_workers, "hybrid run");
}

HybridReport HybridPipeline::run() {
    // The pool size travels in FleetConfig; every worker can hold a frame.
    HybridConfig stream = config_;
    stream.decode_workers = 0;
    stream.decode_buffers =
        std::max(config_.decode_buffers, config_.decode_workers + 1);
    std::vector<FleetStream> one;
    one.push_back(FleetStream{sequence_, layout_, std::move(stream), {}, source_});
    FleetReport fleet =
        FleetRunner(std::move(one), FleetConfig{config_.decode_workers}).run();
    HybridReport report = std::move(fleet.streams.front().report);
    auto& tel = telemetry::Registry::global();
    if (telemetry::kCompiledIn && tel.enabled()) report.telemetry = tel.snapshot();
    return report;
}

}  // namespace htims::pipeline
