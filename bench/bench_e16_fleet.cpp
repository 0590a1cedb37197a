// E16 — fleet mode: aggregate throughput scaling over a shared decode pool.
//
// The deployment question behind FleetRunner: one processing host serving N
// independent instrument streams through one bounded MPMC dispatch queue
// and M decode workers. Real instruments are line-rate devices — frames
// arrive at the gradient cadence, not as fast as the link can carry them —
// so the scaling claim is measured the way a deployment would: each stream
// paced at a fixed line rate (1/16 of the measured single-stream burst
// capacity, so one stream leaves ample headroom), and the fleet must turn
// stream count into delivered aggregate throughput. Two sweeps over
// N in {1, 2, 4, 8} with a fixed worker pool and mixed CPU/FPGA backends:
//
//   burst  unpaced streams — the host's capacity curve. On big hosts it
//          grows until cores saturate; on small ones it bends early
//          (every extra stream adds two ingest threads).
//   paced  line-rate streams — the acceptance sweep. fleet.agg4_x is the
//          4-stream delivered aggregate over the 1-stream baseline; >= 2x
//          is the bar (a host that keeps up delivers ~4x).
//
// Per-stream and aggregate p50/p99 close-to-emission frame latency ride in
// the fleet report; BENCH_E16.json carries the sweep's scalars plus the
// largest paced point's full fleet report under `fleet.largest_paced.`.
//
//   --tiny   smoke configuration for scripts/check.sh (seconds, not minutes)
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/htims.hpp"
#include "pipeline/fleet.hpp"

#include "bench_report.hpp"

using namespace htims;

namespace {

struct BenchShape {
    int order = 8;
    int oversampling = 2;
    std::size_t mz_bins = 256;
    std::size_t frames = 8;
    std::size_t averages = 4;
    std::size_t workers = 4;
    std::vector<std::size_t> sweep{1, 2, 4, 8};
};

BenchShape tiny_shape() {
    BenchShape s;
    s.order = 5;
    s.oversampling = 1;
    s.mz_bins = 16;
    s.frames = 3;
    s.averages = 2;
    s.workers = 2;
    s.sweep = {1, 2, 4};
    return s;
}

/// A line-rate instrument model: records release in frame-sized bursts, one
/// burst every `frame_period_ns`. Within a burst every record releases
/// together, so the producer sleeps the gradient cadence once per frame and
/// then streams the frame at full batch speed — the arrival pattern of a
/// real acquisition, at a cost of one timed wait per frame.
class FramePacedSource final : public pipeline::RecordSource {
public:
    FramePacedSource(std::vector<std::uint32_t> period,
                     const pipeline::FrameLayout& layout, std::uint64_t frames,
                     std::uint64_t averages, std::uint64_t frame_period_ns)
        : inner_(std::move(period), layout, frames, averages),
          records_per_frame_(averages * layout.drift_bins),
          frame_period_ns_(frame_period_ns) {}

    std::uint64_t total_records() const override {
        return inner_.total_records();
    }
    std::span<const std::uint32_t> record_block(
        std::uint64_t seq, std::size_t max_records) override {
        return inner_.record_block(seq, max_records);
    }
    std::uint64_t release_ns(std::uint64_t seq) const override {
        return seq / records_per_frame_ * frame_period_ns_;
    }

private:
    pipeline::PeriodTemplateSource inner_;
    std::uint64_t records_per_frame_;
    std::uint64_t frame_period_ns_;
};

}  // namespace

int main(int argc, char** argv) {
    BenchShape shape;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--tiny") == 0) shape = tiny_shape();

    telemetry::Registry::global().reset();
    telemetry::RunMeta meta;
    meta.bench = "bench_e16_fleet";
    meta.labels.emplace_back("experiment", "E16");
    meta.labels.emplace_back("paper_ref", "multi-instrument deployment");

    const prs::OversampledPrs seq(shape.order, shape.oversampling,
                                  prs::GateMode::kPulsed);
    const pipeline::FrameLayout layout{
        .drift_bins = seq.length(),
        .mz_bins = shape.mz_bins,
        .drift_bin_width_s = 15e-3 / static_cast<double>(seq.length())};

    // Per-stream period templates (deterministic, distinct per stream so a
    // cross-stream mixup would change results instead of cancelling out).
    const std::size_t max_streams = shape.sweep.back();
    std::vector<std::vector<std::uint32_t>> periods(max_streams);
    for (std::size_t si = 0; si < max_streams; ++si) {
        periods[si].resize(layout.cells());
        Rng rng(1600 + si);
        for (auto& s : periods[si])
            s = static_cast<std::uint32_t>(rng.below(4096));
    }

    const auto stream_config = [&](std::size_t si) {
        pipeline::HybridConfig cfg;
        cfg.backend = (si % 2 == 0) ? pipeline::BackendKind::kCpu
                                    : pipeline::BackendKind::kFpga;
        cfg.frames = shape.frames;
        cfg.averages = shape.averages;
        cfg.ring_records = 256;
        cfg.cpu_threads = 1;
        return cfg;
    };

    // One fleet run of n streams; frame_period_ns == 0 means unpaced burst.
    const auto run_fleet = [&](std::size_t n, std::uint64_t frame_period_ns) {
        std::vector<std::unique_ptr<FramePacedSource>> sources;
        std::vector<pipeline::FleetStream> streams;
        streams.reserve(n);
        for (std::size_t si = 0; si < n; ++si) {
            pipeline::RecordSource* source = nullptr;
            std::vector<std::uint32_t> period;
            if (frame_period_ns > 0) {
                sources.push_back(std::make_unique<FramePacedSource>(
                    periods[si], layout, shape.frames, shape.averages,
                    frame_period_ns));
                source = sources.back().get();
            } else {
                period = periods[si];
            }
            streams.push_back(pipeline::FleetStream{
                seq, layout, stream_config(si), std::move(period), source});
        }
        pipeline::FleetConfig fc;
        fc.decode_workers = shape.workers;
        return pipeline::FleetRunner(std::move(streams), fc).run();
    };

    Table table("E16: fleet scaling over a shared decode pool");
    table.set_header({"pass", "streams", "workers", "Msamples_s", "speedup_x",
                      "p50_ms", "p99_ms", "worst_stream_p99_ms"});
    table.set_precision(2);
    const auto add_row = [&](const std::string& pass, std::size_t n,
                             const pipeline::FleetReport& report,
                             double speedup) {
        double worst_p99 = 0.0;
        for (const auto& s : report.streams)
            worst_p99 = std::max(worst_p99, s.frame_latency.p99);
        table.add_row({pass, static_cast<std::int64_t>(n),
                       static_cast<std::int64_t>(shape.workers),
                       report.sample_rate / 1e6, speedup,
                       report.frame_latency.p50 / 1e6,
                       report.frame_latency.p99 / 1e6, worst_p99 / 1e6});
        meta.scalars.emplace_back(
            "fleet." + pass + std::to_string(n) + "_sample_rate",
            report.sample_rate);
        meta.scalars.emplace_back(
            "fleet." + pass + std::to_string(n) + "_p99_latency_ns",
            report.frame_latency.p99);
    };

    // ---- burst sweep: the capacity curve ----
    double burst1_rate = 0.0;
    double burst1_wall = 0.0;
    double burst4_x = 0.0;
    for (const std::size_t n : shape.sweep) {
        const auto report = run_fleet(n, 0);
        if (n == 1) {
            burst1_rate = report.sample_rate;
            burst1_wall = report.wall_seconds;
        }
        const double speedup =
            burst1_rate > 0.0 ? report.sample_rate / burst1_rate : 0.0;
        if (n == 4) burst4_x = speedup;
        add_row("burst", n, report, speedup);
    }

    // ---- paced sweep: the acceptance ----
    // Line rate per stream = 1/16 of single-stream burst capacity, applied
    // as one frame-sized release every 16x the measured per-frame service
    // time. One stream then occupies ~6% of the host; a fleet that scales
    // delivers ~N x the single-stream rate until the pool saturates.
    const double frame_service_s =
        burst1_wall / static_cast<double>(shape.frames);
    const auto frame_period_ns =
        static_cast<std::uint64_t>(16.0 * frame_service_s * 1e9);
    double paced1_rate = 0.0;
    double agg4_x = 0.0;
    pipeline::FleetReport largest_paced;
    for (const std::size_t n : shape.sweep) {
        auto report = run_fleet(n, frame_period_ns);
        if (n == 1) paced1_rate = report.sample_rate;
        const double speedup =
            paced1_rate > 0.0 ? report.sample_rate / paced1_rate : 0.0;
        if (n == 4) agg4_x = speedup;
        add_row("paced", n, report, speedup);
        largest_paced = std::move(report);
    }

    table.print(std::cout);
    std::cout << "fleet: line rate per stream "
              << format_double(paced1_rate / 1e6, 2)
              << " Msamples/s (1/16 of burst capacity); paced aggregate at 4 "
                 "streams vs solo: x"
              << format_double(agg4_x, 2) << " (acceptance >= 2x)\n";
    if (agg4_x < 2.0)
        std::cout << "REGRESSION: fleet.agg4_x " << format_double(agg4_x, 2)
                  << " below the 2x shared-pool scaling bar\n";

    meta.scalars.emplace_back("fleet.agg4_x", agg4_x);
    meta.scalars.emplace_back("fleet.burst4_x", burst4_x);
    meta.scalars.emplace_back("fleet.frame_period_ns",
                              static_cast<double>(frame_period_ns));
    meta.scalars.emplace_back("fleet.workers",
                              static_cast<double>(shape.workers));
    pipeline::append_fleet_scalars(meta, largest_paced, "fleet.largest_paced");
    bench::write_report("BENCH_E16.json", meta);

    std::cout << "\nShape check: the paced sweep is the deployment claim —\n"
                 "each stream asks for 1/16 of the host, so delivered\n"
                 "aggregate grows ~linearly with N (agg4_x ~ 4, >= 2 is the\n"
                 "acceptance bar) until demand meets the burst capacity\n"
                 "curve. The burst sweep is that capacity: on many-core\n"
                 "hosts it rises with N, on small ones it bends early —\n"
                 "every stream adds two ingest threads to the same cores.\n"
                 "p99 latency rises with contention, but dispatch is FIFO\n"
                 "and emission per-stream ordered, so sharing degrades\n"
                 "streams evenly, never one stream alone.\n";
    return 0;
}
