// E4 (Figure 3) — strong scaling of the CPU software component.
//
// SC-style scaling curve: fixed frame (order 10, oversampling 2, 1024 m/z
// channels), thread count swept. Channels are independent, so scaling is
// limited only by memory bandwidth and the fork-join barrier. On a
// single-core host the sweep degenerates to oversubscription (speedup ~1);
// the harness reports whatever the machine provides.
#include <iostream>
#include <string>
#include <thread>

#include "core/htims.hpp"

#include "bench_report.hpp"

using namespace htims;

int main() {
    const prs::OversampledPrs seq(10, 2, prs::GateMode::kPulsed);
    pipeline::FrameLayout layout{.drift_bins = seq.length(),
                                 .mz_bins = 1024,
                                 .drift_bin_width_s = 15e-3 / 2046.0};
    pipeline::Frame raw(layout);
    Rng rng(7);
    for (double& v : raw.data()) v = rng.uniform(0.0, 255.0);

    telemetry::Registry::global().reset();
    telemetry::RunMeta meta;
    meta.bench = "bench_e4_scaling";
    meta.labels.emplace_back("experiment", "E4");
    meta.labels.emplace_back("paper_ref", "Figure 3");
    meta.labels.emplace_back("simd_tier", simd_tier_name(simd_tier()));
    meta.labels.emplace_back("batch_lanes", std::to_string(batch_lanes()));
    meta.scalars.emplace_back("hardware_concurrency",
                              std::thread::hardware_concurrency());

    std::cout << "hardware_concurrency = " << std::thread::hardware_concurrency()
              << "\n";
    Table table("E4: CPU backend strong scaling (fixed frame)");
    table.set_header({"threads", "decode_ms", "speedup", "efficiency_%",
                      "Msamples/s", "scalar_ms", "batch_x"});
    table.set_precision(2);

    double t1 = 0.0;
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        pipeline::CpuBackend cpu(seq, layout, threads);
        double best = 1e9;
        for (int rep = 0; rep < 3; ++rep) {
            (void)cpu.deconvolve(raw);
            best = std::min(best, cpu.last_seconds());
        }
        // Forced-scalar decode at the same thread count: batch_x isolates the
        // SIMD tile path's contribution at every point of the scaling curve
        // (thread scaling and lane batching are orthogonal axes).
        pipeline::CpuBackend cpu_scalar(seq, layout, threads);
        cpu_scalar.set_batch_lanes(1);
        double best_scalar = 1e9;
        for (int rep = 0; rep < 3; ++rep) {
            (void)cpu_scalar.deconvolve(raw);
            best_scalar = std::min(best_scalar, cpu_scalar.last_seconds());
        }
        if (threads == 1) t1 = best;
        const double speedup = t1 / best;
        const double batch_speedup = best > 0.0 ? best_scalar / best : 0.0;
        table.add_row({static_cast<std::int64_t>(threads), best * 1e3, speedup,
                       100.0 * speedup / static_cast<double>(threads),
                       static_cast<double>(layout.cells()) / best / 1e6,
                       best_scalar * 1e3, batch_speedup});

        const std::string tag = "threads" + std::to_string(threads);
        meta.scalars.emplace_back(tag + ".decode_s", best);
        meta.scalars.emplace_back(tag + ".speedup", speedup);
        meta.scalars.emplace_back(tag + ".decode_s_scalar", best_scalar);
        meta.scalars.emplace_back(tag + ".batch_speedup", batch_speedup);
    }
    table.print(std::cout);

    bench::write_report("BENCH_E4.json", meta, /*print_tables=*/true);
    std::cout << "\nShape check: near-linear scaling when physical cores are\n"
                 "available (per-channel decomposition is embarrassingly\n"
                 "parallel); flat on a single-core host.\n";
    return 0;
}
