// E19 — hyperdimensional screening service: kernel speed, recall, scale-out.
//
// Three claims about the analysis stage (src/analysis/), measured in the
// order they compose:
//
//   kernel  the dispatched XOR-popcount Hamming kernel vs the de-vectorized
//           SWAR scalar oracle, plus every tier the host can execute.
//           Acceptance: >= 4x over the oracle on the host's best tier
//           (skipped when detection lands on the generic tier — there is
//           no vector unit to beat the oracle with).
//
//   recall  nearest-neighbour identification vs hypervector dimension D.
//           Queries are the library's own reference spectra perturbed the
//           way real spectra degrade — intensity jitter, dropped fragment
//           peaks, spurious peaks — so ground truth is exact. Acceptance:
//           recall >= 0.95 at D = 4096 (the SpecHD operating point; small
//           D trades recall for speed, and the curve shows the trade).
//
//   fleet   the full streaming service: N instrument streams through the
//           shared decode pool with one shared AnalysisStage attached at
//           the ordered emission point. Reports delivered Msamples/s with
//           analysis on, frames analyzed, clusters formed.
//
//   --tiny   smoke configuration for scripts/check.sh (seconds, not minutes)
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/library.hpp"
#include "analysis/stage.hpp"
#include "core/htims.hpp"
#include "pipeline/fleet.hpp"

#include "bench_report.hpp"

using namespace htims;

namespace {

struct BenchShape {
    std::size_t hamming_words = 64;        ///< 4096-bit vectors
    std::size_t hamming_reps = 200000;     ///< distance calls per timing pass
    std::vector<std::size_t> dims{256, 512, 1024, 2048, 4096};
    std::size_t library_size = 200;
    std::size_t queries_per_entry = 3;
    int order = 6;
    std::size_t mz_bins = 64;
    std::size_t frames = 4;
    std::size_t averages = 2;
    std::size_t workers = 2;
    std::vector<std::size_t> stream_sweep{1, 2, 4, 8};
};

BenchShape tiny_shape() {
    BenchShape s;
    s.hamming_reps = 20000;
    s.dims = {256, 1024, 4096};
    s.library_size = 48;
    s.queries_per_entry = 2;
    s.order = 5;
    s.mz_bins = 16;
    s.frames = 3;
    s.stream_sweep = {1, 2};
    return s;
}

/// Degrade a reference spectrum into a realistic query: intensity jitter,
/// dropped fragments, spurious peaks. Seeded per (entry, repeat) so every
/// run scores the same query set.
std::vector<double> perturb(const std::vector<double>& reference,
                            std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> q = reference;
    double maxv = 0.0;
    for (const double v : q) maxv = std::max(maxv, v);
    for (auto& v : q) {
        if (v <= 0.0) continue;
        if (rng.uniform() < 0.35) {
            v = 0.0;  // fragment lost
            continue;
        }
        v *= rng.uniform(0.5, 1.5);
    }
    for (int spur = 0; spur < 8; ++spur)
        q[static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(q.size())))] +=
            maxv * rng.uniform(0.1, 0.6);
    return q;
}

/// Time `reps` distance calls through `fn`, returning Mwords/s.
template <typename Fn>
double time_mwords(Fn&& fn, std::size_t words, std::size_t reps) {
    WallTimer timer;
    std::uint64_t sink = 0;
    for (std::size_t r = 0; r < reps; ++r) sink += fn();
    const double s = timer.seconds();
    // The sink keeps the loop honest; fold it into the rate's last digit.
    return rate_per_second(reps * words, s) / 1e6 +
           static_cast<double>(sink & 1u) * 1e-12;
}

}  // namespace

int main(int argc, char** argv) {
    BenchShape shape;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--tiny") == 0) shape = tiny_shape();

    telemetry::Registry::global().reset();
    telemetry::RunMeta meta;
    meta.bench = "bench_e19_hdsearch";
    meta.labels.emplace_back("experiment", "E19");
    meta.labels.emplace_back("paper_ref", "downstream at-scale analysis");
    meta.labels.emplace_back("simd", simd_tier_name(simd_tier()));

    // ---- kernel: dispatched vs scalar oracle, plus every runnable tier ----
    const std::size_t words = shape.hamming_words;
    std::vector<std::uint64_t> va(words), vb(words);
    {
        Rng rng(1901);
        for (auto& w : va) w = rng.next_u64();
        for (auto& w : vb) w = rng.next_u64();
    }
    const double scalar_rate = time_mwords(
        [&] { return hamming_distance_scalar(va.data(), vb.data(), words); },
        words, shape.hamming_reps);
    const double dispatch_rate = time_mwords(
        [&] { return hamming_distance(va.data(), vb.data(), words); }, words,
        shape.hamming_reps);
    const double simd_x = scalar_rate > 0.0 ? dispatch_rate / scalar_rate : 0.0;

    Table kernel_table("E19: Hamming kernel, 4096-bit vectors");
    kernel_table.set_header({"kernel", "Mwords_s", "vs_scalar_x"});
    kernel_table.set_precision(2);
    kernel_table.add_row({"scalar(SWAR)", scalar_rate, 1.0});
    kernel_table.add_row({std::string("dispatch(") +
                              simd_tier_name(simd_tier()) + ")",
                          dispatch_rate, simd_x});
    for (const SimdTier tier :
         {SimdTier::kGeneric, SimdTier::kAvx2, SimdTier::kAvx512,
          SimdTier::kNeon}) {
        if (!hamming_distance_at_tier(tier, va.data(), vb.data(), words))
            continue;  // host cannot execute this tier
        const double rate = time_mwords(
            [&] {
                return *hamming_distance_at_tier(tier, va.data(), vb.data(),
                                                 words);
            },
            words, shape.hamming_reps);
        kernel_table.add_row({std::string("tier:") + simd_tier_name(tier),
                              rate, scalar_rate > 0.0 ? rate / scalar_rate
                                                      : 0.0});
        meta.scalars.emplace_back(
            std::string("hd.mwords_") + simd_tier_name(tier), rate);
    }
    kernel_table.print(std::cout);
    meta.scalars.emplace_back("hd.simd_x", simd_x);
    if (simd_tier() != SimdTier::kGeneric && simd_x < 4.0) {
        std::cout << "REGRESSION: hd.simd_x " << format_double(simd_x, 2)
                  << " below the 4x SIMD-vs-scalar bar\n";
    }

    // ---- recall vs dimension ----
    instrument::PeptideLibraryConfig lib_cfg;
    lib_cfg.count = shape.library_size;
    const auto mixture = instrument::make_tryptic_digest(lib_cfg);

    Table recall_table("E19: NN recall and search rate vs dimension");
    recall_table.set_header(
        {"dim", "recall", "queries", "searches_s", "Msamples_s_equiv"});
    recall_table.set_precision(3);
    double recall_at_max = 0.0;
    for (const std::size_t dim : shape.dims) {
        analysis::SpectrumEncoderConfig ecfg;
        ecfg.dim = dim;
        ecfg.mz_bins = 512;  // synthetic reference resolution
        const analysis::SpectrumEncoder encoder(ecfg);
        const analysis::SpectralLibrary library(encoder, mixture);
        std::size_t hits = 0, total = 0;
        WallTimer timer;
        for (std::size_t i = 0; i < library.size(); ++i) {
            const auto reference = library.reference_spectrum(i);
            for (std::size_t r = 0; r < shape.queries_per_entry; ++r) {
                const auto query =
                    perturb(reference, 1900 + i * 31 + r * 7919);
                const auto match = library.nearest(encoder.encode(query));
                hits += match.index == i ? 1u : 0u;
                ++total;
            }
        }
        const double wall = timer.seconds();
        const double recall =
            total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                      : 0.0;
        const double searches_s = rate_per_second(total, wall);
        // One search stands in for one decoded spectrum of mz_bins samples.
        const double msamples_equiv =
            searches_s * static_cast<double>(ecfg.mz_bins) / 1e6;
        recall_table.add_row({static_cast<std::int64_t>(dim), recall,
                              static_cast<std::int64_t>(total), searches_s,
                              msamples_equiv});
        meta.scalars.emplace_back("hd.recall_d" + std::to_string(dim), recall);
        if (dim == shape.dims.back()) recall_at_max = recall;
    }
    recall_table.print(std::cout);
    if (recall_at_max < 0.95) {
        std::cout << "REGRESSION: hd.recall_d" << shape.dims.back() << " "
                  << format_double(recall_at_max, 3)
                  << " below the 0.95 identification bar\n";
    }

    // ---- fleet: the streaming service under analysis load ----
    const prs::OversampledPrs seq(shape.order, 1, prs::GateMode::kPulsed);
    const pipeline::FrameLayout layout{
        .drift_bins = seq.length(),
        .mz_bins = shape.mz_bins,
        .drift_bin_width_s = 15e-3 / static_cast<double>(seq.length())};

    analysis::AnalysisConfig acfg;
    acfg.encoder.dim = shape.dims.back();
    acfg.encoder.mz_bins = layout.mz_bins;

    Table fleet_table("E19: screening service, shared stage across streams");
    fleet_table.set_header(
        {"streams", "workers", "Msamples_s", "frames", "clusters"});
    fleet_table.set_precision(2);
    for (const std::size_t n : shape.stream_sweep) {
        analysis::AnalysisStage stage(acfg);
        const analysis::SpectralLibrary library(stage.encoder(), mixture);
        stage.set_library(&library);
        std::vector<pipeline::FleetStream> streams;
        streams.reserve(n);
        for (std::size_t si = 0; si < n; ++si) {
            pipeline::HybridConfig cfg;
            cfg.backend = (si % 2 == 0) ? pipeline::BackendKind::kCpu
                                        : pipeline::BackendKind::kFpga;
            cfg.frames = shape.frames;
            cfg.averages = shape.averages;
            cfg.cpu_threads = 1;
            cfg.analysis = &stage;
            std::vector<std::uint32_t> period(layout.cells());
            Rng rng(1900 + si);
            for (auto& s : period)
                s = static_cast<std::uint32_t>(rng.below(4096));
            streams.push_back(pipeline::FleetStream{
                seq, layout, std::move(cfg), std::move(period), nullptr});
        }
        pipeline::FleetConfig fc;
        fc.decode_workers = shape.workers;
        const auto report = pipeline::FleetRunner(std::move(streams), fc).run();
        const auto analyzed = stage.report();
        fleet_table.add_row({static_cast<std::int64_t>(n),
                             static_cast<std::int64_t>(shape.workers),
                             report.sample_rate / 1e6,
                             static_cast<std::int64_t>(analyzed.frames),
                             static_cast<std::int64_t>(analyzed.clusters)});
        meta.scalars.emplace_back(
            "hd.fleet" + std::to_string(n) + "_sample_rate",
            report.sample_rate);
        if (analyzed.frames !=
            static_cast<std::uint64_t>(n) * shape.frames) {
            std::cout << "REGRESSION: stage analyzed " << analyzed.frames
                      << " frames, expected " << n * shape.frames << "\n";
        }
    }
    fleet_table.print(std::cout);

    bench::write_report("BENCH_E19.json", meta);

    std::cout << "\nShape check: kernel throughput steps up tier by tier\n"
                 "(popcount is exact on every tier, so only speed varies).\n"
                 "Recall climbs with D — random hypervector collisions fade\n"
                 "as the space grows — and saturates near 1.0 by D = 4096\n"
                 "while search cost grows only linearly in D. The fleet\n"
                 "sweep shows the stage riding the ordered emission path:\n"
                 "frames analyzed == streams x frames at every point, with\n"
                 "aggregate throughput degrading gracefully as encode+search\n"
                 "joins decode on the shared cores.\n";
    return 0;
}
