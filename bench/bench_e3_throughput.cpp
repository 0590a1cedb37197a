// E3 (Table 1) — real-time sustainability of the processing backends.
//
// The paper's core question on the Cray XD1: can the capture + enhanced
// deconvolution chain keep up with the instrument's raw data rate? We
// compare the FPGA dataflow model (cycle-accounted at its configured
// clock) against the CPU software backend (measured wall time), for
// several sequence orders, against the instrument rate implied by the
// frame layout.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/htims.hpp"

#include "bench_report.hpp"

using namespace htims;

namespace {

pipeline::Frame synthetic_raw(const prs::OversampledPrs& seq,
                              const pipeline::FrameLayout& layout) {
    transform::EnhancedDeconvolver enc(seq);
    auto ws = enc.make_workspace();
    pipeline::Frame raw(layout);
    AlignedVector<double> x(layout.drift_bins, 0.0), y(layout.drift_bins);
    Rng rng(99);
    for (std::size_t m = 0; m < layout.mz_bins; ++m) {
        std::fill(x.begin(), x.end(), 0.0);
        for (int k = 0; k < 4; ++k)
            x[rng.below(layout.drift_bins * 3 / 4)] = rng.uniform(10.0, 200.0);
        enc.encode_fast(x, y, ws);
        raw.set_drift_profile(m, y);
    }
    return raw;
}

}  // namespace

int main() {
    const std::size_t mz_bins = 512;
    const std::size_t averages = 8;

    // Fresh registry state so the emitted run report covers exactly this
    // bench. HTIMS_TELEMETRY=0 in the environment disables instrumentation
    // (the report is then skipped), which is how the overhead of the
    // disabled path is measured against this bench's sample rates.
    telemetry::Registry::global().reset();
    telemetry::RunMeta meta;
    meta.bench = "bench_e3_throughput";
    meta.labels.emplace_back("experiment", "E3");
    meta.labels.emplace_back("paper_ref", "Table 1");
    meta.labels.emplace_back("simd_tier", simd_tier_name(simd_tier()));
    meta.labels.emplace_back("batch_lanes", std::to_string(batch_lanes()));

    Table table("E3: sustained throughput vs instrument rate (Msamples/s)");
    table.set_header({"order", "ovs", "fine_bins", "instr_rate", "fpga_rtf",
                      "fpga_wide_rtf", "cpu_rate", "cpu_rtf", "cpu_sc_rtf",
                      "cpu_batch_x", "fpga_bram_MB", "fits_bram"});
    table.set_precision(2);

    struct Case {
        int order;
        int ovs;
    };
    for (const Case c : {Case{8, 2}, Case{9, 2}, Case{10, 2}, Case{12, 1}}) {
        const prs::OversampledPrs seq(c.order, c.ovs, prs::GateMode::kPulsed);
        // Drift period fixed by physics (~15 ms for the default cell); the
        // fine-bin width shrinks as the sequence grows.
        const double period_s = 15e-3;
        pipeline::FrameLayout layout{
            .drift_bins = seq.length(),
            .mz_bins = mz_bins,
            .drift_bin_width_s = period_s / static_cast<double>(seq.length())};
        const double instrument_rate = layout.sample_rate();

        const pipeline::Frame raw = synthetic_raw(seq, layout);

        // FPGA model: stream `averages` periods, deconvolve, read cycles.
        pipeline::FpgaConfig fpga_cfg;
        pipeline::FpgaPipeline fpga(seq, layout, fpga_cfg);
        fpga.begin_frame();
        std::vector<std::uint32_t> samples(layout.cells());
        for (std::size_t i = 0; i < samples.size(); ++i)
            samples[i] = static_cast<std::uint32_t>(
                std::min(255.0, std::max(0.0, std::round(raw.data()[i] / 8.0))));
        for (std::size_t a = 0; a < averages; ++a) fpga.push_samples(samples);
        (void)fpga.end_frame();
        const double fpga_rate = fpga.sustained_sample_rate(averages);

        // "Wide" FPGA configuration: the parallelism ablation — 4 ADC words
        // per cycle and 16 deconvolution engines, the scale-up a larger
        // fabric buys once the base config falls below real time.
        pipeline::FpgaConfig wide_cfg;
        wide_cfg.samples_per_cycle = 4;
        wide_cfg.deconv_engines = 16;
        pipeline::FpgaPipeline wide(seq, layout, wide_cfg);
        wide.begin_frame();
        for (std::size_t a = 0; a < averages; ++a) wide.push_samples(samples);
        (void)wide.end_frame();
        const double wide_rate = wide.sustained_sample_rate(averages);

        // CPU backend, batched (default) vs the scalar oracle: same frame,
        // same thread pool size, so cpu_batch_x is the end-to-end gain of
        // the tiled SIMD decode path alone.
        pipeline::CpuBackend cpu(seq, layout, 0);
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            (void)cpu.deconvolve(raw);
            best = std::max(best, cpu.sustained_sample_rate(averages));
        }
        pipeline::CpuBackend cpu_scalar(seq, layout, 0);
        double best_scalar = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            (void)cpu_scalar.deconvolve_scalar(raw);
            best_scalar =
                std::max(best_scalar, cpu_scalar.sustained_sample_rate(averages));
        }
        const double batch_speedup = best_scalar > 0.0 ? best / best_scalar : 0.0;

        table.add_row({std::int64_t{c.order}, std::int64_t{c.ovs},
                       static_cast<std::int64_t>(layout.drift_bins),
                       instrument_rate / 1e6, fpga_rate / instrument_rate,
                       wide_rate / instrument_rate, best / 1e6,
                       best / instrument_rate, best_scalar / instrument_rate,
                       batch_speedup,
                       static_cast<double>(fpga.report().bram_bytes_used) / 1048576.0,
                       std::string(fpga.report().fits_bram ? "yes" : "no")});

        const std::string tag =
            "order" + std::to_string(c.order) + "_ovs" + std::to_string(c.ovs);
        meta.scalars.emplace_back(tag + ".instrument_rate", instrument_rate);
        meta.scalars.emplace_back(tag + ".fpga_rtf", fpga_rate / instrument_rate);
        meta.scalars.emplace_back(tag + ".fpga_wide_rtf",
                                  wide_rate / instrument_rate);
        meta.scalars.emplace_back(tag + ".cpu_rtf", best / instrument_rate);
        meta.scalars.emplace_back(tag + ".cpu_rtf_scalar",
                                  best_scalar / instrument_rate);
        meta.scalars.emplace_back(tag + ".cpu_batch_speedup", batch_speedup);
    }
    table.print(std::cout);

    // Hybrid streaming section: producer → SPSC ring → CPU backend, the
    // paper's actual deployment shape. Every case streams the same 128
    // frames: inline decode and 1/2/4 decode workers (overlap_x = their
    // rate over inline, the gain of decoding frame k on a worker while
    // frame k+1 streams in). Each round runs every case once, in
    // alternating order, and each ratio is taken within a round; the report
    // carries each ratio's median and min-max over the rounds, plus ring
    // occupancy, stall/idle, and decode latency histograms.
    {
        const prs::OversampledPrs seq(8, 2, prs::GateMode::kPulsed);
        pipeline::FrameLayout layout{
            .drift_bins = seq.length(),
            .mz_bins = mz_bins,
            .drift_bin_width_s = 15e-3 / static_cast<double>(seq.length())};
        const auto period =
            pipeline::to_period_samples(synthetic_raw(seq, layout), 1);
        constexpr std::size_t kFrames = 128;
        constexpr std::size_t kRounds = 9;
        struct HybridCase {
            const char* name;
            std::size_t workers;
        };
        const std::vector<HybridCase> cases{
            {"inline", 0}, {"w1", 1}, {"w2", 2}, {"w4", 4}};
        std::vector<std::vector<double>> rates(cases.size());
        for (std::size_t round = 0; round < kRounds; ++round) {
            for (std::size_t k = 0; k < cases.size(); ++k) {
                const std::size_t c = round % 2 == 0 ? k : cases.size() - 1 - k;
                pipeline::HybridConfig hcfg;
                hcfg.backend = pipeline::BackendKind::kCpu;
                hcfg.frames = kFrames;
                hcfg.averages = 4;
                hcfg.ring_records = 64;
                hcfg.decode_workers = cases[c].workers;
                pipeline::HybridPipeline hybrid(seq, layout, period, hcfg);
                rates[c].push_back(hybrid.run().sample_rate);
            }
        }
        std::cout << "\nhybrid stream (order 8, CPU backend, " << kFrames
                  << " frames, " << kRounds << " rounds), median Msamples/s:";
        for (std::size_t c = 0; c < cases.size(); ++c)
            std::cout << " " << cases[c].name << " "
                      << format_double(percentile(rates[c], 50.0) / 1e6, 1);
        std::cout << "\n";
        Table ratios("E3: hybrid stream ratios, round by round");
        ratios.set_header({"ratio", "cases", "x_median", "x_min", "x_max"});
        ratios.set_precision(2);
        // rate(a) / rate(b) within each round, summarized as median, min
        // and max, also emitted as hybrid.<key>, hybrid.<key>_min/_max.
        const auto add_ratio = [&](const std::string& key, std::size_t a,
                                   std::size_t b) {
            std::vector<double> x(kRounds);
            for (std::size_t r = 0; r < kRounds; ++r) x[r] = rates[a][r] / rates[b][r];
            const double mid = percentile(x, 50.0);
            const auto [lo, hi] = std::minmax_element(x.begin(), x.end());
            ratios.add_row({key, std::string(cases[a].name) + " / " + cases[b].name,
                            mid, *lo, *hi});
            meta.scalars.emplace_back("hybrid." + key, mid);
            meta.scalars.emplace_back("hybrid." + key + "_min", *lo);
            meta.scalars.emplace_back("hybrid." + key + "_max", *hi);
        };
        add_ratio("overlap_x", 1, 0);
        add_ratio("overlap_x_w2", 2, 0);
        add_ratio("overlap_x_w4", 3, 0);
        ratios.print(std::cout);

        // Real-time factors are these over order8_ovs2.instrument_rate.
        meta.scalars.emplace_back("hybrid.sample_rate", percentile(rates[0], 50.0));
        meta.scalars.emplace_back("hybrid.overlap_sample_rate",
                                  percentile(rates[1], 50.0));
    }

    bench::write_report("BENCH_E3.json", meta, /*print_tables=*/true);
    std::cout << "\nShape check: the base FPGA configuration (1 word/cycle,\n"
                 "4 engines @ 100 MHz) sustains real time through order 9 and\n"
                 "falls below it for the largest frames — where BRAM is also\n"
                 "exhausted — while the widened fabric (4 words/cycle, 16\n"
                 "engines) restores realtime_factor >= 1 everywhere. The CPU\n"
                 "software backend sustains the instrument rate at every\n"
                 "order, which is the paper's headline feasibility result;\n"
                 "cpu_batch_x is the extra margin the tiled SIMD decode path\n"
                 "buys over the scalar per-channel decode. overlap_x needs\n"
                 "spare cores to show its gain (decode rides a worker thread\n"
                 "while ingestion continues): expect >= ~1.2 when frame decode\n"
                 "is a sizable slice of the frame period and cores are free,\n"
                 "degenerating to ~1 or below on a single-core host where the\n"
                 "worker can only timeslice against the ingestion threads.\n";
    return 0;
}
