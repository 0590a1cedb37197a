// E3 (Table 1) — real-time sustainability of the processing backends.
//
// The paper's core question on the Cray XD1: can the capture + enhanced
// deconvolution chain keep up with the instrument's raw data rate? We
// compare the FPGA dataflow model (cycle-accounted at its configured
// clock) against the CPU software backend (measured wall time), for
// several sequence orders, against the instrument rate implied by the
// frame layout.
#include <cmath>
#include <iostream>
#include <string>

#include "core/htims.hpp"

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

double find_scalar(const telemetry::RunMeta& meta, const std::string& key) {
    for (const auto& [name, value] : meta.scalars)
        if (name == key) return value;
    return 0.0;
}

}  // namespace

int main() {
    const std::size_t mz_bins = 512;
    const std::size_t averages = 8;

    // Fresh registry state so the emitted run report covers exactly this
    // bench. HTIMS_TELEMETRY=0 in the environment disables instrumentation
    // (the report is then skipped), which is how the overhead of the
    // disabled path is measured against this bench's sample rates.
    auto& tel = telemetry::Registry::global();
    tel.reset();
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

        // CPU backend, batched (default) vs forced-scalar: same frame, same
        // thread pool size, so cpu_batch_x is the end-to-end gain of the
        // tiled SIMD decode path alone.
        pipeline::CpuBackend cpu(seq, layout, 0);
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            (void)cpu.deconvolve(raw);
            best = std::max(best, cpu.sustained_sample_rate(averages));
        }
        pipeline::CpuBackend cpu_scalar(seq, layout, 0);
        cpu_scalar.set_batch_lanes(1);
        double best_scalar = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            (void)cpu_scalar.deconvolve(raw);
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
    // paper's actual deployment shape. Runs the same case synchronously and
    // with overlapped decode (frame k deconvolving on a worker while frame
    // k+1 streams in); overlap_x is the end-to-end throughput gain of
    // hiding the decode behind ingestion. The JSON report carries ring
    // occupancy, stall/idle, and decode-overlap latency histograms.
    {
        const prs::OversampledPrs seq(8, 2, prs::GateMode::kPulsed);
        pipeline::FrameLayout layout{
            .drift_bins = seq.length(),
            .mz_bins = mz_bins,
            .drift_bin_width_s = 15e-3 / static_cast<double>(seq.length())};
        const pipeline::Frame raw = synthetic_raw(seq, layout);
        pipeline::HybridConfig hcfg;
        hcfg.backend = pipeline::BackendKind::kCpu;
        hcfg.frames = 4;
        hcfg.averages = 4;
        hcfg.ring_records = 64;
        const auto period = pipeline::to_period_samples(raw, 1);

        const auto run_rate = [&](const pipeline::HybridConfig& cfg) {
            pipeline::HybridPipeline hybrid(seq, layout, period, cfg);
            return hybrid.run();
        };

        double sync_rate = 0.0, sync_rtf = 0.0;
        {
            const auto report = run_rate(hcfg);
            sync_rate = report.sample_rate;
            sync_rtf = report.realtime_factor(layout.sample_rate());
            std::cout << "\nhybrid stream (order 8, CPU backend): "
                      << format_double(report.sample_rate / 1e6, 2)
                      << " Msamples/s, realtime_factor "
                      << format_double(sync_rtf, 2) << ", stall "
                      << format_double(report.producer_stall_seconds * 1e3, 2)
                      << " ms, idle "
                      << format_double(report.consumer_idle_seconds * 1e3, 2)
                      << " ms\n";
        }
        meta.scalars.emplace_back("hybrid.sample_rate", sync_rate);
        meta.scalars.emplace_back("hybrid.realtime_factor", sync_rtf);

        // Overlapped decode, swept over worker counts: overlap_x is the
        // canonical 1-worker figure; _w2/_w4 show what extra decode workers
        // buy (spare cores required — on one hardware thread they can only
        // timeslice).
        for (const std::size_t workers :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            hcfg.decode_workers = workers;
            const auto report = run_rate(hcfg);
            const double rate = report.sample_rate;
            const double rtf = report.realtime_factor(layout.sample_rate());
            const double overlap_x = sync_rate > 0.0 ? rate / sync_rate : 0.0;
            std::cout << "hybrid stream, overlapped decode (w" << workers
                      << "): " << format_double(rate / 1e6, 2)
                      << " Msamples/s, realtime_factor "
                      << format_double(rtf, 2) << ", overlap_x "
                      << format_double(overlap_x, 2) << ", decode-wait "
                      << format_double(report.decode_wait_seconds * 1e3, 2)
                      << " ms\n";
            if (workers == 1) {
                meta.scalars.emplace_back("hybrid.overlap_sample_rate", rate);
                meta.scalars.emplace_back("hybrid.overlap_realtime_factor",
                                          rtf);
                meta.scalars.emplace_back("hybrid.overlap_x", overlap_x);
            } else {
                meta.scalars.emplace_back(
                    "hybrid.overlap_x_w" + std::to_string(workers), overlap_x);
            }
        }

        // Batch-transport ablation: the same overlapped run with the staging
        // batch forced to one record (the pre-batch transport protocol).
        // batch_x is the end-to-end ingest gain of span-granular publishes.
        hcfg.decode_workers = 1;
        hcfg.batch_records = 1;
        {
            const auto report = run_rate(hcfg);
            const double batch_x =
                report.sample_rate > 0.0
                    ? find_scalar(meta, "hybrid.overlap_sample_rate") /
                          report.sample_rate
                    : 0.0;
            std::cout << "hybrid stream, per-record transport:  "
                      << format_double(report.sample_rate / 1e6, 2)
                      << " Msamples/s (batch_x "
                      << format_double(batch_x, 2) << ")\n";
            meta.scalars.emplace_back("hybrid.per_record_sample_rate",
                                      report.sample_rate);
            meta.scalars.emplace_back("hybrid.batch_x", batch_x);
        }
    }

    if (tel.enabled()) {
        const auto snap = tel.snapshot();
        telemetry::print_report(std::cout, snap);
        telemetry::save_json_report("BENCH_E3.json", snap, meta);
        std::cout << "telemetry run report written to BENCH_E3.json\n";
    }
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
