// htims_cli — command-line front end to the simulator.
//
// Runs one acquisition + deconvolution round with parameters from the
// command line, prints the feature list, and optionally persists the
// deconvolved frame in the binary container (readable back with
// pipeline::load_frame).
//
//   $ ./examples/htims_cli --order 8 --oversampling 2 --averages 8
//   $ ./examples/htims_cli --mode sa --averages 16 --save frame.htms
//   $ ./examples/htims_cli --sample digest --count 100
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/library.hpp"
#include "analysis/stage.hpp"
#include "core/htims.hpp"
#include "pipeline/fleet.hpp"
#include "store/frame_store.hpp"
#include "store/replay.hpp"

using namespace htims;

namespace {

void usage() {
    std::cout <<
        "usage: htims_cli [options]\n"
        "  --mode mp|sa          gate program (default mp)\n"
        "  --order N             PRS order 2..20 (default 8)\n"
        "  --oversampling F      fine bins per chip (default 2)\n"
        "  --averages A          periods per frame (default 8)\n"
        "  --backend cpu|fpga    processing backend (default cpu)\n"
        "  --sample mix|digest   calibration mix or synthetic digest\n"
        "  --count N             digest size (default 100)\n"
        "  --seed S              acquisition RNG seed\n"
        "  --faults SPEC         fault plan, e.g. seed=7,cpu.fail=0.01,\n"
        "                        fpga.overrun@3 (see src/fault/fault.hpp)\n"
        "  --overlap             also stream the frame through the hybrid\n"
        "                        pipeline, inline vs worker decode\n"
        "                        (max(1, --decode-workers) workers), and\n"
        "                        report the overlap speedup\n"
        "  --decode-workers N    decode worker threads for the hybrid runs,\n"
        "                        --record and --replay included (default 0 =\n"
        "                        decode inline; results identical)\n"
        "  --record PATH         stream the acquired frame through the hybrid\n"
        "                        pipeline and persist the run in an mmap frame\n"
        "                        store (replayable with --replay)\n"
        "  --replay PATH         replay a recorded store through the hybrid\n"
        "                        pipeline instead of streaming the template\n"
        "                        (layout must match --order/--oversampling)\n"
        "  --replay-rate X       playback speed vs the recorded line rate\n"
        "                        (default 0 = as fast as the link accepts)\n"
        "  --fleet SPEC          run the acquired frame as a multi-stream\n"
        "                        fleet over a shared decode pool. SPEC is\n"
        "                        N[:workers[:frames]] (default workers 2,\n"
        "                        0 = decode inline; frames 4); stream\n"
        "                        backends alternate starting from --backend\n"
        "  --analyze[=D]         run the hyperdimensional analysis stage on\n"
        "                        the decoded output: encode spectra as D-bit\n"
        "                        hypervectors (default 4096), identify them\n"
        "                        against a mixture-derived reference library,\n"
        "                        and cluster online; fleet streams (--fleet)\n"
        "                        share the stage\n"
        "  --save PATH           write the deconvolved frame (binary)\n"
        "  --csv                 print the feature table as CSV\n"
        "  --telemetry           print the telemetry report after the run\n"
        "  --telemetry-json PATH write the run report as JSON (always, even\n"
        "                        with telemetry off); after --fleet it also\n"
        "                        carries the fleet report's fleet.* scalars\n"
        "  --help                this text\n";
}

}  // namespace

int main(int argc, char** argv) {
    core::SimulatorConfig cfg = core::default_config();
    std::string sample = "mix";
    std::size_t digest_count = 100;
    std::string save_path;
    std::string record_path;
    std::string replay_path;
    std::string fleet_spec;
    double replay_rate = 0.0;
    std::string telemetry_json_path;
    bool csv = false;
    bool telemetry = false;
    bool overlap = false;
    bool analyze = false;
    std::size_t analyze_dim = 4096;
    std::size_t decode_workers = pipeline::HybridConfig{}.decode_workers;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help") {
            usage();
            return 0;
        } else if (arg == "--mode") {
            const std::string v = next();
            cfg.acquisition.mode = v == "sa"
                                       ? pipeline::AcquisitionMode::kSignalAveraging
                                       : pipeline::AcquisitionMode::kMultiplexed;
            if (v == "sa") cfg.acquisition.use_trap = false;
        } else if (arg == "--order") {
            cfg.acquisition.sequence_order = std::atoi(next().c_str());
        } else if (arg == "--oversampling") {
            cfg.acquisition.oversampling = std::atoi(next().c_str());
        } else if (arg == "--averages") {
            cfg.acquisition.averages = static_cast<std::size_t>(
                std::atoll(next().c_str()));
        } else if (arg == "--backend") {
            cfg.backend = next() == "fpga" ? pipeline::BackendKind::kFpga
                                           : pipeline::BackendKind::kCpu;
        } else if (arg == "--sample") {
            sample = next();
        } else if (arg == "--count") {
            digest_count = static_cast<std::size_t>(std::atoll(next().c_str()));
        } else if (arg == "--seed") {
            cfg.acquisition.seed = static_cast<std::uint64_t>(
                std::atoll(next().c_str()));
        } else if (arg == "--faults" || arg.rfind("--faults=", 0) == 0) {
            const std::string spec =
                arg == "--faults" ? next() : arg.substr(std::string("--faults=").size());
            try {
                cfg.fault_plan = fault::FaultPlan::parse(spec);
            } catch (const Error& e) {
                std::cerr << "bad --faults spec: " << e.what() << "\n";
                return 2;
            }
        } else if (arg == "--overlap") {
            overlap = true;
        } else if (arg == "--analyze" || arg.rfind("--analyze=", 0) == 0) {
            analyze = true;
            if (arg != "--analyze")
                analyze_dim = static_cast<std::size_t>(std::atoll(
                    arg.substr(std::string("--analyze=").size()).c_str()));
        } else if (arg == "--decode-workers") {
            decode_workers = static_cast<std::size_t>(std::atoll(next().c_str()));
        } else if (arg == "--fleet" || arg.rfind("--fleet=", 0) == 0) {
            fleet_spec = arg == "--fleet"
                             ? next()
                             : arg.substr(std::string("--fleet=").size());
        } else if (arg == "--record") {
            record_path = next();
        } else if (arg == "--replay") {
            replay_path = next();
        } else if (arg == "--replay-rate") {
            replay_rate = std::atof(next().c_str());
        } else if (arg == "--save") {
            save_path = next();
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--telemetry") {
            telemetry = true;
        } else if (arg == "--telemetry-json") {
            telemetry_json_path = next();
        } else {
            std::cerr << "unknown option " << arg << "\n";
            usage();
            return 2;
        }
    }

    instrument::SampleMixture mixture;
    if (sample == "digest") {
        instrument::PeptideLibraryConfig lib;
        lib.count = digest_count;
        mixture = instrument::make_tryptic_digest(lib);
    } else {
        mixture = instrument::make_calibration_mix();
    }

    try {
        core::Simulator simulator(cfg, mixture);
        const auto run = simulator.run();
        telemetry::RunMeta report_meta;  // the --telemetry-json run report
        report_meta.bench = "htims_cli";
        report_meta.labels.emplace_back("sample", mixture.name);
        report_meta.scalars.emplace_back("decode_seconds", run.decode_seconds);
        report_meta.scalars.emplace_back("duty_cycle", run.acquisition.duty_cycle);

        std::cout << "sample: " << mixture.name << "\n"
                  << "frame: " << run.deconvolved.drift_bins() << " x "
                  << run.deconvolved.mz_bins() << ", duty "
                  << format_double(100.0 * run.acquisition.duty_cycle, 1)
                  << "%, utilization "
                  << format_double(100.0 * run.acquisition.utilization(), 1)
                  << "%, decode "
                  << format_double(1e3 * run.decode_seconds, 2) << " ms\n";
        if (run.fpga) {
            std::cout << "fpga: " << run.fpga->total_cycles() << " cycles, "
                      << run.fpga->accumulator_saturations << " saturations\n";
            if (run.fpga->budget_overrun)
                std::cout << "fpga: budget overrun — "
                          << run.fpga->channels_decoded << "/"
                          << run.deconvolved.mz_bins()
                          << " channels decoded (partial frame)\n";
        }
        if (!cfg.fault_plan.empty()) {
            std::cout << "faults: plan \"" << cfg.fault_plan.to_string()
                      << "\" injected " << run.faults.total_injected()
                      << " fault(s);";
            for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
                if (run.faults.events[s] == 0) continue;
                std::cout << " " << fault::site_name(static_cast<fault::Site>(s))
                          << "=" << run.faults.injected[s] << "/"
                          << run.faults.events[s];
            }
            std::cout << "\n";
            if (run.cpu_task_retries > 0)
                std::cout << "faults: " << run.cpu_task_retries
                          << " transient CPU failures retried\n";
        }

        const instrument::TofAnalyzer tof(cfg.tof);
        core::FeatureFindOptions opts;
        opts.min_snr = 5.0;
        const auto features = core::find_features(run.deconvolved, tof, opts);

        Table table("features (top 20 by intensity)");
        table.set_header({"mono_mz", "z", "drift_bin", "isotopes", "intensity"});
        table.set_precision(3);
        for (std::size_t i = 0; i < std::min<std::size_t>(20, features.size()); ++i) {
            const auto& f = features[i];
            table.add_row({f.monoisotopic_mz, static_cast<std::int64_t>(f.charge),
                           static_cast<std::int64_t>(f.drift_bin),
                           static_cast<std::int64_t>(f.isotope_count), f.intensity});
        }
        if (csv)
            table.print_csv(std::cout);
        else
            table.print(std::cout);
        std::cout << features.size() << " features total\n";

        // The analysis stage outlives every pipeline run below — fleet
        // streams hold raw pointers to it via HybridConfig::analysis.
        std::unique_ptr<analysis::AnalysisStage> stage;
        std::unique_ptr<analysis::SpectralLibrary> library;
        if (analyze) {
            analysis::AnalysisConfig acfg;
            acfg.encoder.dim = analyze_dim;
            acfg.encoder.mz_bins = run.deconvolved.mz_bins();
            acfg.encoder.seed = cfg.acquisition.seed;
            stage = std::make_unique<analysis::AnalysisStage>(acfg);
            library = std::make_unique<analysis::SpectralLibrary>(
                stage->encoder(), mixture);
            stage->set_library(library.get());
            const auto verdict = stage->analyze(0, 0, run.deconvolved);
            std::cout << "analysis: D=" << analyze_dim << " (simd "
                      << simd_tier_name(simd_tier()) << "), nearest \""
                      << library->name(verdict.library_entry) << "\" at "
                      << verdict.library_distance << " bits ("
                      << format_double(
                             100.0 * static_cast<double>(verdict.library_distance) /
                                 static_cast<double>(analyze_dim),
                             1)
                      << "% of D)\n";
        }

        if (overlap) {
            // Stream the acquired frame through the hybrid pipeline twice —
            // decode inline on the consumer, then on decode workers — and
            // report the end-to-end speedup from hiding the decode behind
            // ingestion.
            pipeline::HybridConfig hcfg;
            hcfg.backend = cfg.backend;
            hcfg.frames = 4;
            hcfg.averages = cfg.acquisition.averages;
            hcfg.cpu_threads = cfg.cpu_threads;
            hcfg.fpga = cfg.fpga;
            const auto period = pipeline::to_period_samples(
                run.acquisition.raw, cfg.acquisition.averages);
            pipeline::HybridPipeline sync_pipe(simulator.engine().sequence(),
                                               simulator.layout(), period, hcfg);
            const auto sync_report = sync_pipe.run();
            const std::size_t workers = std::max<std::size_t>(1, decode_workers);
            hcfg.decode_workers = workers;
            pipeline::HybridPipeline overlap_pipe(simulator.engine().sequence(),
                                                  simulator.layout(), period, hcfg);
            const auto overlap_report = overlap_pipe.run();
            const double overlap_x =
                sync_report.sample_rate > 0.0
                    ? overlap_report.sample_rate / sync_report.sample_rate
                    : 0.0;
            std::cout << "hybrid stream: sync "
                      << format_double(sync_report.sample_rate / 1e6, 2)
                      << " Msamples/s, overlapped (w" << workers << ") "
                      << format_double(overlap_report.sample_rate / 1e6, 2)
                      << " Msamples/s (overlap_x " << format_double(overlap_x, 2)
                      << ", decode-wait "
                      << format_double(overlap_report.decode_wait_seconds * 1e3, 2)
                      << " ms)\n";
        }

        if (!fleet_spec.empty()) {
            // Run N copies of the acquired stream as an instrument fleet
            // over one shared decode pool. Backends alternate per stream
            // (starting from --backend), so the report shows both decode
            // paths contending for the same workers.
            std::size_t n_streams = 0, workers = 2, frames = 4;
            {
                std::size_t a = 0, b = 0, c = 0;
                const int got = std::sscanf(fleet_spec.c_str(), "%zu:%zu:%zu",
                                            &a, &b, &c);
                if (got < 1 || a == 0) {
                    std::cerr << "bad --fleet spec \"" << fleet_spec
                              << "\" (want N[:workers[:frames]])\n";
                    return 2;
                }
                n_streams = a;
                if (got >= 2) workers = b;
                if (got >= 3 && c > 0) frames = c;
            }
            const auto period = pipeline::to_period_samples(
                run.acquisition.raw, cfg.acquisition.averages);
            std::vector<pipeline::FleetStream> streams;
            streams.reserve(n_streams);
            for (std::size_t si = 0; si < n_streams; ++si) {
                pipeline::HybridConfig hcfg;
                hcfg.backend =
                    (si % 2 == 0) == (cfg.backend == pipeline::BackendKind::kCpu)
                        ? pipeline::BackendKind::kCpu
                        : pipeline::BackendKind::kFpga;
                hcfg.frames = frames;
                hcfg.averages = cfg.acquisition.averages;
                hcfg.cpu_threads = 1;
                hcfg.fpga = cfg.fpga;
                hcfg.analysis = stage.get();  // nullptr unless --analyze
                streams.push_back(pipeline::FleetStream{
                    simulator.engine().sequence(), simulator.layout(), hcfg,
                    period, nullptr});
            }
            pipeline::FleetConfig fc;
            fc.decode_workers = workers;
            pipeline::FleetRunner runner(std::move(streams), fc);
            const auto fleet = runner.run();
            std::cout << "fleet: " << n_streams << " stream(s) x " << frames
                      << " frame(s), " << workers << " shared worker(s): "
                      << format_double(fleet.sample_rate / 1e6, 2)
                      << " Msamples/s aggregate, p99 frame latency "
                      << format_double(
                             static_cast<double>(fleet.frame_latency.p99) / 1e6,
                             2)
                      << " ms\n";
            for (std::size_t si = 0; si < fleet.streams.size(); ++si) {
                const auto& s = fleet.streams[si];
                std::cout << "fleet: stream " << si << " ("
                          << (si % 2 == 0 ? (cfg.backend == pipeline::BackendKind::kCpu ? "cpu" : "fpga")
                                          : (cfg.backend == pipeline::BackendKind::kCpu ? "fpga" : "cpu"))
                          << ") " << format_double(s.report.sample_rate / 1e6, 2)
                          << " Msamples/s, p99 "
                          << format_double(
                                 static_cast<double>(s.frame_latency.p99) / 1e6,
                                 2)
                          << " ms\n";
            }
            if (stage) {
                const auto report = stage->report();
                std::cout << "analysis: " << report.frames
                          << " frames analyzed across the fleet, "
                          << report.clusters << " cluster(s), digest "
                          << stage->digest() << "\n";
            }
            pipeline::append_fleet_scalars(report_meta, fleet, "fleet");
        }

        if (!record_path.empty() || !replay_path.empty()) {
            // Record: persist the streamed run (the input side of the link)
            // in an mmap store, then decode it live for reference digests.
            // Replay: serve a store back through the same pipeline. The
            // printed per-run digest is identical between a --record run and
            // a --replay of the store it wrote — that is the determinism
            // contract the store exists to keep.
            pipeline::HybridConfig hcfg;
            hcfg.backend = cfg.backend;
            hcfg.averages = cfg.acquisition.averages;
            hcfg.cpu_threads = cfg.cpu_threads;
            hcfg.fpga = cfg.fpga;
            hcfg.decode_workers = decode_workers;
            std::vector<std::uint64_t> digests;
            hcfg.frame_sink = [&](std::size_t, const pipeline::Frame& f) {
                digests.push_back(pipeline::frame_digest(f));
            };
            std::uint64_t digest = 14695981039346656037ULL;  // FNV offset
            const auto fold = [&](std::uint64_t d) {
                digest = (digest ^ d) * 1099511628211ULL;
            };

            if (!record_path.empty()) {
                hcfg.frames = 4;
                const auto period = pipeline::to_period_samples(
                    run.acquisition.raw, cfg.acquisition.averages);
                store::StoreMeta meta{simulator.layout(),
                                      cfg.acquisition.averages};
                store::FrameStoreWriter writer(record_path, meta);
                const auto streamed =
                    store::period_to_frame(simulator.layout(), period);
                for (std::uint64_t f = 0; f < hcfg.frames; ++f)
                    writer.append(streamed, f);
                writer.finalize();
                pipeline::HybridPipeline live(simulator.engine().sequence(),
                                              simulator.layout(), period, hcfg);
                const auto live_report = live.run();
                for (const auto d : digests) fold(d);
                std::cout << "store: recorded " << writer.frames()
                          << " frames (" << writer.data_bytes()
                          << " data bytes) to " << record_path << "\n"
                          << "store: live run digest " << digest << " at "
                          << format_double(live_report.sample_rate / 1e6, 2)
                          << " Msamples/s\n";
            } else {
                store::FrameStoreReader reader(replay_path);
                if (!(reader.layout() == simulator.layout())) {
                    std::cerr << "error: store layout "
                              << reader.layout().drift_bins << " x "
                              << reader.layout().mz_bins
                              << " does not match the configured run\n";
                    return 1;
                }
                store::ReplaySource source(reader,
                                           store::ReplayConfig{replay_rate});
                hcfg.frames = source.frames();
                hcfg.averages = reader.averages();
                pipeline::HybridPipeline pipe(simulator.engine().sequence(),
                                              reader.layout(), source, hcfg);
                const auto replay_report = pipe.run();
                for (const auto d : digests) fold(d);
                std::cout << "store: replayed " << source.frames()
                          << " frames from " << replay_path << " ("
                          << (reader.indexed() ? "indexed" : "resync-recovered")
                          << ", " << source.skipped() << " skipped)\n"
                          << "store: replay digest " << digest << " at "
                          << format_double(replay_report.sample_rate / 1e6, 2)
                          << " Msamples/s, rate_x "
                          << format_double(replay_rate, 2) << "\n";
            }
        }

        if (!save_path.empty()) {
            pipeline::save_frame(save_path, run.deconvolved);
            std::cout << "frame written to " << save_path << "\n";
        }

        if (telemetry || !telemetry_json_path.empty()) {
            // The run's scalars (fleet figures included) reach the JSON
            // report whether or not the registry recorded anything.
            auto& tel = simulator.telemetry();
            const bool recorded = tel.enabled();
            if (!recorded)
                std::cout << "telemetry disabled (HTIMS_TELEMETRY=0 or "
                             "compiled out)\n";
            const auto snap = recorded ? tel.snapshot() : telemetry::Snapshot{};
            if (telemetry && recorded) telemetry::print_report(std::cout, snap);
            if (!telemetry_json_path.empty()) {
                telemetry::save_json_report(telemetry_json_path, snap, report_meta);
                std::cout << "telemetry report written to "
                          << telemetry_json_path << "\n";
            }
        }
    } catch (const Error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
