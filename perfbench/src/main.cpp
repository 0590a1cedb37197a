// htims_perfbench — the repository's benchmark driver.
//
//   htims_perfbench --workload live|paced|replay --seed N --seconds T
//                   --trace 0|1 --out-dir DIR [--tiny] [--corrupt]
//                   [--git-sha S] [--source-digest D] [--fs-type F]
//
// Generates the workload's inputs from the seed, times set-up several
// times, runs one digest-checked repetition, then repeats the workload for
// --seconds and reports the end-to-end figures (--trace 0) or, from an
// untraced and a traced half plus layer-alone passes, the per-layer
// figures (--trace 1). Every output is checked against an oracle computed
// off the clock. The last stdout line starts with PERFBENCH_RESULT and
// holds every figure as JSON; perfbench/run.py turns it into the result
// line. README.md in this directory describes the workloads and metrics.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "telemetry/registry.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool corrupt = false;
    std::string out_dir = ".";
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
    std::string fs_type = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "htims_perfbench: " << why
              << "\nusage: htims_perfbench --workload live|paced|replay --seed N "
                 "--seconds T --trace 0|1 --out-dir DIR [--tiny] [--corrupt]\n";
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    std::map<std::string, std::string*> text{{"--workload", &a.workload},
                                             {"--out-dir", &a.out_dir},
                                             {"--git-sha", &a.git_sha},
                                             {"--source-digest", &a.source_digest},
                                             {"--fs-type", &a.fs_type}};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (flag == "--corrupt") {
            a.corrupt = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (auto it = text.find(flag); it != text.end()) {
                *it->second = value;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                a.trace = value == "1";
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    return a;
}

std::size_t cpu_count() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
    return 1;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

template <typename T, typename F>
std::vector<double> collect(const std::vector<T>& reps, F&& field) {
    std::vector<double> out;
    for (const auto& r : reps) out.push_back(field(r));
    return out;
}

std::vector<double> pooled(const std::vector<RepStats>& reps,
                           std::vector<double> RepStats::*member) {
    std::vector<double> out;
    for (const auto& r : reps) out.insert(out.end(), (r.*member).begin(), (r.*member).end());
    return out;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
    std::printf("%s\n", title.c_str());
    for (const Metric& m : metrics)
        std::printf("  %-36s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    try {
        const std::size_t nproc = cpu_count();
        const Shape shape = make_shape(args.workload, args.tiny, nproc);
        const bool degenerate = shape.threads > nproc;
        const auto& registry = htims::telemetry::Registry::global();
        const std::string telemetry_state =
            std::string(registry.enabled() ? "enabled" : "disabled") +
            (htims::telemetry::kCompiledIn ? ", compiled in" : ", compiled out");

        std::vector<std::pair<std::string, std::string>> provenance{
            {"workload", shape.name},
            {"seed", std::to_string(args.seed)},
            {"seconds", json_number(args.seconds)},
            {"trace", args.trace ? "1" : "0"},
            {"tiny", args.tiny ? "1" : "0"},
            {"nproc", std::to_string(nproc)},
            {"simd_tier", htims::simd_tier_name(htims::simd_tier())},
            {"batch_lanes", std::to_string(htims::batch_lanes())},
            {"compiler", PERFBENCH_COMPILER},
            {"build_type", PERFBENCH_BUILD_TYPE},
            {"git_sha", args.git_sha},
            {"source_digest", args.source_digest},
            {"archive_fs", args.fs_type},
            {"telemetry_registry", telemetry_state},
            {"workload_threads", std::to_string(shape.threads)},
            {"degenerate", degenerate ? "yes: more runnable threads than nproc" : "no"},
        };
        std::printf("== htims perfbench: workload %s, seed %llu, %g s, trace %d\n",
                    shape.name.c_str(), static_cast<unsigned long long>(args.seed),
                    args.seconds, args.trace ? 1 : 0);
        for (const auto& [k, v] : provenance) std::printf("  %-20s %s\n", k.c_str(), v.c_str());
        std::fflush(stdout);

        // Inputs first, off the clock.
        const Inputs inputs = make_inputs(shape, args.seed, args.out_dir);
        WorkloadRunner runner(shape, inputs, args.corrupt);

        std::vector<double> setups;
        for (std::size_t i = 0; i < shape.setup_samples; ++i)
            setups.push_back(runner.setup_only());

        std::vector<RepStats> checked;  // every repetition, for the checks
        checked.push_back(runner.run_rep(true, nullptr));
        setups.push_back(checked.back().setup_s);

        // Timed repetitions. The traced run spends the first half untraced
        // (the overhead baseline) and the second half traced.
        const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
        std::vector<RepStats> timed, traced;
        std::size_t timed_frames = 0;
        const std::uint64_t t_start = now_ns();
        const auto elapsed = [&] { return static_cast<double>(now_ns() - t_start) * 1e-9; };
        double rss_mb = 0.0;
        while (timed.empty() || elapsed() < untraced_budget ||
               (!args.trace && timed_frames < shape.min_frames)) {
            timed.push_back(runner.run_rep(false, nullptr));
            timed_frames += timed.back().frames;
            setups.push_back(timed.back().setup_s);
            // Peak RSS through the first full repetition: inputs, set-up and
            // one run. Later repetitions start fresh threads, and how much
            // freed memory their allocator arenas keep varies run to run.
            if (timed.size() == 1) rss_mb = peak_rss_mb();
        }
        SpanLog spans;
        if (args.trace) {
            const std::uint64_t t_traced = now_ns();
            do {
                spans.clear();
                traced.push_back(runner.run_rep(false, &spans));
            } while (static_cast<double>(now_ns() - t_traced) * 1e-9 < args.seconds / 2);
        }

        // Output checks against the oracle, computed now, off the clock.
        const Oracle oracle = make_oracle(shape, inputs);
        std::vector<std::string> notes;
        std::size_t attempted = 0, failed = 0, timed_attempted = 0, timed_failed = 0;
        for (auto* group : {&checked, &timed, &traced}) {
            for (const RepStats& rep : *group) {
                const std::size_t bad = check_rep(shape, inputs, oracle, rep, notes);
                attempted += rep.frames;
                failed += bad;
                if (group == &timed) {
                    timed_attempted += rep.frames;
                    timed_failed += bad;
                }
            }
        }
        const bool correct = failed == 0 && notes.empty();

        // End-to-end figures from the untraced timed repetitions.
        const double frame_period_ms =
            (shape.rate_x > 0.0 ? inputs.layout.period_s() * shape.averages / shape.rate_x
                                : inputs.layout.period_s() * shape.averages) *
            1e3;
        // Latency percentiles: each repetition's, then the median across
        // repetitions, so one disturbed repetition cannot move the figure.
        const auto latency_q = [&](double q) {
            return median(collect(timed, [q](const RepStats& r) { return quantile(r.latency_ms, q); }));
        };
        const std::vector<double> latency = pooled(timed, &RepStats::latency_ms);
        std::size_t late = 0;
        for (const double ms : latency) late += ms > frame_period_ms ? 1 : 0;
        const double late_frac =
            static_cast<double>(std::min(timed_attempted, late + timed_failed)) /
            static_cast<double>(timed_attempted);
        const std::vector<double> lag = pooled(timed, &RepStats::generator_lag_ms);
        const std::vector<double> throughput =
            collect(timed, [](const RepStats& r) { return r.samples / r.wall_s / 1e6; });

        std::vector<Metric> e2e{
            {"throughput_msps", median(throughput), "Msamples/s"},
            {"frame_latency_p50_ms", latency_q(0.50), "ms"},
            {"frame_latency_p90_ms", latency_q(0.90), "ms"},
            {"frame_latency_p99_ms", latency_q(0.99), "ms"},
            {"on_time_frac", 1.0 - late_frac, "ratio"},
            {"late_frac", late_frac, "ratio"},
            {"generator_lag_p99_ms", quantile(lag, 0.99), "ms"},
            {"failed_frac",
             static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", rss_mb, "MB"},
        };
        std::printf("repetitions: 1 digest-checked (%zu frames), %zu timed (%zu frames), "
                    "%zu traced; %zu set-ups; frame period %.4g ms\n",
                    checked.front().frames, timed.size(), latency.size(), traced.size(),
                    setups.size(), frame_period_ms);
        std::printf("throughput per timed repetition (Msamples/s):");
        for (const double t : throughput) std::printf(" %.4g", t);
        std::printf("\n");
        print_table("end to end (untraced repetitions):", e2e);
        if (shape.rate_x <= 0.0)
            std::printf("  (generator_lag_p99_ms is 0: %s is unpaced)\n", shape.name.c_str());

        std::vector<Metric> layer;
        std::vector<SelfTime> self;
        AlonePasses alone;
        if (args.trace) {
            const auto med = [&](auto field) { return median(collect(traced, field)); };
            const auto sum = [&](auto field) {
                double s = 0.0;
                for (const auto& r : traced) s += static_cast<double>(field(r));
                return s;
            };
            const double untraced_wall =
                median(collect(timed, [](const RepStats& r) { return r.wall_s; }));
            const double traced_wall =
                median(collect(traced, [](const RepStats& r) { return r.wall_s; }));
            layer = {
                {"source.records", med([](const RepStats& r) { return static_cast<double>(r.source_records); }), "count"},
                {"source.records_per_call",
                 med([](const RepStats& r) {
                     return static_cast<double>(r.source_records) / static_cast<double>(r.source_calls);
                 }),
                 "records"},
                {"source.busy_ms", med([](const RepStats& r) { return r.source_busy_ms; }), "ms"},
                {"source.generator_lag_p99_ms", quantile(pooled(traced, &RepStats::generator_lag_ms), 0.99), "ms"},
                {"ring.producer_stall_ms", med([](const RepStats& r) { return r.producer_stall_ms; }), "ms"},
                {"ring.consumer_idle_ms", med([](const RepStats& r) { return r.consumer_idle_ms; }), "ms"},
                {"ring.records_dropped", sum([](const RepStats& r) { return r.records_dropped; }), "count"},
                {"ring.frames_degraded", sum([](const RepStats& r) { return r.frames_degraded; }), "count"},
                {"dispatch.wait_ms", med([](const RepStats& r) { return r.decode_wait_ms; }), "ms"},
                {"decode.close_to_emit_ms_p50", quantile(pooled(traced, &RepStats::close_to_emit_ms), 0.5), "ms"},
                {"decode.cpu_task_retries", sum([](const RepStats& r) { return r.cpu_task_retries; }), "count"},
                {"analysis.frame_ms_p50", quantile(pooled(traced, &RepStats::analyze_ms), 0.5), "ms"},
                {"analysis.clusters", med([](const RepStats& r) { return static_cast<double>(r.clusters); }), "count"},
                {"analysis.library_build_ms", med([](const RepStats& r) { return r.library_build_ms; }), "ms"},
                {"store.append_ms_p50", quantile(pooled(traced, &RepStats::append_ms), 0.5), "ms"},
                {"store.finalize_ms", med([](const RepStats& r) { return r.finalize_ms; }), "ms"},
                {"store.replay_open_ms", med([](const RepStats& r) { return r.replay_open_ms; }), "ms"},
                {"store.frames_skipped", sum([](const RepStats& r) { return r.frames_skipped; }), "count"},
                {"trace.overhead_frac", traced_wall / untraced_wall - 1.0, "ratio"},
            };
            const std::vector<Span> all_spans = spans.merged();
            self = self_times(all_spans);
            const std::string trace_path = args.out_dir + "/" + shape.name + "-seed" +
                                           std::to_string(args.seed) + ".trace.json";
            write_chrome_trace(trace_path, all_spans, shape.name, 200000);

            alone = run_alone_passes(shape, inputs, args.out_dir);
            layer.insert(layer.end(), alone.metrics.begin(), alone.metrics.end());
            print_table("per layer (traced repetitions and layer-alone passes):", layer);
            std::printf("self time by span, last traced repetition (trace: %s):\n",
                        trace_path.c_str());
            for (const SelfTime& t : self)
                if (t.count > 0)
                    std::printf("  %-20s %9zu calls  %12.3f ms total  %12.3f ms self\n",
                                span_name(t.kind), t.count, t.total_ms, t.self_ms);
            const double e2e_rate = median(throughput);
            const LayerRate* slowest = nullptr;
            std::printf("serial layers alone vs end to end (%.6g Msamples/s):\n", e2e_rate);
            for (const LayerRate& r : alone.serial) {
                std::printf("  %-20s %12.6g Msamples/s\n", r.layer.c_str(), r.msamples_s);
                if (slowest == nullptr || r.msamples_s < slowest->msamples_s) slowest = &r;
            }
            if (slowest != nullptr)
                std::printf("  slowest serial layer: %s; end to end %s it (%.3g of its rate)\n",
                            slowest->layer.c_str(),
                            e2e_rate <= slowest->msamples_s ? "does not exceed"
                                                            : "EXCEEDS (measurement suspect)",
                            e2e_rate / slowest->msamples_s);
            for (const std::string& n : alone.notes) std::printf("  note: %s\n", n.c_str());
        }

        std::printf("checks: %s (%zu of %zu frames failed)\n", correct ? "ok" : "FAILED",
                    failed, attempted);
        for (const std::string& n : notes) std::printf("  check failed: %s\n", n.c_str());

        std::ostringstream out;
        out << "PERFBENCH_RESULT {\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"provenance\":{";
        for (std::size_t i = 0; i < provenance.size(); ++i)
            out << (i ? "," : "") << json_string(provenance[i].first) << ":"
                << json_string(provenance[i].second);
        out << "},\"checks\":[";
        for (std::size_t i = 0; i < notes.size(); ++i)
            out << (i ? "," : "") << json_string(notes[i]);
        const auto emit = [&out](const char* key, const std::vector<Metric>& ms) {
            out << ",\"" << key << "\":{";
            for (std::size_t i = 0; i < ms.size(); ++i)
                out << (i ? "," : "") << json_string(ms[i].name) << ":{\"value\":"
                    << json_number(ms[i].value) << ",\"unit\":" << json_string(ms[i].unit)
                    << "}";
            out << "}";
        };
        out << "]";
        emit("end_to_end", e2e);
        emit("per_layer", layer);
        out << ",\"serial_layers\":{";
        for (std::size_t i = 0; i < alone.serial.size(); ++i)
            out << (i ? "," : "") << json_string(alone.serial[i].layer) << ":"
                << json_number(alone.serial[i].msamples_s);
        out << "},\"self_ms\":{";
        bool first = true;
        for (const SelfTime& t : self) {
            if (t.count == 0) continue;
            out << (first ? "" : ",") << json_string(span_name(t.kind)) << ":"
                << json_number(t.self_ms);
            first = false;
        }
        out << "}}";
        std::cout << out.str() << std::endl;

        if (!inputs.archive_path.empty()) std::remove(inputs.archive_path.c_str());
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "htims_perfbench: error: " << e.what() << "\n";
        return 1;
    }
}
