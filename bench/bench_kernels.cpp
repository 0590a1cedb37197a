// Kernel microbenchmarks (google-benchmark): the computational primitives
// whose cost determines every throughput number in E3/E4 — FWHT (scalar and
// lane-blocked batch), the fast simplex decode (scalar and batched), the
// enhanced oversampled decode, the FPGA model's integer decode and capture,
// the SPSC streaming link, the CRC-32 every container and store write and
// read runs, and the analysis stage's m/z profile and spectrum encode.
// Besides the console table, the run emits a BENCH_KERNELS.json run report
// (htims.telemetry.v1): every benchmark's items/s as a scalar (the median
// under --benchmark_repetitions), plus the kernel-vs-oracle speedups the
// bench-smoke gate checks — so the kernel perf trajectory stays
// machine-readable across commits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "analysis/encoder.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/frame.hpp"
#include "pipeline/spsc_ring.hpp"
#include "prs/oversampled.hpp"
#include "telemetry/telemetry.hpp"
#include "transform/deconvolver.hpp"
#include "transform/enhanced.hpp"
#include "transform/fwht.hpp"

#include "bench_report.hpp"

using namespace htims;
using bench::find_scalar;

static void BM_Fwht(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    AlignedVector<double> data(n);
    Rng rng(1);
    for (auto& v : data) v = rng.uniform(-1.0, 1.0);
    for (auto _ : state) {
        transform::fwht(data);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fwht)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

static void BM_FwhtBatch(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto lanes = static_cast<std::size_t>(state.range(1));
    AlignedVector<double> data(n * lanes);
    Rng rng(1);
    for (auto& v : data) v = rng.uniform(-1.0, 1.0);
    for (auto _ : state) {
        transform::fwht_batch(data, lanes);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n * lanes));
}
BENCHMARK(BM_FwhtBatch)
    ->Args({1024, 4})
    ->Args({1024, 8})
    ->Args({4096, 8})
    ->Args({16384, 8});

static void BM_SimplexDecode(benchmark::State& state) {
    const int order = static_cast<int>(state.range(0));
    const prs::MSequence seq(order);
    const transform::Deconvolver d(seq);
    auto ws = d.make_workspace();
    AlignedVector<double> y(seq.length()), x(seq.length());
    Rng rng(2);
    for (auto& v : y) v = rng.uniform(0.0, 255.0);
    for (auto _ : state) {
        d.decode(y, x, ws);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(seq.length()));
}
BENCHMARK(BM_SimplexDecode)->Arg(8)->Arg(10)->Arg(11)->Arg(12)->Arg(14);

// The simplex decode `lanes` records wide: the enhanced decoder at F = 1 is
// the plain simplex inverse. Items processed counts decoded samples across
// all lanes, so items/s is directly comparable with BM_SimplexDecode's
// per-channel figure.
static void BM_SimplexDecodeBatch(benchmark::State& state) {
    const int order = static_cast<int>(state.range(0));
    const auto lanes = static_cast<std::size_t>(state.range(1));
    const prs::OversampledPrs seq(order, 1, prs::GateMode::kPulsed);
    const transform::EnhancedDeconvolver d(seq);
    auto ws = d.make_batch_workspace(lanes);
    AlignedVector<double> y(seq.length() * lanes), x(seq.length() * lanes);
    Rng rng(2);
    for (auto& v : y) v = rng.uniform(0.0, 255.0);
    for (auto _ : state) {
        d.decode_batch(y, x, lanes, lanes, ws);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(seq.length() * lanes));
}
BENCHMARK(BM_SimplexDecodeBatch)
    ->Args({8, 8})
    ->Args({10, 8})
    ->Args({11, 4})
    ->Args({11, 8})
    ->Args({12, 8})
    ->Args({14, 8});

static void BM_EnhancedDecode(benchmark::State& state) {
    const int factor = static_cast<int>(state.range(0));
    const prs::OversampledPrs seq(10, factor, prs::GateMode::kStretched);
    const transform::EnhancedDeconvolver d(seq);
    auto ws = d.make_workspace();
    AlignedVector<double> y(seq.length()), x(seq.length());
    Rng rng(3);
    for (auto& v : y) v = rng.uniform(0.0, 255.0);
    for (auto _ : state) {
        d.decode(y, x, ws);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(seq.length()));
}
BENCHMARK(BM_EnhancedDecode)->Arg(1)->Arg(2)->Arg(4);

static void BM_EnhancedDecodeBatch(benchmark::State& state) {
    const int factor = static_cast<int>(state.range(0));
    const auto lanes = static_cast<std::size_t>(state.range(1));
    const prs::OversampledPrs seq(10, factor, prs::GateMode::kStretched);
    const transform::EnhancedDeconvolver d(seq);
    auto ws = d.make_batch_workspace(lanes);
    AlignedVector<double> y(seq.length() * lanes), x(seq.length() * lanes);
    Rng rng(3);
    for (auto& v : y) v = rng.uniform(0.0, 255.0);
    for (auto _ : state) {
        d.decode_batch(y, x, lanes, lanes, ws);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(seq.length() * lanes));
}
BENCHMARK(BM_EnhancedDecodeBatch)->Args({1, 8})->Args({2, 8})->Args({4, 8});

static void BM_FpgaFrameDecode(benchmark::State& state) {
    const prs::OversampledPrs seq(8, 2, prs::GateMode::kPulsed);
    pipeline::FrameLayout layout{.drift_bins = seq.length(),
                                 .mz_bins = 64,
                                 .drift_bin_width_s = 1e-4};
    pipeline::FpgaPipeline fpga(seq, layout, pipeline::FpgaConfig{});
    std::vector<std::uint32_t> samples(layout.cells());
    Rng rng(4);
    for (auto& s : samples) s = static_cast<std::uint32_t>(rng.below(256));
    for (auto _ : state) {
        fpga.begin_frame();
        fpga.push_samples(samples);
        auto frame = fpga.end_frame();
        benchmark::DoNotOptimize(frame.data().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(layout.cells()));
}
BENCHMARK(BM_FpgaFrameDecode);

// The CPU backend's frame decode at perfbench's paced shape (order-8,
// oversampling-2 PRS x 256 m/z) on one thread, as each fleet decode worker
// runs it: the tile decode in place, as the streaming engine calls it, and
// the per-channel scalar oracle (deconvolve_scalar). Items are frame cells.
static void BM_CpuFrameDecode(benchmark::State& state, prs::GateMode mode, bool scalar) {
    const prs::OversampledPrs seq(8, 2, mode);
    const pipeline::FrameLayout layout{.drift_bins = seq.length(),
                                       .mz_bins = 256,
                                       .drift_bin_width_s = 1e-4};
    pipeline::CpuBackend cpu(seq, layout, 1);
    pipeline::Frame raw(layout);
    Rng rng(6);
    for (auto& v : raw.data()) v = static_cast<double>(rng.below(1024));
    pipeline::Frame frame = raw;
    for (auto _ : state) {
        if (scalar) {
            auto out = cpu.deconvolve_scalar(raw);
            benchmark::DoNotOptimize(out.data().data());
        } else {
            state.PauseTiming();
            std::ranges::copy(raw.data(), frame.data().begin());
            state.ResumeTiming();
            cpu.deconvolve(frame, frame);
            benchmark::DoNotOptimize(frame.data().data());
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(layout.cells()));
}
BENCHMARK_CAPTURE(BM_CpuFrameDecode, pulsed_tiles, prs::GateMode::kPulsed, false);
BENCHMARK_CAPTURE(BM_CpuFrameDecode, pulsed_scalar, prs::GateMode::kPulsed, true);
BENCHMARK_CAPTURE(BM_CpuFrameDecode, stretched_tiles, prs::GateMode::kStretched, false);
BENCHMARK_CAPTURE(BM_CpuFrameDecode, stretched_scalar, prs::GateMode::kStretched, true);

// FPGA capture at perfbench's replay shape (order-8, oversampling-2 PRS x
// 256 m/z, 4 averages): one frame's samples streamed one TOF record per
// push_samples call, as the perfbench accumulate layer feeds them, into
// 32-bit accumulation words. Items are samples.
static void BM_FpgaAccumulate(benchmark::State& state) {
    const prs::OversampledPrs seq(8, 2, prs::GateMode::kPulsed);
    pipeline::FrameLayout layout{.drift_bins = seq.length(),
                                 .mz_bins = 256,
                                 .drift_bin_width_s = 1e-4};
    constexpr std::size_t kAverages = 4;
    pipeline::FpgaPipeline fpga(seq, layout, pipeline::FpgaConfig{});
    std::vector<std::uint32_t> period(layout.cells());
    Rng rng(5);
    for (auto& s : period) s = static_cast<std::uint32_t>(rng.below(4096));
    const std::span<const std::uint32_t> samples(period);
    for (auto _ : state) {
        fpga.begin_frame();
        for (std::size_t a = 0; a < kAverages; ++a)
            for (std::size_t d = 0; d < layout.drift_bins; ++d)
                fpga.push_samples(samples.subspan(d * layout.mz_bins, layout.mz_bins));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kAverages * layout.cells()));
}
BENCHMARK(BM_FpgaAccumulate);

static void BM_SpscRing(benchmark::State& state) {
    pipeline::SpscRing<std::uint64_t> ring(1024);
    std::uint64_t v = 0;
    for (auto _ : state) {
        while (!ring.try_push(std::uint64_t{v})) {
        }
        auto out = ring.try_pop();
        benchmark::DoNotOptimize(out);
        ++v;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRing);

// Batch transport protocol on the same ring: one push_batch + one pop_batch
// per iteration moves `batch` items with two index publishes total, so the
// per-item figure isolates what batching amortizes (atomic traffic and
// branchy per-element bookkeeping) against BM_SpscRing's per-item publish.
static void BM_SpscRingBatch(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    pipeline::SpscRing<std::uint64_t> ring(1024);
    std::vector<std::uint64_t> in(batch), out(batch);
    std::iota(in.begin(), in.end(), std::uint64_t{0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(ring.push_batch(std::span(in)));
        benchmark::DoNotOptimize(ring.pop_batch(std::span(out)));
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SpscRingBatch)->Arg(8)->Arg(64)->Arg(256);

// CRC-32 over one replay-shaped frame container payload (order-8,
// oversampling-2 PRS x 256 m/z doubles = 1,044,480 bytes): the bytewise
// oracle and the dispatched kernel. Items are bytes.
template <typename Kernel>
static void BM_Crc32(benchmark::State& state, Kernel kernel) {
    std::vector<unsigned char> bytes(std::size_t{510} * 256 * sizeof(double));
    Rng rng(5);
    for (auto& b : bytes) b = static_cast<unsigned char>(rng.below(256));
    for (auto _ : state) {
        const std::uint32_t crc = kernel(bytes.data(), bytes.size());
        benchmark::DoNotOptimize(crc);
    }
    const auto processed = static_cast<std::int64_t>(state.iterations()) *
                           static_cast<std::int64_t>(bytes.size());
    state.SetItemsProcessed(processed);
    state.SetBytesProcessed(processed);
}
BENCHMARK_CAPTURE(BM_Crc32, bytewise, &crc32_bytewise);
BENCHMARK_CAPTURE(BM_Crc32, dispatched, &crc32);

// The analysis stage's spectrum encode at perfbench's paced shape (D = 4096,
// 256 m/z, top_peaks 48, 32 levels) on a spectrum whose 256 bins are all
// positive, so the top-k selection runs and the 48-peak bundle settles its
// even splits with the tiebreak: the carry-save encode() and the per-bit
// vote oracle. Items are spectra.
static void BM_SpectrumEncode(benchmark::State& state, bool reference) {
    const analysis::SpectrumEncoder encoder(analysis::SpectrumEncoderConfig{
        .dim = 4096, .mz_bins = 256, .levels = 32, .top_peaks = 48, .seed = 42});
    std::vector<double> spectrum(256);
    Rng rng(8);
    for (auto& v : spectrum) v = rng.uniform(1.0, 1000.0);
    for (auto _ : state) {
        const analysis::Hypervector hv =
            reference ? encoder.encode_reference(spectrum) : encoder.encode(spectrum);
        benchmark::DoNotOptimize(hv.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_SpectrumEncode, reference, true);
BENCHMARK_CAPTURE(BM_SpectrumEncode, bitsliced, false);

// The analysis stage's m/z profile of one paced-shape decoded frame (order-8,
// oversampling-2 PRS x 256 m/z = 510 x 256 cells) of mixed signs, through
// the dispatched positive column sums. Items are cells.
static void BM_MzProfile(benchmark::State& state) {
    const pipeline::FrameLayout layout{.drift_bins = 510, .mz_bins = 256,
                                       .drift_bin_width_s = 1e-4};
    pipeline::Frame frame(layout);
    Rng rng(9);
    for (auto& v : frame.data()) v = rng.uniform(-100.0, 400.0);
    for (auto _ : state) {
        const std::vector<double> profile = analysis::mz_intensity_profile(frame);
        benchmark::DoNotOptimize(profile.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(layout.cells()));
}
BENCHMARK(BM_MzProfile);

// Whether crc32() dispatches the PCLMULQDQ fold: at the x86 AVX2 and
// AVX-512 tiers of a CPU that reports pclmul (common/crc32.cpp). Anywhere
// else it runs the bytewise loop itself, and there is no margin to gate.
static bool crc32_folds() {
#if defined(__x86_64__) || defined(__i386__)
    return simd_tier() != SimdTier::kGeneric &&
           __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
    return false;
#endif
}

namespace {

// Optional producer/consumer pinning for the threaded ring bench, selected
// by HTIMS_RING_PIN="<producer_cpu>,<consumer_cpu>" (e.g. "0,1"). Unset, or
// a negative index, leaves the thread where the scheduler put it; on
// non-Linux hosts the request is accepted and ignored.
void pin_current_thread(int cpu) {
#if defined(__linux__)
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu), &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)cpu;
#endif
}

std::pair<int, int> ring_pin_from_env() {
    const char* env = std::getenv("HTIMS_RING_PIN");
    if (env == nullptr) return {-1, -1};
    int producer = -1, consumer = -1;
    char* rest = nullptr;
    producer = static_cast<int>(std::strtol(env, &rest, 10));
    if (rest != nullptr && *rest == ',')
        consumer = static_cast<int>(std::strtol(rest + 1, nullptr, 10));
    return {producer, consumer};
}

// A record the size of the hot Block struct the hybrid transport moves
// (pointer + size + seq + flags): the payload the batch protocol was built
// to stream.
struct StreamRecord {
    std::uint64_t seq = 0;
    std::uint64_t payload[3] = {0, 0, 0};
};
static_assert(sizeof(StreamRecord) == 32);

}  // namespace

// Cross-thread streaming: a producer thread feeds 32-byte records through a
// ring while the timed loop drains it — the shape of the hybrid pipeline's
// ingest edge. range(0) is the transfer granularity: 1 uses the
// single-element protocol on both sides (the pre-batch transport), larger
// values move spans. Real time, not CPU time: on a single hardware thread
// the producer and consumer timeshare, and wall clock is what the pipeline
// sees.
static void BM_SpscRingStream(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    const auto [pin_producer, pin_consumer] = ring_pin_from_env();
    pipeline::SpscRing<StreamRecord> ring(1024);
    std::atomic<bool> stop{false};
    std::thread producer([&, pin = pin_producer] {
        pin_current_thread(pin);
        std::vector<StreamRecord> stage(batch);
        std::uint64_t seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            for (auto& r : stage) r.seq = seq++;
            std::size_t off = 0;
            while (off < stage.size() &&
                   !stop.load(std::memory_order_relaxed)) {
                std::size_t moved = 0;
                if (batch == 1) {
                    moved = ring.try_push(StreamRecord{stage[0]}) ? 1 : 0;
                } else {
                    moved = ring.push_batch(std::span(stage).subspan(off));
                }
                off += moved;
                // Ring full: yield instead of spinning so a single hardware
                // thread can still timeshare producer and consumer.
                if (moved == 0) std::this_thread::yield();
            }
        }
    });
    pin_current_thread(pin_consumer);
    std::vector<StreamRecord> out(batch);
    std::int64_t received = 0;
    for (auto _ : state) {
        std::size_t got = 0;
        if (batch == 1) {
            for (;;) {
                if (auto v = ring.try_pop()) {
                    benchmark::DoNotOptimize(v->seq);
                    got = 1;
                    break;
                }
                std::this_thread::yield();
            }
        } else {
            while ((got = ring.pop_batch(std::span(out))) == 0)
                std::this_thread::yield();
            benchmark::DoNotOptimize(out.data());
        }
        received += static_cast<std::int64_t>(got);
    }
    stop.store(true, std::memory_order_relaxed);
    producer.join();
    state.SetItemsProcessed(received);
}
BENCHMARK(BM_SpscRingStream)->Arg(1)->Arg(64)->UseRealTime();

namespace {

// Console output plus capture: each benchmark's items/s lands once in the
// RunMeta scalars, keyed by its base name, which the JSON run report then
// persists. A single run records itself; under --benchmark_repetitions the
// median aggregate is recorded and the repetitions are not, so each key
// holds one figure whether or not aggregates-only reporting is on.
class CaptureReporter : public benchmark::ConsoleReporter {
public:
    explicit CaptureReporter(telemetry::RunMeta& meta) : meta_(meta) {}

    void ReportRuns(const std::vector<Run>& runs) override {
        for (const Run& run : runs) {
            if (run.error_occurred) continue;
            const bool single = run.run_type == Run::RT_Iteration && run.repetitions <= 1;
            const bool median =
                run.run_type == Run::RT_Aggregate && run.aggregate_name == "median";
            const auto it = run.counters.find("items_per_second");
            if ((single || median) && it != run.counters.end())
                meta_.scalars.emplace_back(run.run_name.str() + ".items_per_second",
                                           it->second.value);
        }
        ConsoleReporter::ReportRuns(runs);
    }

private:
    telemetry::RunMeta& meta_;
};

}  // namespace

int main(int argc, char** argv) {
    telemetry::Registry::global().reset();

    telemetry::RunMeta meta;
    meta.bench = "bench_kernels";
    meta.labels.emplace_back("simd_tier", simd_tier_name(simd_tier()));
    meta.labels.emplace_back("batch_lanes", std::to_string(batch_lanes()));

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    CaptureReporter reporter(meta);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Headline derived figures: the batched-path speedups the perf work is
    // gated on (per-sample throughput ratios, lanes already normalized out).
    const double scalar11 = find_scalar(meta, "BM_SimplexDecode/11.items_per_second");
    const double batch11 = find_scalar(meta, "BM_SimplexDecodeBatch/11/8.items_per_second");
    if (scalar11 > 0.0 && batch11 > 0.0)
        meta.scalars.emplace_back("speedup.simplex_decode_order11", batch11 / scalar11);
    const double fwht16k = find_scalar(meta, "BM_Fwht/16384.items_per_second");
    const double fwht16k8 = find_scalar(meta, "BM_FwhtBatch/16384/8.items_per_second");
    if (fwht16k > 0.0 && fwht16k8 > 0.0)
        meta.scalars.emplace_back("speedup.fwht_16384", fwht16k8 / fwht16k);
    const double enh4 = find_scalar(meta, "BM_EnhancedDecode/4.items_per_second");
    const double enh4b = find_scalar(meta, "BM_EnhancedDecodeBatch/4/8.items_per_second");
    if (enh4 > 0.0 && enh4b > 0.0)
        meta.scalars.emplace_back("speedup.enhanced_decode_factor4", enh4b / enh4);
    // The CPU tile decode against its own per-channel oracle, in the gate
    // mode where it gains least: below 1.0 the tile path has lost its reason
    // to exist and the bench-smoke gate fails the run.
    const auto cpu_frame_speedup = [&](const std::string& mode) {
        const std::string name = "BM_CpuFrameDecode/" + mode;
        const double tiles = find_scalar(meta, name + "_tiles.items_per_second");
        const double scalar = find_scalar(meta, name + "_scalar.items_per_second");
        return tiles > 0.0 && scalar > 0.0 ? tiles / scalar : 0.0;
    };
    const double cpu_pulsed = cpu_frame_speedup("pulsed");
    const double cpu_stretched = cpu_frame_speedup("stretched");
    if (cpu_pulsed > 0.0 && cpu_stretched > 0.0) {
        const double speedup = std::min(cpu_pulsed, cpu_stretched);
        meta.scalars.emplace_back("speedup.cpu_frame_decode", speedup);
        if (speedup < 1.0)
            std::cout << "REGRESSION: speedup.cpu_frame_decode " << speedup
                      << " < 1.0 (CPU tile decode vs per-channel scalar oracle)\n";
    }
    const double ring_single = find_scalar(meta, "BM_SpscRing.items_per_second");
    const double ring_batch =
        find_scalar(meta, "BM_SpscRingBatch/64.items_per_second");
    if (ring_single > 0.0 && ring_batch > 0.0) {
        const double speedup = ring_batch / ring_single;
        meta.scalars.emplace_back("speedup.ring_batch", speedup);
        // Single-threaded protocol comparison, so the ratio is stable even
        // at smoke-test iteration counts: batch falling behind per-element
        // transport means the fast path lost its amortization and the
        // bench-smoke gate should fail the run.
        if (speedup < 1.0)
            std::cout << "REGRESSION: speedup.ring_batch " << speedup
                      << " < 1.0 (batch transport slower than per-record)\n";
    }
    const double stream1 =
        find_scalar(meta, "BM_SpscRingStream/1/real_time.items_per_second");
    const double stream64 =
        find_scalar(meta, "BM_SpscRingStream/64/real_time.items_per_second");
    if (stream1 > 0.0 && stream64 > 0.0)
        meta.scalars.emplace_back("speedup.ring_stream_batch",
                                  stream64 / stream1);

    const double crc_bytewise =
        find_scalar(meta, "BM_Crc32/bytewise.items_per_second");
    const double crc_dispatched =
        find_scalar(meta, "BM_Crc32/dispatched.items_per_second");
    if (crc_bytewise > 0.0 && crc_dispatched > 0.0) {
        const double speedup = crc_dispatched / crc_bytewise;
        meta.scalars.emplace_back("speedup.crc32", speedup);
        // The bar E19 set for the Hamming kernels: a fold that no longer
        // clears 4x over its byte-at-a-time oracle puts the checksum back
        // on the store's critical path.
        if (crc32_folds() && speedup < 4.0)
            std::cout << "REGRESSION: speedup.crc32 " << speedup
                      << " < 4.0 (dispatched CRC-32 vs bytewise oracle)\n";
    }

    const double encode_reference =
        find_scalar(meta, "BM_SpectrumEncode/reference.items_per_second");
    const double encode_bitsliced =
        find_scalar(meta, "BM_SpectrumEncode/bitsliced.items_per_second");
    if (encode_reference > 0.0 && encode_bitsliced > 0.0) {
        const double speedup = encode_bitsliced / encode_reference;
        meta.scalars.emplace_back("speedup.hd_encode", speedup);
        // Word-at-a-time arithmetic, so the margin holds on every tier: an
        // encode that no longer clears 2x over the per-bit vote puts the
        // bundle back on the paced frame's critical path.
        if (speedup < 2.0)
            std::cout << "REGRESSION: speedup.hd_encode " << speedup
                      << " < 2.0 (carry-save encode vs per-bit vote oracle)\n";
    }

    bench::write_report("BENCH_KERNELS.json", meta);
    return 0;
}
