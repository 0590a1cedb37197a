#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "analysis/encoder.hpp"
#include "analysis/library.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/mpmc_queue.hpp"
#include "pipeline/spsc_ring.hpp"
#include "pipeline/turnstile.hpp"
#include "store/frame_store.hpp"
#include "store/replay.hpp"

namespace perfbench {

namespace analysis = htims::analysis;
namespace store = htims::store;

namespace {

/// Same shape as the pipeline's ring element: a view of one record plus
/// its sequence tag.
struct RecordView {
    const std::uint32_t* data = nullptr;
    std::size_t size = 0;
    std::uint64_t seq = 0;
    bool end = false;
};

constexpr std::size_t kRingDepth = 256;  // HybridConfig::ring_records default
constexpr std::size_t kBatch = 32;       // HybridConfig::batch_records default

double elapsed_s(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

/// Run `body` (one timed sample, returns a value) until `budget_s` has
/// passed and at least `min_samples` ran; returns the median.
template <typename Body>
double median_of(Body&& body, double budget_s, std::size_t min_samples) {
    std::vector<double> samples;
    const std::uint64_t t0 = now_ns();
    while (samples.size() < min_samples || elapsed_s(t0) < budget_s)
        samples.push_back(body());
    return median(std::move(samples));
}

/// Records/s through a cross-thread SpscRing at the pipeline's default depth
/// and batch: one producer thread publishing batches, this thread popping.
double ring_pass(std::size_t record_len) {
    constexpr std::uint64_t kRecords = 1 << 20;
    std::vector<std::uint32_t> row(record_len, 1);
    pipeline::SpscRing<RecordView> ring(kRingDepth);
    const std::uint64_t t0 = now_ns();
    std::thread producer([&] {
        std::vector<RecordView> stage(kBatch);
        for (std::uint64_t seq = 0; seq < kRecords; seq += kBatch) {
            for (std::size_t j = 0; j < kBatch; ++j)
                stage[j] = RecordView{row.data(), row.size(), seq + j, false};
            std::size_t off = 0;
            while (off < kBatch) {
                const std::size_t n = ring.push_batch(std::span(stage).subspan(off));
                if (n == 0) std::this_thread::yield();
                off += n;
            }
        }
    });
    std::vector<RecordView> popped(kBatch);
    std::uint64_t got = 0, checksum = 0;
    while (got < kRecords) {
        const std::size_t n = ring.pop_batch(std::span(popped));
        if (n == 0) std::this_thread::yield();
        for (std::size_t j = 0; j < n; ++j) checksum += popped[j].seq;
        got += n;
    }
    producer.join();
    const double s = elapsed_s(t0);
    if (checksum != kRecords * (kRecords - 1) / 2) return 0.0;
    return static_cast<double>(kRecords) / s;
}

/// Items/s through MpmcQueue: one producer (this thread), two workers.
double dispatch_pass() {
    constexpr std::uint64_t kItems = 1 << 19;
    pipeline::MpmcQueue<std::uint64_t> queue(64);
    std::atomic<std::uint64_t> taken{0};
    std::atomic<std::uint64_t> sum{0};
    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w)
        workers.emplace_back([&] {
            std::uint64_t local = 0;
            while (taken.load(std::memory_order_relaxed) < kItems) {
                if (auto v = queue.try_pop()) {
                    local += *v;
                    taken.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
            sum.fetch_add(local);
        });
    for (std::uint64_t i = 0; i < kItems; ++i) {
        std::uint64_t v = i;
        while (!queue.try_push(std::move(v))) std::this_thread::yield();
    }
    for (auto& w : workers) w.join();
    const double s = elapsed_s(t0);
    if (sum.load() != kItems * (kItems - 1) / 2) return 0.0;
    return static_cast<double>(kItems) / s;
}

/// Turns/s through OrderTurnstile with two workers taking alternate indices.
double emission_pass() {
    constexpr std::size_t kTurns = 1 << 16;
    pipeline::OrderTurnstile<> turnstile;
    std::vector<std::size_t> order;
    order.reserve(kTurns);
    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < 2; ++w)
        workers.emplace_back([&, w] {
            for (std::size_t i = w; i < kTurns; i += 2) {
                if (!turnstile.wait_turn(i)) return;
                order.push_back(i);
                turnstile.advance();
            }
        });
    for (auto& w : workers) w.join();
    const double s = elapsed_s(t0);
    for (std::size_t i = 0; i < order.size(); ++i)
        if (order[i] != i) return 0.0;
    return order.size() == kTurns ? static_cast<double>(kTurns) / s : 0.0;
}

pipeline::Frame accumulated(const Inputs& in, const Shape& shape) {
    pipeline::Frame accum(in.layout);
    const auto& period = in.templates.front();
    for (std::size_t a = 0; a < shape.averages; ++a)
        for (std::size_t i = 0; i < period.size(); ++i)
            accum.data()[i] += static_cast<double>(period[i]);
    return accum;
}

}  // namespace

AlonePasses run_alone_passes(const Shape& shape, const Inputs& in,
                             const std::string& work_dir) {
    AlonePasses out;
    const auto& layout = in.layout;
    const double samples_per_frame =
        static_cast<double>(shape.averages * layout.cells());
    const double frame_mb = static_cast<double>(layout.cells() * sizeof(double)) / 1e6;
    const auto& period = in.templates.front();
    const auto add = [&out](const std::string& name, double value, const char* unit) {
        out.metrics.push_back(Metric{name, value, unit});
    };

    // Ring: one record per element, the pipeline's depth and batch.
    const double ring_rps = median_of([&] { return ring_pass(layout.mz_bins); }, 0.2, 3);
    add("ring.alone_mrecords_s", ring_rps / 1e6, "Mrecords/s");

    // FPGA capture: push_samples record by record, one frame's averages.
    const double fpga_acc_sps = median_of(
        [&] {
            pipeline::FpgaPipeline fpga(in.sequence, layout, pipeline::FpgaConfig{});
            fpga.begin_frame();
            const std::uint64_t t0 = now_ns();
            for (std::size_t a = 0; a < shape.averages; ++a)
                for (std::size_t d = 0; d < layout.drift_bins; ++d)
                    fpga.push_samples(std::span(period).subspan(d * layout.mz_bins,
                                                                layout.mz_bins));
            return samples_per_frame / elapsed_s(t0);
        },
        0.2, 3);
    add("accumulate.fpga_alone_msamples_s", fpga_acc_sps / 1e6, "Msamples/s");

    const double dispatch_ops = median_of(dispatch_pass, 0.2, 3);
    add("dispatch.alone_mops_s", dispatch_ops / 1e6, "Mops/s");
    const double turns = median_of(emission_pass, 0.2, 3);
    add("emission.alone_mturns_s", turns / 1e6, "Mturns/s");

    // CPU decode at the workload's decode threads, and on one thread.
    const pipeline::Frame accum = accumulated(in, shape);
    pipeline::Frame decoded;
    const auto cpu_decode_ms = [&](std::size_t threads) {
        pipeline::CpuBackend cpu(in.sequence, layout, threads);
        decoded = cpu.deconvolve(accum);  // warm the pool and scratch
        return median_of(
            [&] {
                const std::uint64_t t0 = now_ns();
                decoded = cpu.deconvolve(accum);
                return elapsed_s(t0) * 1e3;
            },
            0.3, 5);
    };
    const std::size_t decode_threads =
        shape.kind == WorkloadKind::kLive ? shape.cpu_threads : 1;
    const double cpu_ms = cpu_decode_ms(decode_threads);
    add("decode.cpu_alone_ms_p50", cpu_ms, "ms");
    add("decode.cpu_alone_1t_ms_p50",
        decode_threads == 1 ? cpu_ms : cpu_decode_ms(1), "ms");

    // FPGA finalize of a captured frame.
    double fpga_ms = 0.0;
    {
        pipeline::FpgaPipeline fpga(in.sequence, layout, pipeline::FpgaConfig{});
        pipeline::FpgaCapture capture;
        fpga.begin_frame();
        for (std::size_t a = 0; a < shape.averages; ++a) fpga.push_samples(period);
        capture = fpga.capture_frame();
        fpga_ms = median_of(
            [&] {
                const std::uint64_t t0 = now_ns();
                const pipeline::Frame f = fpga.finalize_frame(capture);
                const double ms = elapsed_s(t0) * 1e3;
                return f.data().empty() ? 0.0 : ms;
            },
            0.3, 5);
    }
    add("decode.fpga_alone_ms_p50", fpga_ms, "ms");

    // Analysis layers on the decoded frame.
    analysis::SpectrumEncoderConfig ecfg;
    ecfg.dim = shape.dim;
    ecfg.mz_bins = shape.mz_bins;
    const analysis::SpectrumEncoder encoder(ecfg);
    const analysis::SpectralLibrary library(encoder, in.mixture);
    std::vector<double> profile;
    const double profile_ms = median_of(
        [&] {
            const std::uint64_t t0 = now_ns();
            profile = analysis::mz_intensity_profile(decoded);
            return elapsed_s(t0) * 1e3;
        },
        0.2, 5);
    add("analysis.profile_alone_ms", profile_ms, "ms");
    analysis::Hypervector hv = encoder.encode(profile);
    const double encode_us = median_of(
        [&] {
            const std::uint64_t t0 = now_ns();
            hv = encoder.encode(profile);
            return elapsed_s(t0) * 1e6;
        },
        0.1, 20);
    add("analysis.encode_alone_us", encode_us, "us");
    const double search_us = median_of(
        [&] {
            const std::uint64_t t0 = now_ns();
            (void)library.nearest(hv);
            return elapsed_s(t0) * 1e6;
        },
        0.1, 20);
    add("analysis.search_alone_us", search_us, "us");

    // Store: append decoded frames into a scratch archive (finalize off the
    // clock), then serve an archive of the workload's input frames through
    // a windowed ReplaySource.
    const std::string scratch = work_dir + "/alone-store.htms";
    const std::size_t store_frames =
        std::max<std::size_t>(4, static_cast<std::size_t>(48.0 / frame_mb));
    double append_s = 0.0;
    {
        store::FrameStoreWriter writer(scratch, store::StoreMeta{layout, shape.averages});
        for (std::size_t f = 0; f < store_frames; ++f) {
            const std::uint64_t t0 = now_ns();
            writer.append(f % 2 == 0 ? decoded : accum, f);
            append_s += elapsed_s(t0);
        }
        writer.finalize();
    }
    std::filesystem::remove(scratch);
    const double append_mb_s = static_cast<double>(store_frames) * frame_mb / append_s;
    add("store.append_alone_mb_s", append_mb_s, "MB/s");

    const std::string source_archive = work_dir + "/alone-source.htms";
    {
        store::FrameStoreWriter writer(source_archive,
                                       store::StoreMeta{layout, shape.averages});
        for (std::size_t f = 0; f < std::min<std::size_t>(store_frames, 8); ++f)
            writer.append(store::period_to_frame(layout, in.templates[f % in.templates.size()]), f);
        writer.finalize();
    }
    double source_rps = 0.0;
    {
        const store::FrameStoreReader reader(source_archive);
        store::ReplayConfig rcfg;
        rcfg.resident_cap_bytes = 0;  // windowed: convert frames as they slide in
        source_rps = median_of(
            [&] {
                store::ReplaySource source(reader, rcfg);
                source.set_window(kRingDepth + 2 * kBatch + 2);
                const std::uint64_t total = source.total_records();
                const std::uint64_t t0 = now_ns();
                std::uint64_t seq = 0;
                while (seq < total) {
                    const auto rows = source.record_block(seq, kBatch);
                    seq += rows.size() / layout.mz_bins;
                }
                return static_cast<double>(total) / elapsed_s(t0);
            },
            0.2, 3);
    }
    std::filesystem::remove(source_archive);
    add("store.source_alone_mrecords_s", source_rps / 1e6, "Mrecords/s");

    // The layers each frame passes through one after another on this
    // workload, as sample rates. CPU accumulation is a lambda inside the
    // orchestrators with no public call, so it has no alone figure; it
    // shows only inside decode.close_to_emit_ms_p50 and producer stall.
    const double mz = static_cast<double>(layout.mz_bins);
    const double analysis_ms = profile_ms + (encode_us + search_us) * 1e-3;
    out.serial.push_back({"ring", ring_rps * mz / 1e6});
    switch (shape.kind) {
        case WorkloadKind::kLive:
            out.serial.push_back({"decode.cpu", samples_per_frame / cpu_ms * 1e-3});
            out.serial.push_back({"analysis", samples_per_frame / analysis_ms * 1e-3});
            break;
        case WorkloadKind::kPaced:
            out.serial.push_back({"dispatch", dispatch_ops * samples_per_frame / 1e6});
            out.serial.push_back({"emission", turns * samples_per_frame / 1e6});
            out.serial.push_back(
                {"decode.cpu x" + std::to_string(shape.decode_workers),
                 static_cast<double>(shape.decode_workers) * samples_per_frame /
                     cpu_ms * 1e-3});
            out.serial.push_back({"analysis", samples_per_frame / analysis_ms * 1e-3});
            break;
        case WorkloadKind::kReplay:
            out.serial.push_back({"store.source", source_rps * mz / 1e6});
            out.serial.push_back({"accumulate.fpga", fpga_acc_sps / 1e6});
            out.serial.push_back({"decode.fpga", samples_per_frame / fpga_ms * 1e-3});
            out.serial.push_back(
                {"store.append", append_mb_s / frame_mb * samples_per_frame / 1e6});
            break;
    }
    if (shape.backend == pipeline::BackendKind::kCpu)
        out.notes.push_back(
            "CPU accumulate has no public call; it is inside "
            "decode.close_to_emit_ms_p50 and ring.producer_stall_ms");
    return out;
}

}  // namespace perfbench
