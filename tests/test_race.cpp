// test_race.cpp — concurrency stress tests for the TSan gate.
//
// Each test drives one shared-state component hard enough that an ordering
// bug has a realistic chance of being interleaved into view, and asserts the
// sequential outcome so the suite is also meaningful without TSan. The
// check.sh `tsan` stage runs this binary (and the rest of the suite) under
// `-fsanitize=thread`, where any unsynchronized access aborts the run —
// these tests exist to give TSan the traffic patterns worth watching:
// capacity-boundary ring handoff (single-element and batch), grain-boundary
// parallel_for writes, exporters snapshotting metrics mid-flight, and
// streaming-engine start/stop — inline decode, one decode worker, and
// several workers emitting through the ordered turnstile.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "pipeline/fleet.hpp"
#include "pipeline/frame_io.hpp"
#include "pipeline/hybrid.hpp"
#include "pipeline/mpmc_queue.hpp"
#include "pipeline/spsc_ring.hpp"
#include "prs/oversampled.hpp"
#include "telemetry/registry.hpp"

namespace {

using htims::ThreadPool;
using htims::pipeline::SpscRing;

// ------------------------------------------------------------ SpscRing ----

// Push a known sequence through a ring at a given capacity while a consumer
// drains it; FIFO order and completeness prove neither side ever observed a
// slot out of turn. Tiny capacities keep the ring permanently at the
// full/empty boundaries where the acquire/release pairing actually matters.
void spsc_roundtrip(std::size_t capacity, int count) {
    SpscRing<int> ring(capacity);
    std::vector<int> received;
    received.reserve(static_cast<std::size_t>(count));

    std::thread consumer([&] {
        while (static_cast<int>(received.size()) < count) {
            if (auto v = ring.try_pop())
                received.push_back(*v);
            else
                std::this_thread::yield();
        }
    });
    for (int i = 0; i < count; ++i) {
        while (!ring.try_push(int{i})) std::this_thread::yield();
    }
    consumer.join();

    ASSERT_EQ(received.size(), static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
    EXPECT_TRUE(ring.empty());
}

TEST(RaceSpscRing, MinimalCapacityStaysFifoUnderContention) {
    spsc_roundtrip(2, 20000);
}

TEST(RaceSpscRing, NonPowerOfTwoCapacityStaysFifoUnderContention) {
    spsc_roundtrip(3, 20000);  // rounds up to 4
}

TEST(RaceSpscRing, LargeCapacityStaysFifoUnderContention) {
    spsc_roundtrip(256, 50000);
}

TEST(RaceSpscRing, BatchHandoffStaysFifoUnderContention) {
    // Same FIFO/completeness contract as spsc_roundtrip, but both sides move
    // whole batches, so TSan watches the one-release-store-per-batch publish
    // and the cached-peer-index refresh under real contention. The shallow
    // ring forces constant partial transfers at the full/empty boundaries.
    constexpr std::uint32_t kTotal = 100000;
    SpscRing<std::uint32_t> ring(8);
    std::thread producer([&] {
        std::vector<std::uint32_t> stage;
        std::uint32_t next = 0;
        std::size_t batch = 1;
        while (next < kTotal) {
            stage.clear();
            for (std::size_t i = 0; i < batch && next < kTotal; ++i)
                stage.push_back(next++);
            std::size_t off = 0;
            while (off < stage.size()) {
                const std::size_t n =
                    ring.push_batch(std::span(stage).subspan(off));
                if (n == 0) std::this_thread::yield();
                off += n;
            }
            batch = batch % 13 + 1;  // 1..13: straddles the capacity
        }
    });
    std::vector<std::uint32_t> out(6);
    std::uint32_t expect = 0;
    while (expect < kTotal) {
        const std::size_t got = ring.pop_batch(std::span(out));
        for (std::size_t i = 0; i < got; ++i) {
            ASSERT_EQ(out[i], expect);
            ++expect;
        }
        if (got == 0) std::this_thread::yield();
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(RaceSpscRing, MixedBatchAndSingleOpsStayFifoUnderContention) {
    // Alternating try_push/push_batch against pop_batch/try_pop keeps both
    // cached indices going stale and refreshing while the peer moves.
    constexpr int kTotal = 60000;
    SpscRing<int> ring(4);
    std::thread producer([&] {
        int next = 0;
        std::vector<int> stage(3);
        while (next < kTotal) {
            if (next % 2 == 0) {
                while (!ring.try_push(int{next})) std::this_thread::yield();
                ++next;
            } else {
                std::size_t n = 0;
                for (; n < stage.size() && next + static_cast<int>(n) < kTotal;
                     ++n)
                    stage[n] = next + static_cast<int>(n);
                std::size_t off = 0;
                while (off < n) {
                    const std::size_t pushed = ring.push_batch(
                        std::span(stage).subspan(off, n - off));
                    if (pushed == 0) std::this_thread::yield();
                    off += pushed;
                }
                next += static_cast<int>(n);
            }
        }
    });
    std::vector<int> out(5);
    int expect = 0;
    while (expect < kTotal) {
        if (expect % 3 == 0) {
            if (auto v = ring.try_pop()) {
                ASSERT_EQ(*v, expect);
                ++expect;
            } else {
                std::this_thread::yield();
            }
        } else {
            const std::size_t got = ring.pop_batch(std::span(out));
            for (std::size_t i = 0; i < got; ++i) {
                ASSERT_EQ(out[i], expect);
                ++expect;
            }
            if (got == 0) std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(RaceSpscRing, CapacityTwoMixedOpsWrapStaysFifoUnderContention) {
    // Full-speed mirror of the model-checked litmus units (src/check/
    // litmus.hpp ring_*): capacity 2 keeps every push/pop a wrap-boundary
    // event and every batch split across the wrap point, while alternating
    // single/batch ops on both sides churns the cached peer indices through
    // maximum staleness. The model checker proves every interleaving of the
    // small program; this runs the same protocol shape billions of ops deep
    // under TSan.
    constexpr int kTotal = 80000;
    SpscRing<int> ring(2);
    std::thread producer([&] {
        int next = 0;
        std::array<int, 2> stage{};
        while (next < kTotal) {
            if (next % 2 == 0) {
                while (!ring.try_push(int{next})) std::this_thread::yield();
                ++next;
            } else {
                std::size_t n = 0;
                for (; n < stage.size() && next + static_cast<int>(n) < kTotal;
                     ++n)
                    stage[n] = next + static_cast<int>(n);
                std::size_t off = 0;
                while (off < n) {
                    const std::size_t pushed = ring.push_batch(
                        std::span(stage).subspan(off, n - off));
                    if (pushed == 0) std::this_thread::yield();
                    off += pushed;
                }
                next += static_cast<int>(n);
            }
        }
    });
    std::array<int, 2> out{};
    int expect = 0;
    while (expect < kTotal) {
        if (expect % 3 == 0) {
            if (auto v = ring.try_pop()) {
                ASSERT_EQ(*v, expect);
                ++expect;
            } else {
                std::this_thread::yield();
            }
        } else {
            const std::size_t got = ring.pop_batch(std::span(out));
            for (std::size_t i = 0; i < got; ++i) {
                ASSERT_EQ(out[i], expect);
                ++expect;
            }
            if (got == 0) std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(RaceSpscRing, MoveOnlyPayloadHandsOffCleanly) {
    // unique_ptr payloads mean a duplicated or skipped slot shows up as a
    // leak/double-free under ASan and a race under TSan.
    SpscRing<std::unique_ptr<int>> ring(2);
    constexpr int kCount = 5000;
    std::int64_t sum = 0;
    std::thread consumer([&] {
        int seen = 0;
        while (seen < kCount) {
            if (auto v = ring.try_pop()) {
                sum += **v;
                ++seen;
            } else {
                std::this_thread::yield();
            }
        }
    });
    for (int i = 0; i < kCount; ++i) {
        auto p = std::make_unique<int>(i);
        while (!ring.try_push(std::move(p))) std::this_thread::yield();
    }
    consumer.join();
    EXPECT_EQ(sum, std::int64_t{kCount} * (kCount - 1) / 2);
}

// ---------------------------------------------------------- ThreadPool ----

TEST(RaceThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t kN = 10000;
    // Grain choices: auto-balance, unit grain (maximum chunk churn through
    // the atomic cursor), and a grain that does not divide kN (exercises the
    // final short chunk).
    for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
        std::vector<int> hits(kN, 0);
        pool.parallel_for(
            kN,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) ++hits[i];
            },
            grain);
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[i], 1) << "index " << i << " grain " << grain;
    }
}

TEST(RaceThreadPool, BackToBackParallelForsDoNotBleedAcrossJoins) {
    // parallel_for joins before returning, so iteration k's writes must be
    // visible to iteration k+1 without extra synchronization.
    ThreadPool pool(4);
    constexpr std::size_t kN = 4096;
    std::vector<std::uint64_t> v(kN, 0);
    for (int round = 0; round < 50; ++round) {
        pool.parallel_for(kN, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) ++v[i];
        });
    }
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(v[i], 50u);
}

TEST(RaceThreadPool, SubmitStormThenWaitIdleObservesEveryTask) {
    ThreadPool pool(4);
    std::atomic<int> done{0};
    constexpr int kTasks = 2000;
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(done.load(), kTasks);
}

TEST(RaceThreadPool, DestructorDrainsPendingTasks) {
    // The documented shutdown rule: destruction runs every already-submitted
    // task, then joins. Repeated construct/submit/destroy cycles give TSan
    // the begin-shutdown vs. worker-wakeup interleavings.
    std::atomic<int> done{0};
    constexpr int kCycles = 50;
    constexpr int kTasksPerCycle = 64;
    for (int c = 0; c < kCycles; ++c) {
        ThreadPool pool(3);
        for (int i = 0; i < kTasksPerCycle; ++i)
            pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(done.load(), kCycles * kTasksPerCycle);
}

// ----------------------------------------------------------- Telemetry ----

TEST(RaceTelemetry, ExporterSnapshotsWhileWritersAreHot) {
    // Writers hammer one counter, one gauge, one histogram and the span
    // trace while an exporter thread snapshots in a loop — the mid-run
    // export pattern. Snapshots taken mid-flight may see partial totals but
    // must never tear; the final quiescent snapshot must be exact.
    htims::telemetry::Registry reg(4096);
    auto& counter = reg.counter("race.counter");
    auto& gauge = reg.gauge("race.gauge");
    auto& histogram = reg.histogram("race.histogram");
    const std::uint32_t stage = reg.intern("race.stage");

    constexpr int kWriters = 4;
    constexpr int kOpsPerWriter = 5000;
    std::atomic<bool> stop_exporter{false};
    std::atomic<std::uint64_t> snapshots_taken{0};

    std::thread exporter([&] {
        while (!stop_exporter.load(std::memory_order_relaxed)) {
            const auto snap = reg.snapshot();
            // Every span visible mid-run must already be fully published.
            for (const auto& s : snap.spans) {
                ASSERT_EQ(s.stage, "race.stage");
                ASSERT_GE(s.end_ns, s.start_ns);
            }
            snapshots_taken.fetch_add(1, std::memory_order_relaxed);
        }
    });

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (int i = 0; i < kOpsPerWriter; ++i) {
                auto span = reg.span(stage);
                counter.add(1);
                gauge.set(w);
                histogram.observe(static_cast<std::uint64_t>(i));
            }
        });
    }
    for (auto& t : writers) t.join();
    stop_exporter.store(true, std::memory_order_relaxed);
    exporter.join();

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].value, std::int64_t{kWriters} * kOpsPerWriter);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].summary.count,
              static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
    const std::uint64_t recorded = snap.spans.size() + snap.spans_dropped;
    EXPECT_EQ(recorded, static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
    EXPECT_GE(snapshots_taken.load(), 1u);
}

TEST(RaceTelemetry, InterningRacesResolveToStableIds) {
    htims::telemetry::Registry reg(64);
    constexpr int kThreads = 4;
    std::vector<std::uint32_t> ids(static_cast<std::size_t>(kThreads) * 2);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ids[static_cast<std::size_t>(t) * 2] = reg.intern("race.shared");
            ids[static_cast<std::size_t>(t) * 2 + 1] =
                reg.intern(t % 2 == 0 ? "race.even" : "race.odd");
        });
    }
    for (auto& t : threads) t.join();
    for (std::size_t t = 1; t < kThreads; ++t)
        EXPECT_EQ(ids[t * 2], ids[0]) << "shared name must intern to one id";
    EXPECT_EQ(reg.span_name(ids[0]), "race.shared");
}

// ------------------------------------------------------------- Hybrid ----

// Orchestrator start/stop with a link so shallow that the producer is
// backpressured on nearly every record — the stall path and the shutdown
// join both run under load. Repeated runs exercise clean start/stop cycles.
TEST(RaceHybrid, BackpressuredFpgaRunsStartAndStopCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 2);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kFpga;
    cfg.frames = 3;
    cfg.averages = 2;
    cfg.ring_records = 2;  // minimal link depth: permanent backpressure
    for (int run = 0; run < 3; ++run) {
        htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
        const auto report = pipeline.run();
        EXPECT_EQ(report.frames, 3u);
        EXPECT_EQ(report.samples, 3u * 2u * layout.cells());
    }
}

TEST(RaceHybrid, BackpressuredCpuRunsStartAndStopCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 1);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kCpu;
    cfg.frames = 2;
    cfg.cpu_threads = 2;
    cfg.ring_records = 2;
    for (int run = 0; run < 2; ++run) {
        htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
        const auto report = pipeline.run();
        EXPECT_EQ(report.frames, 2u);
    }
}

// A decode worker adds a third thread and a buffer handoff to the
// start/stop picture: producer → ring → consumer → dispatch queue → worker,
// with each buffer handed back through the stream's turnstile once its
// frame is emitted. The shallow ring keeps the producer backpressured while
// buffers cycle at frame rate, so TSan watches every edge of the handoff
// under load, including worker join on shutdown.
TEST(RaceHybrid, OverlappedFpgaDecodeStartsAndStopsCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 2);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kFpga;
    cfg.frames = 3;
    cfg.averages = 2;
    cfg.ring_records = 2;
    cfg.decode_workers = 1;
    for (int run = 0; run < 3; ++run) {
        htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
        const auto report = pipeline.run();
        EXPECT_EQ(report.frames, 3u);
        EXPECT_EQ(report.samples, 3u * 2u * layout.cells());
    }
}

TEST(RaceHybrid, OverlappedCpuDecodeStartsAndStopsCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 1);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kCpu;
    cfg.frames = 3;
    cfg.cpu_threads = 2;
    cfg.ring_records = 2;
    cfg.decode_workers = 1;  // two buffers: consumer and worker alternate
    for (int run = 0; run < 3; ++run) {
        htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
        const auto report = pipeline.run();
        EXPECT_EQ(report.frames, 3u);
    }
}

// The consumer must wait for a buffer: with one worker a stream has two,
// and a sink that sleeps ~10 ms per frame keeps each frame's emission (and
// so its buffer) far behind the link. The consumer's wait_until is then on
// the hot path, and TSan watches the emitter's reads of a buffer against
// the consumer's refill of it.
TEST(RaceHybrid, ConsumerWaitsForABufferBehindASlowSink) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells());
    for (std::size_t i = 0; i < period.size(); ++i)
        period[i] = static_cast<std::uint32_t>(i % 11);
    const auto run = [&](std::size_t workers) {
        htims::pipeline::HybridConfig cfg;
        cfg.backend = htims::pipeline::BackendKind::kCpu;
        cfg.frames = 8;
        cfg.averages = 2;
        cfg.cpu_threads = 1;
        cfg.decode_workers = workers;
        std::vector<std::uint64_t> digests(cfg.frames, 0);
        cfg.frame_sink = [&digests](std::size_t index,
                                    const htims::pipeline::Frame& frame) {
            digests.at(index) = htims::pipeline::frame_digest(frame);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        };
        const auto report =
            htims::pipeline::HybridPipeline(seq, layout, period, cfg).run();
        EXPECT_EQ(report.frames, 8u);
        return std::pair(digests, report.decode_wait_seconds);
    };
    const auto [inline_digests, inline_wait] = run(0);
    const auto [pool_digests, pool_wait] = run(1);
    EXPECT_EQ(pool_digests, inline_digests);
    EXPECT_EQ(inline_wait, 0.0);  // inline decode never waits for a buffer
    // Frames 2..7 each wait for the emission two frames back, which sleeps
    // 10 ms: half of one such sleep proves the consumer blocked, rather
    // than timing a buffer that was already free.
    EXPECT_GT(pool_wait, 0.005);
}

// Multiple decode workers add the ordered-emission turnstile and per-worker
// backend instances to the shutdown picture: consumer → dispatch queue → N
// workers → turnstile → sink, each buffer handed back to the consumer by
// its frame's emission. Start/stop churn across runs gives TSan the
// spawn/join edges; the shallow ring plus one buffer per worker and one
// more keeps every handoff contended.
TEST(RaceHybrid, MultiWorkerFpgaDecodeChurnsCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 2);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kFpga;
    cfg.frames = 4;
    cfg.averages = 2;
    cfg.ring_records = 2;
    for (std::size_t workers : {std::size_t{2}, std::size_t{3}}) {
        cfg.decode_workers = workers;
        for (int run = 0; run < 3; ++run) {
            htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
            const auto report = pipeline.run();
            EXPECT_EQ(report.frames, 4u);
            EXPECT_EQ(report.samples, 4u * 2u * layout.cells());
        }
    }
}

// -------------------------------------------------------------- Fleet ----

// A fleet multiplies the thread census: per-stream producers and consumers,
// the shared MPMC dispatch queue, the worker pool, and per-stream turnstile
// and buffer traffic all start and stop together. These tests keep every
// one of those edges contended (shallow rings, a full dispatch queue) so
// the TSan stage watches the fleet's full protocol surface under load.

htims::pipeline::FleetStream race_fleet_stream(std::size_t si,
                                               std::size_t frames) {
    static const htims::prs::OversampledPrs seq(5, 1,
                                                htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    htims::pipeline::HybridConfig cfg;
    cfg.backend = (si % 2 == 0) ? htims::pipeline::BackendKind::kFpga
                                : htims::pipeline::BackendKind::kCpu;
    cfg.frames = frames;
    cfg.averages = 2;
    cfg.ring_records = 2;  // minimal link depth: permanent backpressure
    cfg.cpu_threads = 1;
    std::vector<std::uint32_t> period(
        layout.cells(), static_cast<std::uint32_t>(si + 1));
    return htims::pipeline::FleetStream{seq, layout, cfg, std::move(period),
                                        nullptr};
}

TEST(RaceFleet, StartStopChurnWithMixedBackends) {
    // Repeated whole-fleet start/stop cycles: every round spawns and joins
    // 2 threads per stream plus the shared pool, with all rings at minimal
    // depth so shutdown happens under live backpressure.
    for (int round = 0; round < 3; ++round) {
        std::vector<htims::pipeline::FleetStream> streams;
        for (std::size_t si = 0; si < 4; ++si)
            streams.push_back(race_fleet_stream(si, 3));
        htims::pipeline::FleetConfig fc;
        fc.decode_workers = 3;
        const auto report =
            htims::pipeline::FleetRunner(std::move(streams), fc).run();
        ASSERT_EQ(report.streams.size(), 4u);
        for (const auto& s : report.streams) EXPECT_EQ(s.report.frames, 3u);
    }
}

TEST(RaceFleet, DispatchQueueFullKeepsEveryStreamCompleting) {
    // Many CPU streams, one worker: each CPU consumer can queue every
    // buffer but the one it fills, and a single worker drains slowly, so
    // the queue runs near its fullest while the ticket recycle path runs
    // constantly. The queue must hold them all; a consumer that met a full
    // queue would stall.
    for (int round = 0; round < 3; ++round) {
        std::vector<htims::pipeline::FleetStream> streams;
        for (std::size_t si = 0; si < 4; ++si) {
            streams.push_back(race_fleet_stream(si, 6));
            streams.back().config.backend = htims::pipeline::BackendKind::kCpu;
        }
        htims::pipeline::FleetConfig fc;
        fc.decode_workers = 1;
        const auto report =
            htims::pipeline::FleetRunner(std::move(streams), fc).run();
        for (const auto& s : report.streams) EXPECT_EQ(s.report.frames, 6u);
    }
}

TEST(RaceFleet, SinkFailureShutsDownWithNonEmptyDispatchQueue) {
    // A frame sink that throws mid-run kills the decode pool while other
    // streams are still enqueuing: the abort must drain the dispatch queue,
    // release every blocked consumer, join every thread, and surface the
    // failure from run() — every round, without leaking a frame buffer.
    for (int round = 0; round < 3; ++round) {
        std::vector<htims::pipeline::FleetStream> streams;
        for (std::size_t si = 0; si < 3; ++si)
            streams.push_back(race_fleet_stream(si, 4));
        streams[1].config.frame_sink =
            [](std::size_t index, const htims::pipeline::Frame&) {
                if (index == 1) throw std::runtime_error("sink rejected frame");
            };
        htims::pipeline::FleetConfig fc;
        fc.decode_workers = 2;
        EXPECT_THROW(
            htims::pipeline::FleetRunner(std::move(streams), fc).run(),
            std::runtime_error)
            << "round " << round;
    }
}

// ---------------------------------------------------------- MpmcQueue ----

TEST(RaceMpmcQueue, ManyProducersManyConsumersDeliverExactlyOnce) {
    // 4 producers × 2 consumers through a 4-slot queue: every slot is
    // permanently contested, so ticket claims, payload publishes, and slot
    // recycles interleave at maximum density. Exactly-once delivery is
    // checked by total sum and per-producer item counts.
    constexpr std::size_t kProducers = 4;
    constexpr std::size_t kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 20000;
    htims::pipeline::MpmcQueue<std::uint64_t> queue(4);
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) {
        threads.emplace_back([&queue, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                // Tag items with the producer id in the top bits.
                std::uint64_t item = (p << 60) | i;
                while (!queue.try_push(std::move(item)))
                    std::this_thread::yield();
            }
        });
    }
    constexpr std::uint64_t kTotal = kProducers * kPerProducer;
    for (std::size_t c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            while (consumed.load(std::memory_order_relaxed) < kTotal) {
                if (auto v = queue.try_pop()) {
                    sum.fetch_add(*v & ~(std::uint64_t{0xF} << 60),
                                  std::memory_order_relaxed);
                    consumed.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(consumed.load(), kTotal);
    EXPECT_EQ(sum.load(),
              kProducers * (kPerProducer * (kPerProducer - 1) / 2));
    EXPECT_TRUE(queue.empty());
}

TEST(RaceMpmcQueue, DestructionWithQueuedItemsReleasesThem) {
    // Leftover payloads at destruction must be destroyed exactly once —
    // visible as a leak (ASan) or double-free if the slot accounting between
    // tickets and indices disagrees after heavy wrapping.
    for (int round = 0; round < 100; ++round) {
        htims::pipeline::MpmcQueue<std::shared_ptr<int>> queue(8);
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(queue.try_push(std::make_shared<int>(i)));
        (void)queue.try_pop();  // leave 4 queued across the wrap point
    }
}

TEST(RaceHybrid, MultiWorkerCpuDecodeChurnsCleanly) {
    const htims::prs::OversampledPrs seq(5, 1, htims::prs::GateMode::kPulsed);
    const htims::pipeline::FrameLayout layout{
        .drift_bins = seq.length(), .mz_bins = 8, .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 1);
    htims::pipeline::HybridConfig cfg;
    cfg.backend = htims::pipeline::BackendKind::kCpu;
    cfg.frames = 4;
    cfg.cpu_threads = 2;
    cfg.ring_records = 2;
    for (std::size_t workers : {std::size_t{2}, std::size_t{3}}) {
        cfg.decode_workers = workers;
        for (int run = 0; run < 3; ++run) {
            htims::pipeline::HybridPipeline pipeline(seq, layout, period, cfg);
            const auto report = pipeline.run();
            EXPECT_EQ(report.frames, 4u);
        }
    }
}

}  // namespace
