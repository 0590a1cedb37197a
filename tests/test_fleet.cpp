// Fleet-mode tests: the fleet-parity digest matrix and its regressions.
//
// The tentpole claim, pinned end to end: every stream of an N-stream fleet
// produces frames bit-identical to the same configuration run solo through
// HybridPipeline — across mixed CPU/FPGA backends, mixed live/replay record
// sources, shared-pool worker counts {1, 2, 4} and inline decode (0), and
// per-stream fault plans (a faulted stream degrades exactly as its solo
// twin; its neighbours' digests and counters are untouched).
//
// Satellite regressions ride along: two ordered-emission turnstiles driven
// by one shared worker pool never cross-release frames, and the bounded
// MPMC dispatch queue honours its FIFO/full/empty contract single- and
// multi-threaded. (The exhaustive interleaving coverage for both lives in
// the model stage — src/check/litmus.hpp.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "pipeline/fleet.hpp"
#include "pipeline/frame_io.hpp"
#include "pipeline/hybrid.hpp"
#include "pipeline/mpmc_queue.hpp"
#include "pipeline/turnstile.hpp"
#include "prs/oversampled.hpp"
#include "store/frame_store.hpp"
#include "store/replay.hpp"
#include "telemetry/report.hpp"

namespace htims::pipeline {
namespace {

// ------------------------------------------------ the stream spec family ----
//
// Stream si of a fleet gets a deterministic spec that varies along the
// matrix axes the issue names:
//   backend: even si -> FPGA, odd si -> CPU
//   source:  (si / 2) odd -> frame-store replay, else live period template
// plus a per-stream period template (seeded by si) so any cross-stream
// frame mixup changes digests instead of cancelling out.

constexpr std::size_t kFleetFrames = 3;
constexpr std::size_t kFleetAverages = 2;
constexpr std::size_t kMaxStreams = 8;

const prs::OversampledPrs& fleet_sequence() {
    static const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    return seq;
}

FrameLayout fleet_layout() {
    return FrameLayout{.drift_bins = fleet_sequence().length(),
                       .mz_bins = 8,
                       .drift_bin_width_s = 1e-4};
}

std::vector<std::uint32_t> fleet_period(std::size_t si) {
    std::vector<std::uint32_t> period(fleet_layout().cells());
    Rng rng(101 + si);
    for (auto& s : period) s = static_cast<std::uint32_t>(rng.below(500));
    return period;
}

HybridConfig fleet_stream_config(std::size_t si) {
    HybridConfig cfg;
    cfg.backend = (si % 2 == 0) ? BackendKind::kFpga : BackendKind::kCpu;
    cfg.frames = kFleetFrames;
    cfg.averages = kFleetAverages;
    cfg.ring_records = 64;
    cfg.cpu_threads = 1;
    return cfg;
}

bool is_replay_stream(std::size_t si) { return (si / 2) % 2 == 1; }

/// Unique-per-test scratch path (ctest runs tests in parallel); removed on
/// scope exit.
struct ScratchFile {
    explicit ScratchFile(const std::string& name) {
        const auto* ti = ::testing::UnitTest::GetInstance()->current_test_info();
        std::string tag =
            std::string(ti->test_suite_name()) + "_" + ti->name() + "_" + name;
        for (auto& c : tag)
            if (c == '/') c = '_';
        path = ::testing::TempDir() + tag;
    }
    ~ScratchFile() { std::remove(path.c_str()); }
    std::string path;
};

/// Owns the recorded stores + readers that replay-backed streams play from.
/// One store per replay spec index, recorded once; each run gets a fresh
/// ReplaySource (sources are single-producer state, readers are shared).
class ReplayFixture {
public:
    explicit ReplayFixture(std::size_t max_streams) {
        for (std::size_t si = 0; si < max_streams; ++si) {
            if (!is_replay_stream(si)) {
                scratch_.emplace_back();
                readers_.emplace_back();
                continue;
            }
            scratch_.push_back(std::make_unique<ScratchFile>(
                "fleet_s" + std::to_string(si) + ".htstore"));
            const auto layout = fleet_layout();
            store::StoreMeta meta{layout, kFleetAverages};
            store::FrameStoreWriter writer(scratch_.back()->path, meta);
            const Frame streamed =
                store::period_to_frame(layout, fleet_period(si));
            for (std::uint64_t f = 0; f < kFleetFrames; ++f)
                writer.append(streamed, f);
            writer.finalize();
            readers_.push_back(std::make_unique<store::FrameStoreReader>(
                scratch_.back()->path));
        }
    }

    std::unique_ptr<store::ReplaySource> open(std::size_t si) const {
        return std::make_unique<store::ReplaySource>(*readers_.at(si),
                                                     store::ReplayConfig{});
    }

private:
    std::vector<std::unique_ptr<ScratchFile>> scratch_;
    std::vector<std::unique_ptr<store::FrameStoreReader>> readers_;
};

/// Solo reference: the same spec run through HybridPipeline with inline
/// decode, one digest per frame.
std::vector<std::uint64_t> solo_digests(std::size_t si,
                                        const ReplayFixture& replays) {
    std::vector<std::uint64_t> digests(kFleetFrames, 0);
    auto cfg = fleet_stream_config(si);
    cfg.frame_sink = [&digests](std::size_t index, const Frame& frame) {
        digests.at(index) = frame_digest(frame);
    };
    if (is_replay_stream(si)) {
        const auto source = replays.open(si);
        HybridPipeline solo(fleet_sequence(), fleet_layout(), *source, cfg);
        (void)solo.run();
    } else {
        HybridPipeline solo(fleet_sequence(), fleet_layout(), fleet_period(si),
                            cfg);
        (void)solo.run();
    }
    return digests;
}

/// One fleet run over specs [0, n): per-stream digests plus the report.
struct FleetRun {
    std::vector<std::vector<std::uint64_t>> digests;
    FleetReport report;
};

FleetRun run_fleet(std::size_t n, std::size_t workers,
                   const ReplayFixture& replays) {
    FleetRun run;
    run.digests.assign(n, std::vector<std::uint64_t>(kFleetFrames, 0));
    std::vector<std::unique_ptr<store::ReplaySource>> sources;
    std::vector<FleetStream> streams;
    for (std::size_t si = 0; si < n; ++si) {
        auto cfg = fleet_stream_config(si);
        auto* slot = &run.digests[si];
        cfg.frame_sink = [slot](std::size_t index, const Frame& frame) {
            slot->at(index) = frame_digest(frame);
        };
        RecordSource* source = nullptr;
        std::vector<std::uint32_t> period;
        if (is_replay_stream(si)) {
            sources.push_back(replays.open(si));
            source = sources.back().get();
        } else {
            period = fleet_period(si);
        }
        streams.push_back(FleetStream{fleet_sequence(), fleet_layout(),
                                      std::move(cfg), std::move(period),
                                      source});
    }
    FleetConfig fc;
    fc.decode_workers = workers;
    FleetRunner runner(std::move(streams), fc);
    EXPECT_EQ(runner.stream_count(), n);
    run.report = runner.run();
    return run;
}

// ------------------------------------------------------ the parity matrix ----

TEST(FleetParity, DigestMatrixMatchesSoloRuns) {
    const ReplayFixture replays(kMaxStreams);
    std::vector<std::vector<std::uint64_t>> solo(kMaxStreams);
    for (std::size_t si = 0; si < kMaxStreams; ++si)
        solo[si] = solo_digests(si, replays);

    for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                          std::size_t{8}}) {
        for (std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{4}}) {
            const auto run = run_fleet(n, workers, replays);
            ASSERT_EQ(run.report.streams.size(), n)
                << "n=" << n << " workers=" << workers;
            for (std::size_t si = 0; si < n; ++si) {
                EXPECT_EQ(run.digests[si], solo[si])
                    << "stream " << si << " of n=" << n
                    << " workers=" << workers;
                const auto& sr = run.report.streams[si];
                EXPECT_EQ(sr.report.frames, kFleetFrames);
                EXPECT_EQ(sr.report.records_dropped, 0u);
                EXPECT_EQ(sr.report.frames_degraded, 0u);
                EXPECT_EQ(frame_digest(sr.report.last_frame),
                          run.digests[si].back());
                EXPECT_EQ(sr.frame_latency.count, kFleetFrames);
            }
            EXPECT_EQ(run.report.frames, n * kFleetFrames);
        }
    }
}

TEST(FleetParity, FaultedStreamDegradesAloneAndDeterministically) {
    // Stream 0 runs under a forced-overrun fault plan with a drop policy;
    // streams 1 and 2 are clean. The faulted stream must (a) actually
    // degrade, (b) match its solo twin bit for bit (fault draws are
    // per-stream deterministic), and neighbours must stay pristine.
    const std::string plan = "seed=21,link.overrun@0:3:7";
    const auto faulted_config = [&](std::vector<std::uint64_t>* digests,
                                    fault::FaultInjector* injector) {
        auto cfg = fleet_stream_config(1);  // CPU backend
        // Deeper than the whole 186-record stream: the ring never fills, so
        // the drops are exactly the plan's forced overruns whatever the
        // consumer's timing (a shallow ring also drops wherever the
        // consumer lags, which no two runs need to share).
        cfg.ring_records = 256;
        cfg.ring_policy = RingFullPolicy::kDropNewest;
        cfg.faults = injector;
        cfg.frame_sink = [digests](std::size_t index, const Frame& frame) {
            digests->at(index) = frame_digest(frame);
        };
        return cfg;
    };

    std::vector<std::uint64_t> solo(kFleetFrames, 0);
    HybridReport solo_report;
    {
        fault::FaultInjector injector(fault::FaultPlan::parse(plan));
        HybridPipeline pipeline(fleet_sequence(), fleet_layout(),
                                fleet_period(1), faulted_config(&solo, &injector));
        solo_report = pipeline.run();
    }
    ASSERT_GT(solo_report.records_dropped, 0u);
    ASSERT_GT(solo_report.frames_degraded, 0u);

    const ReplayFixture replays(0);
    std::vector<std::vector<std::uint64_t>> digests(
        3, std::vector<std::uint64_t>(kFleetFrames, 0));
    std::vector<std::uint64_t> clean1 = solo_digests(1, replays);
    fault::FaultInjector injector(fault::FaultPlan::parse(plan));
    std::vector<FleetStream> streams;
    streams.push_back(FleetStream{fleet_sequence(), fleet_layout(),
                                  faulted_config(&digests[0], &injector),
                                  fleet_period(1), nullptr});
    for (std::size_t k = 1; k < 3; ++k) {
        auto cfg = fleet_stream_config(1);
        auto* slot = &digests[k];
        cfg.frame_sink = [slot](std::size_t index, const Frame& frame) {
            slot->at(index) = frame_digest(frame);
        };
        streams.push_back(FleetStream{fleet_sequence(), fleet_layout(),
                                      std::move(cfg), fleet_period(1), nullptr});
    }
    const auto report = FleetRunner(std::move(streams), FleetConfig{2}).run();

    EXPECT_EQ(digests[0], solo);
    EXPECT_EQ(report.streams[0].report.records_dropped,
              solo_report.records_dropped);
    EXPECT_EQ(report.streams[0].report.frames_degraded,
              solo_report.frames_degraded);
    for (std::size_t k = 1; k < 3; ++k) {
        EXPECT_EQ(digests[k], clean1) << "clean stream " << k;
        EXPECT_EQ(report.streams[k].report.records_dropped, 0u);
        EXPECT_EQ(report.streams[k].report.frames_degraded, 0u);
    }
    EXPECT_EQ(report.records_dropped, solo_report.records_dropped);
    EXPECT_EQ(report.frames_degraded, solo_report.frames_degraded);
}

// ------------------------------------------------- report + config gates ----

TEST(FleetConfigCheck, BadStreamIsNamedInTheError) {
    std::vector<FleetStream> streams;
    for (std::size_t si = 0; si < 2; ++si)
        streams.push_back(FleetStream{fleet_sequence(), fleet_layout(),
                                      fleet_stream_config(si), fleet_period(si),
                                      nullptr});
    streams[1].config.frames = 0;
    try {
        FleetRunner runner(std::move(streams));
        FAIL() << "zero-frame stream accepted";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find("fleet stream 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FleetConfigCheck, StreamDecodeWorkersRejected) {
    // FleetConfig{0} decodes inline; the pool size belongs to FleetConfig,
    // so a stream that asks for its own decode workers is rejected.
    const auto one_stream = [](std::size_t stream_workers) {
        std::vector<FleetStream> streams;
        streams.push_back(FleetStream{fleet_sequence(), fleet_layout(),
                                      fleet_stream_config(0), fleet_period(0),
                                      nullptr});
        streams[0].config.decode_workers = stream_workers;
        return streams;
    };
    EXPECT_NO_THROW(FleetRunner(one_stream(0), FleetConfig{0}));
    EXPECT_THROW(FleetRunner(one_stream(1), FleetConfig{0}), ConfigError);
    EXPECT_THROW(FleetRunner(one_stream(2), FleetConfig{2}), ConfigError);
}

TEST(FleetReportJson, CarriesAggregateAndPerStreamLatency) {
    const ReplayFixture replays(2);
    const auto run = run_fleet(2, 2, replays);
    EXPECT_EQ(run.report.frame_latency.count, 2 * kFleetFrames);
    EXPECT_GT(run.report.sample_rate, 0.0);
    EXPECT_EQ(run.report.samples,
              2 * kFleetFrames * kFleetAverages * fleet_layout().cells());

    // The fleet report rides in the one run-report schema as scalars: the
    // aggregate figures, then each stream's, each latency as 7 figures.
    telemetry::RunMeta meta;
    append_fleet_scalars(meta, run.report, "fleet");
    std::vector<std::string> expected;
    const auto add_keys = [&expected](const std::string& key,
                                      std::initializer_list<const char*> fields) {
        for (const char* f : fields) expected.push_back(key + "." + f);
        for (const char* f : {"count", "min", "max", "mean", "p50", "p95", "p99"})
            expected.push_back(key + ".frame_latency_ns." + f);
    };
    add_keys("fleet", {"streams", "wall_seconds", "frames", "samples",
                       "sample_rate", "records_dropped", "frames_degraded"});
    for (const std::string stream : {"fleet.stream0", "fleet.stream1"})
        add_keys(stream, {"frames", "samples", "wall_seconds", "sample_rate",
                          "records_dropped", "frames_degraded", "cpu_task_retries",
                          "producer_stall_seconds", "consumer_idle_seconds",
                          "decode_wait_seconds"});
    std::vector<std::string> keys;
    std::map<std::string, double> value;
    for (const auto& [key, v] : meta.scalars) {
        keys.push_back(key);
        value[key] = v;
    }
    EXPECT_EQ(keys, expected);
    EXPECT_EQ(value["fleet.streams"], 2.0);
    EXPECT_EQ(value["fleet.frames"], static_cast<double>(2 * kFleetFrames));
    EXPECT_EQ(value["fleet.frame_latency_ns.count"],
              static_cast<double>(2 * kFleetFrames));
    EXPECT_EQ(value["fleet.frame_latency_ns.p99"], run.report.frame_latency.p99);
    EXPECT_EQ(value["fleet.stream1.samples"],
              static_cast<double>(run.report.streams[1].report.samples));
    EXPECT_EQ(value["fleet.stream1.frame_latency_ns.count"],
              static_cast<double>(kFleetFrames));
}

// --------------------------------------------------- turnstile regression ----

TEST(TurnstileFleet, TwoTurnstilesOnSharedPoolNeverCrossRelease) {
    // Regression for the single-stream assumption: a pool of workers
    // serving two streams' jobs must release each stream's frames in that
    // stream's own order — stream B's progress can never unblock stream A.
    constexpr std::size_t kFramesPerStream = 64;
    constexpr std::size_t kWorkers = 4;
    for (int round = 0; round < 8; ++round) {
        OrderTurnstile<> turnstiles[2];
        std::atomic<std::size_t> emitted[2] = {{0}, {0}};
        // Interleaved job feed: (stream, index) pairs claimed by ticket.
        std::atomic<std::size_t> next{0};
        std::atomic<bool> ordered{true};
        std::vector<std::thread> pool;
        pool.reserve(kWorkers);
        for (std::size_t w = 0; w < kWorkers; ++w) {
            pool.emplace_back([&] {
                for (;;) {
                    const std::size_t ticket = next.fetch_add(1);
                    if (ticket >= 2 * kFramesPerStream) return;
                    const std::size_t stream = ticket % 2;
                    const std::size_t index = ticket / 2;
                    turnstiles[stream].wait_turn(index);
                    // Under the turnstile: exactly `index` prior emissions.
                    if (emitted[stream].load(std::memory_order_relaxed) != index)
                        ordered.store(false, std::memory_order_relaxed);
                    emitted[stream].store(index + 1, std::memory_order_relaxed);
                    turnstiles[stream].advance();
                }
            });
        }
        for (auto& t : pool) t.join();
        EXPECT_TRUE(ordered.load()) << "round " << round;
        EXPECT_EQ(emitted[0].load(), kFramesPerStream);
        EXPECT_EQ(emitted[1].load(), kFramesPerStream);
    }
}

// -------------------------------------------------------- MPMC unit gate ----

TEST(MpmcQueueUnit, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
    EXPECT_EQ(MpmcQueue<int>(2).capacity(), 2u);
    EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
    EXPECT_EQ(MpmcQueue<int>(9).capacity(), 16u);
}

TEST(MpmcQueueUnit, FifoFullAndEmptySingleThreaded) {
    MpmcQueue<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.try_pop().has_value());
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int{i}));
    EXPECT_FALSE(q.try_push(99));  // full: push fails, queue unchanged
    EXPECT_EQ(q.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        const auto v = q.try_pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);  // FIFO across the wrap
    }
    EXPECT_TRUE(q.empty());
    // The freed slots are reusable (ticket recycling across laps).
    EXPECT_TRUE(q.try_push(7));
    EXPECT_EQ(q.try_pop().value_or(-1), 7);
}

TEST(MpmcQueueUnit, MoveOnlyPayloadsSurviveTransit) {
    MpmcQueue<std::unique_ptr<int>> q(2);
    EXPECT_TRUE(q.try_push(std::make_unique<int>(42)));
    auto out = q.try_pop();
    ASSERT_TRUE(out.has_value());
    ASSERT_TRUE(*out != nullptr);
    EXPECT_EQ(**out, 42);
    // Destruction with a queued item must release it (no leak under ASan).
    q.try_push(std::make_unique<int>(7));
}

}  // namespace
}  // namespace htims::pipeline
