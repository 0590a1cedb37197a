// Frame store + replay service tests.
//
// The store's two contracts, exercised end to end:
//
//  * Determinism — a run recorded into the store and replayed through the
//    hybrid pipeline produces bit-identical frame digests to the live run,
//    across both backends, sync and overlapped decode, and with write-side
//    faults tearing pages out of the recording (the surviving frames still
//    match their live counterparts 1:1 via the seq tags).
//  * Recoverability — a store with a destroyed or partial index (crash
//    before finalize, index_torn fault) still serves every intact frame
//    through the resync fallback, with losses counted, never UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "pipeline/frame_io.hpp"
#include "pipeline/hybrid.hpp"
#include "prs/oversampled.hpp"
#include "store/frame_store.hpp"
#include "store/replay.hpp"

namespace htims::store {
namespace {

using pipeline::Frame;
using pipeline::FrameLayout;

/// Small sequence so a full hybrid run stays in unit-test time.
const prs::OversampledPrs& test_sequence() {
    static const prs::OversampledPrs seq(5, 2, prs::GateMode::kPulsed);
    return seq;
}

FrameLayout test_layout() {
    const auto& seq = test_sequence();
    return FrameLayout{.drift_bins = seq.length(),
                       .mz_bins = 16,
                       .drift_bin_width_s = 1e-4};
}

std::vector<std::uint32_t> test_period(const FrameLayout& layout,
                                       std::uint64_t seed = 77) {
    std::vector<std::uint32_t> period(layout.cells());
    Rng rng(seed);
    for (auto& s : period) s = static_cast<std::uint32_t>(rng.below(1000));
    return period;
}

/// Unique-per-test scratch path (ctest runs discovered tests in parallel,
/// so the running test's full name goes into the file name); removed on
/// scope exit.
struct ScratchFile {
    explicit ScratchFile(const std::string& name) {
        const auto* ti =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string tag =
            std::string(ti->test_suite_name()) + "_" + ti->name() + "_" + name;
        for (auto& c : tag)
            if (c == '/') c = '_';
        path = ::testing::TempDir() + tag;
    }
    ~ScratchFile() { std::remove(path.c_str()); }
    std::string path;
};

/// Record `frames` copies of the period template, seq-tagged by frame index.
void record_run(const std::string& path, const FrameLayout& layout,
                std::span<const std::uint32_t> period, std::uint64_t frames,
                std::uint64_t averages,
                fault::FaultInjector* faults = nullptr) {
    StoreMeta meta{layout, averages};
    FrameStoreWriter writer(path, meta, faults);
    const Frame streamed = period_to_frame(layout, period);
    for (std::uint64_t f = 0; f < frames; ++f) writer.append(streamed, f);
    writer.finalize();
}

pipeline::HybridConfig test_config(pipeline::BackendKind backend, bool overlap,
                                   std::vector<std::uint64_t>* digests,
                                   std::size_t workers = 1) {
    pipeline::HybridConfig hcfg;
    hcfg.backend = backend;
    hcfg.frames = 4;
    hcfg.averages = 2;
    hcfg.ring_records = 32;
    hcfg.decode_workers = overlap ? workers : 0;
    hcfg.frame_sink = [digests](std::size_t, const Frame& f) {
        digests->push_back(pipeline::frame_digest(f));
    };
    return hcfg;
}

struct RoundTripCase {
    pipeline::BackendKind backend;
    bool overlap;
    std::size_t workers = 1;
};

class StoreRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(StoreRoundTrip, ReplayDigestsAreBitIdenticalToLive) {
    const auto layout = test_layout();
    const auto period = test_period(layout);
    ScratchFile scratch("store_roundtrip.htstore");

    std::vector<std::uint64_t> live_digests;
    auto hcfg = test_config(GetParam().backend, GetParam().overlap,
                            &live_digests, GetParam().workers);
    record_run(scratch.path, layout, period, hcfg.frames, hcfg.averages);
    {
        pipeline::HybridPipeline live(test_sequence(), layout, period, hcfg);
        (void)live.run();
    }
    ASSERT_EQ(live_digests.size(), hcfg.frames);

    FrameStoreReader reader(scratch.path);
    EXPECT_TRUE(reader.indexed());
    EXPECT_EQ(reader.frames(), hcfg.frames);
    EXPECT_TRUE(reader.layout() == layout);
    EXPECT_EQ(reader.averages(), hcfg.averages);

    ReplaySource source(reader, ReplayConfig{});
    EXPECT_EQ(source.skipped(), 0u);
    std::vector<std::uint64_t> replay_digests;
    auto rcfg = test_config(GetParam().backend, GetParam().overlap,
                            &replay_digests, GetParam().workers);
    pipeline::HybridPipeline replay(test_sequence(), layout, source, rcfg);
    (void)replay.run();

    EXPECT_EQ(replay_digests, live_digests);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndDecodeModes, StoreRoundTrip,
    ::testing::Values(RoundTripCase{pipeline::BackendKind::kCpu, false},
                      RoundTripCase{pipeline::BackendKind::kCpu, true},
                      RoundTripCase{pipeline::BackendKind::kCpu, true, 2},
                      RoundTripCase{pipeline::BackendKind::kFpga, false},
                      RoundTripCase{pipeline::BackendKind::kFpga, true},
                      RoundTripCase{pipeline::BackendKind::kFpga, true, 4}),
    [](const auto& param_info) {
        return std::string(param_info.param.backend ==
                                   pipeline::BackendKind::kCpu
                               ? "cpu"
                               : "fpga") +
               (param_info.param.overlap ? "_overlap" : "_sync") + "_w" +
               std::to_string(param_info.param.workers);
    });

TEST(StoreWriteFaults, TornPagesLoseFramesButSurvivorsMatchLiveBySeq) {
    const auto layout = test_layout();
    const auto period = test_period(layout);
    ScratchFile scratch("store_torn.htstore");

    std::vector<std::uint64_t> live_digests;
    auto hcfg = test_config(pipeline::BackendKind::kCpu, false, &live_digests);
    {
        pipeline::HybridPipeline live(test_sequence(), layout, period, hcfg);
        (void)live.run();
    }

    // Tear a page out of the second appended frame, deterministically.
    fault::FaultInjector faults(fault::FaultPlan::parse("seed=3,store.torn_page@1"));
    record_run(scratch.path, layout, period, hcfg.frames, hcfg.averages, &faults);
    EXPECT_EQ(faults.injected(fault::Site::kStoreTornPage), 1u);

    FrameStoreReader reader(scratch.path);
    ASSERT_TRUE(reader.indexed());  // the index survives; the slot is damaged
    EXPECT_EQ(reader.frames(), hcfg.frames);
    auto scan = reader.scan();
    while (scan.next()) {
    }
    EXPECT_EQ(scan.stats().frames_lost, 1u);
    EXPECT_EQ(scan.stats().frames_ok, hcfg.frames - 1);

    ReplaySource source(reader, ReplayConfig{});
    ASSERT_EQ(source.skipped(), 1u);
    ASSERT_EQ(source.frames(), hcfg.frames - 1);

    std::vector<std::uint64_t> replay_digests;
    auto rcfg = test_config(pipeline::BackendKind::kCpu, false, &replay_digests);
    rcfg.frames = static_cast<std::size_t>(source.frames());
    pipeline::HybridPipeline replay(test_sequence(), layout, source, rcfg);
    (void)replay.run();

    ASSERT_EQ(replay_digests.size(), source.frames());
    for (std::size_t i = 0; i < replay_digests.size(); ++i)
        EXPECT_EQ(replay_digests[i],
                  live_digests[static_cast<std::size_t>(source.frame_seq(i))])
            << "replayed frame " << i << " (live frame " << source.frame_seq(i)
            << ")";
}

TEST(StoreWriteFaults, ProbabilisticTearGridStaysDeterministic) {
    // The PR 4 grid shape on the write side: a seeded Bernoulli plan tears
    // pages at plan-determined appends; two recordings of the same plan are
    // byte-identical and the survivors replay to matching digests.
    const auto layout = test_layout();
    const auto period = test_period(layout);
    std::vector<std::uint64_t> live_digests;
    auto hcfg = test_config(pipeline::BackendKind::kCpu, false, &live_digests);
    hcfg.frames = 8;
    {
        pipeline::HybridPipeline live(test_sequence(), layout, period, hcfg);
        (void)live.run();
    }

    const auto plan = fault::FaultPlan::parse("seed=11,store.torn_page=0.4");
    std::vector<std::uint64_t> first_seqs;
    for (int rep = 0; rep < 2; ++rep) {
        ScratchFile scratch("store_grid.htstore");
        fault::FaultInjector faults(plan);
        record_run(scratch.path, layout, period, hcfg.frames, hcfg.averages,
                   &faults);
        FrameStoreReader reader(scratch.path);
        ReplaySource source(reader, ReplayConfig{});
        ASSERT_LT(source.skipped(), hcfg.frames);  // seed=11 keeps some frames

        std::vector<std::uint64_t> seqs;
        for (std::size_t i = 0; i < source.frames(); ++i)
            seqs.push_back(source.frame_seq(i));
        if (rep == 0)
            first_seqs = seqs;
        else
            EXPECT_EQ(seqs, first_seqs);  // same plan -> same fault pattern

        std::vector<std::uint64_t> replay_digests;
        auto rcfg =
            test_config(pipeline::BackendKind::kCpu, false, &replay_digests);
        rcfg.frames = static_cast<std::size_t>(source.frames());
        rcfg.averages = hcfg.averages;
        pipeline::HybridPipeline replay(test_sequence(), layout, source, rcfg);
        (void)replay.run();
        for (std::size_t i = 0; i < replay_digests.size(); ++i)
            EXPECT_EQ(replay_digests[i],
                      live_digests[static_cast<std::size_t>(source.frame_seq(i))]);
    }
}

TEST(StoreIndex, SeekByIndexAndSequenceTag) {
    const auto layout = test_layout();
    ScratchFile scratch("store_seek.htstore");
    Frame frame(layout);
    {
        StoreMeta meta{layout, 1};
        FrameStoreWriter writer(scratch.path, meta);
        for (const std::uint64_t seq : {0u, 2u, 5u}) {
            frame.fill(static_cast<double>(seq + 1));
            writer.append(frame, seq);
        }
        writer.finalize();
        EXPECT_TRUE(writer.finalized());
        writer.finalize();  // idempotent
    }

    FrameStoreReader reader(scratch.path);
    ASSERT_TRUE(reader.indexed());
    ASSERT_EQ(reader.frames(), 3u);
    EXPECT_EQ(reader.entry(1).seq, 2u);

    // O(1) by index: parse exactly one frame, identity-checked.
    const Frame second = reader.frame(1);
    EXPECT_DOUBLE_EQ(second.data()[0], 3.0);

    // O(log n) by tag, including misses.
    EXPECT_EQ(reader.find_seq(0), std::optional<std::size_t>{0});
    EXPECT_EQ(reader.find_seq(2), std::optional<std::size_t>{1});
    EXPECT_EQ(reader.find_seq(5), std::optional<std::size_t>{2});
    EXPECT_EQ(reader.find_seq(3), std::nullopt);
    EXPECT_EQ(reader.find_seq(6), std::nullopt);

    // The zero-copy payload view serves the same cells frame() decodes.
    const auto payload = reader.payload(2);
    const Frame third = reader.frame(2);
    ASSERT_EQ(payload.size(), third.data().size());
    for (std::size_t i = 0; i < payload.size(); i += 97)
        EXPECT_EQ(payload[i], third.data()[i]);
}

TEST(StoreRecovery, IndexTornFinalizeFallsBackToResync) {
    const auto layout = test_layout();
    const auto period = test_period(layout);
    ScratchFile scratch("store_indextorn.htstore");
    fault::FaultInjector faults(
        fault::FaultPlan::parse("seed=5,store.index_torn@0"));
    record_run(scratch.path, layout, period, 4, 1, &faults);
    EXPECT_EQ(faults.injected(fault::Site::kStoreIndexTorn), 1u);

    FrameStoreReader reader(scratch.path);
    EXPECT_FALSE(reader.indexed());
    ASSERT_EQ(reader.frames(), 4u);  // the arena is intact; resync finds all
    EXPECT_EQ(reader.recovery_stats().frames_ok, 4u);
    for (std::size_t i = 0; i < reader.frames(); ++i)
        EXPECT_EQ(reader.entry(i).seq, i);

    // The rebuilt index serves frames just like a footer-backed one.
    ReplaySource source(reader, ReplayConfig{});
    EXPECT_EQ(source.frames(), 4u);
    EXPECT_EQ(source.skipped(), 0u);
}

TEST(StoreRecovery, CrashBeforeFinalizeLeavesRecoverablePrefix) {
    const auto layout = test_layout();
    const auto period = test_period(layout);
    ScratchFile scratch("store_crash.htstore");
    {
        StoreMeta meta{layout, 1};
        FrameStoreWriter writer(scratch.path, meta);
        const Frame streamed = period_to_frame(layout, period);
        for (std::uint64_t f = 0; f < 3; ++f) writer.append(streamed, f);
        // No finalize(): the mapping closes with the file still oversized
        // (growth padding) and indexless — the crash-mid-run shape.
    }

    FrameStoreReader reader(scratch.path);
    EXPECT_FALSE(reader.indexed());
    ASSERT_EQ(reader.frames(), 3u);
    EXPECT_EQ(reader.recovery_stats().frames_ok, 3u);
    for (std::size_t i = 0; i < reader.frames(); ++i) {
        EXPECT_EQ(reader.entry(i).seq, i);
        (void)reader.frame(i);  // parses clean
    }
}

TEST(StoreReplay, LineRatePacingStretchesTheRun) {
    const auto layout = test_layout();  // period_s = drift_bins * 1e-4
    const auto period = test_period(layout);
    ScratchFile scratch("store_paced.htstore");
    const std::uint64_t frames = 2, averages = 2;
    record_run(scratch.path, layout, period, frames, averages);

    FrameStoreReader reader(scratch.path);
    const double recorded_s =
        static_cast<double>(frames * averages) * layout.period_s();

    ReplaySource paced(reader, ReplayConfig{1.0});
    pipeline::HybridConfig hcfg;
    hcfg.backend = pipeline::BackendKind::kCpu;
    hcfg.frames = frames;
    hcfg.averages = averages;
    hcfg.ring_records = 32;
    pipeline::HybridPipeline replay(test_sequence(), layout, paced, hcfg);
    const auto report = replay.run();
    // Pacing releases record k no earlier than k * drift_bin_width_s, so a
    // rate-1.0 run can't finish much faster than the recorded duration
    // (generous floor: scheduling can only make it slower).
    EXPECT_GE(report.wall_seconds, 0.6 * recorded_s);
    EXPECT_EQ(report.records_dropped, 0u);
}

TEST(StoreReplay, ResidentAndWindowedModesServeIdenticalRecords) {
    const auto layout = test_layout();
    const auto period = test_period(layout);
    ScratchFile scratch("store_window.htstore");
    record_run(scratch.path, layout, period, 3, 2);

    FrameStoreReader reader(scratch.path);
    ReplaySource resident(reader, ReplayConfig{});
    ASSERT_TRUE(resident.resident());
    ReplayConfig wcfg;
    wcfg.resident_cap_bytes = 0;
    ReplaySource windowed(reader, wcfg);
    ASSERT_FALSE(windowed.resident());
    windowed.set_window(32);

    ASSERT_EQ(resident.total_records(), windowed.total_records());
    for (std::uint64_t seq = 0; seq < resident.total_records(); ++seq) {
        const auto a = resident.record_block(seq, 1);
        const auto b = windowed.record_block(seq, 1);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(std::uint32_t)))
            << "record " << seq;
    }
}

TEST(StoreWriter, RejectsMisuse) {
    const auto layout = test_layout();
    ScratchFile scratch("store_misuse.htstore");
    StoreMeta meta{layout, 1};
    FrameStoreWriter writer(scratch.path, meta);
    Frame frame(layout);
    writer.append(frame, 4);
    EXPECT_THROW(writer.append(frame, 3), ConfigError);  // seq going backwards
    Frame wrong(FrameLayout{.drift_bins = 4, .mz_bins = 4,
                            .drift_bin_width_s = 1e-4});
    EXPECT_THROW(writer.append(wrong, 5), ConfigError);  // layout mismatch
    writer.finalize();
}

TEST(FrameStreamReaderSpan, ZeroCopyViewTracksOffsetsAndSeqTags) {
    // The satellite API the store's recovery path is built on: a reader
    // over caller-owned bytes, with per-frame offsets and seq tags exposed.
    const auto layout = test_layout();
    Frame frame(layout);
    const std::size_t container = pipeline::frame_container_bytes(layout);
    std::vector<std::byte> stream(3 * container);
    for (std::uint64_t k = 0; k < 3; ++k) {
        frame.fill(static_cast<double>(k));
        const std::size_t n = pipeline::serialize_frame(
            frame, std::span(stream).subspan(k * container), 70 + k);
        ASSERT_EQ(n, container);
    }

    pipeline::FrameStreamReader reader{std::span<const std::byte>(stream)};
    for (std::uint64_t k = 0; k < 3; ++k) {
        auto f = reader.next();
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(reader.last_seq(), 70 + k);
        // The container ends exactly at offset(); its start backs out from
        // the container size — the arithmetic index rebuilds rely on.
        EXPECT_EQ(reader.offset(), (k + 1) * container);
        EXPECT_EQ(reader.offset() - pipeline::frame_container_bytes(*f),
                  k * container);
    }
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(reader.stats().frames_ok, 3u);
}

}  // namespace
}  // namespace htims::store
