// Tests for src/pipeline: frames, the SPSC ring (including a concurrent
// stress test), the acquisition engine's physical bookkeeping, the FPGA
// model against the double-precision decoder, the CPU backend, and the
// hybrid orchestrator.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "core/experiment.hpp"
#include "instrument/peptide_library.hpp"
#include "pipeline/acquisition.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/frame.hpp"
#include "pipeline/frame_io.hpp"
#include "pipeline/hybrid.hpp"
#include "pipeline/spsc_ring.hpp"

namespace htims::pipeline {
namespace {

FrameLayout small_layout() {
    return FrameLayout{.drift_bins = 62, .mz_bins = 16, .drift_bin_width_s = 1e-4};
}

AcquisitionEngine make_engine(const AcquisitionConfig& acq,
                              instrument::SampleMixture mix =
                                  instrument::make_calibration_mix(),
                              instrument::TofConfig tof = {}) {
    tof.bins = 256;
    return AcquisitionEngine(instrument::DriftCellConfig{}, tof,
                             instrument::DetectorConfig{}, instrument::IonTrapConfig{},
                             instrument::EsiSource(std::move(mix)), acq);
}

// -------------------------------------------------------------- Frame ----

TEST(Frame, LayoutAndAccess) {
    Frame f(small_layout());
    EXPECT_EQ(f.drift_bins(), 62u);
    EXPECT_EQ(f.mz_bins(), 16u);
    f.at(3, 5) = 7.0;
    EXPECT_DOUBLE_EQ(f.at(3, 5), 7.0);
    EXPECT_DOUBLE_EQ(f.record(3)[5], 7.0);
}

TEST(Frame, DriftProfileRoundTrip) {
    Frame f(small_layout());
    AlignedVector<double> profile(f.drift_bins());
    std::iota(profile.begin(), profile.end(), 1.0);
    f.set_drift_profile(4, profile);
    AlignedVector<double> back(f.drift_bins());
    f.drift_profile(4, back);
    for (std::size_t i = 0; i < profile.size(); ++i)
        EXPECT_DOUBLE_EQ(back[i], profile[i]);
}

TEST(Frame, TotalIonCurrent) {
    Frame f(small_layout());
    f.at(0, 0) = 1.0;
    f.at(0, 15) = 2.0;
    f.at(1, 7) = 5.0;
    AlignedVector<double> tic(f.drift_bins());
    f.total_ion_current(tic);
    EXPECT_DOUBLE_EQ(tic[0], 3.0);
    EXPECT_DOUBLE_EQ(tic[1], 5.0);
    EXPECT_DOUBLE_EQ(f.total(), 8.0);
}

TEST(Frame, AccumulateAndScale) {
    Frame a(small_layout()), b(small_layout());
    a.at(1, 1) = 2.0;
    b.at(1, 1) = 3.0;
    a.accumulate(b);
    EXPECT_DOUBLE_EQ(a.at(1, 1), 5.0);
    a.scale(2.0);
    EXPECT_DOUBLE_EQ(a.at(1, 1), 10.0);
}

TEST(Frame, LayoutMismatchRejected) {
    Frame a(small_layout());
    Frame b(FrameLayout{.drift_bins = 31, .mz_bins = 16, .drift_bin_width_s = 1e-4});
    EXPECT_THROW(a.accumulate(b), PreconditionError);
}

TEST(Frame, SampleRateMatchesLayout) {
    const auto layout = small_layout();
    EXPECT_NEAR(layout.sample_rate(), 16.0 / 1e-4, 1e-6);
    EXPECT_NEAR(layout.period_s(), 62.0 * 1e-4, 1e-12);
}

// ----------------------------------------------------------- SpscRing ----

TEST(SpscRing, SingleThreadedFifo) {
    SpscRing<int> ring(8);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int{i}));
    EXPECT_FALSE(ring.try_push(99));  // full
    for (int i = 0; i < 8; ++i) {
        auto v = ring.try_pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
    SpscRing<int> ring(5);
    EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRing, ConcurrentStressPreservesOrderAndCount) {
    SpscRing<std::uint64_t> ring(64);
    constexpr std::uint64_t kCount = 200000;
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kCount;) {
            if (ring.try_push(std::uint64_t{i}))
                ++i;
            else
                std::this_thread::yield();
        }
    });
    std::uint64_t expected = 0;
    while (expected < kCount) {
        auto v = ring.try_pop();
        if (!v) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(*v, expected);
        ++expected;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, IndicesWrapCleanlyAtMinimumCapacity) {
    // Capacity 2 forces head/tail to wrap the index mask every other
    // operation; FIFO order and full/empty detection must survive many laps.
    SpscRing<int> ring(2);
    ASSERT_EQ(ring.capacity(), 2u);
    int next_in = 0, next_out = 0;
    for (int lap = 0; lap < 1000; ++lap) {
        while (ring.try_push(int{next_in})) ++next_in;
        EXPECT_EQ(ring.size(), ring.capacity());  // full boundary
        while (auto v = ring.try_pop()) {
            EXPECT_EQ(*v, next_out);
            ++next_out;
        }
        EXPECT_TRUE(ring.empty());  // empty boundary
    }
    EXPECT_EQ(next_in, next_out);
    EXPECT_EQ(next_in, 2000);
}

TEST(SpscRing, ConcurrentWraparoundTinyRing) {
    // The hardest case for the Lamport protocol: a capacity-2 ring keeps the
    // producer and consumer permanently within one slot of both the full and
    // the empty boundary while the indices wrap thousands of times.
    SpscRing<std::uint64_t> ring(2);
    constexpr std::uint64_t kCount = 100000;
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kCount;) {
            if (ring.try_push(std::uint64_t{i}))
                ++i;
            else
                std::this_thread::yield();
        }
    });
    std::uint64_t expected = 0;
    while (expected < kCount) {
        auto v = ring.try_pop();
        if (!v) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(*v, expected);
        ++expected;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, MoveOnlyPayloadSurvivesConcurrentTransfer) {
    SpscRing<std::unique_ptr<int>> ring(4);
    constexpr int kCount = 20000;
    std::thread producer([&] {
        for (int i = 0; i < kCount;) {
            if (ring.try_push(std::make_unique<int>(i)))
                ++i;
            else
                std::this_thread::yield();
        }
    });
    int expected = 0;
    while (expected < kCount) {
        auto v = ring.try_pop();
        if (!v) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_TRUE(*v != nullptr);
        ASSERT_EQ(**v, expected);
        ++expected;
    }
    producer.join();
}

// -------------------------------------------------------- Acquisition ----

TEST(Acquisition, LayoutTracksSequenceAndSlowestIon) {
    AcquisitionConfig acq;
    acq.sequence_order = 6;
    acq.oversampling = 2;
    auto engine = make_engine(acq);
    EXPECT_EQ(engine.layout().drift_bins, 2u * 63u);
    EXPECT_EQ(engine.layout().mz_bins, 256u);
    // The period exceeds the slowest species' drift time by the margin.
    double slowest = 0.0;
    for (const auto& sp : engine.source().mixture().species)
        slowest = std::max(slowest, engine.cell().drift_time(sp.reduced_mobility));
    EXPECT_NEAR(engine.period_s(), 1.15 * slowest, 1e-9);
}

TEST(Acquisition, SignalAveragingPutsTruthInRaw) {
    AcquisitionConfig acq;
    acq.mode = AcquisitionMode::kSignalAveraging;
    acq.sequence_order = 6;
    acq.averages = 64;
    acq.use_trap = false;
    auto engine = make_engine(acq);
    auto result = engine.acquire();
    // The raw frame is the (noisy, accumulated) drift spectrum: its peak
    // drift bins must coincide with the truth's per species.
    for (const auto& trace : result.traces) {
        AlignedVector<double> raw_profile(engine.layout().drift_bins);
        result.raw.drift_profile(trace.mz_bin, raw_profile);
        std::size_t apex = 0;
        for (std::size_t d = 1; d < raw_profile.size(); ++d)
            if (raw_profile[d] > raw_profile[apex]) apex = d;
        EXPECT_NEAR(static_cast<double>(apex), static_cast<double>(trace.drift_bin),
                    3.0 + 3.0 * trace.drift_sigma_bins)
            << trace.name;
    }
}

TEST(Acquisition, MultiplexedDutyCycleNearHalf) {
    AcquisitionConfig acq;
    acq.sequence_order = 7;
    acq.oversampling = 2;
    acq.gate_mode = prs::GateMode::kPulsed;
    acq.use_trap = true;
    auto engine = make_engine(acq);
    const auto result = engine.acquire();
    // Fixed-fill trap with min-gap fill: duty cycle close to 50%.
    EXPECT_GT(result.duty_cycle, 0.3);
    EXPECT_LE(result.duty_cycle, 1.0);
    EXPECT_GT(result.utilization(), 0.25);
}

TEST(Acquisition, SignalAveragingWithoutTrapHasTinyDutyCycle) {
    AcquisitionConfig acq;
    acq.mode = AcquisitionMode::kSignalAveraging;
    acq.sequence_order = 7;
    acq.use_trap = false;
    auto engine = make_engine(acq);
    const auto result = engine.acquire();
    EXPECT_LT(result.duty_cycle, 0.02);
    EXPECT_LT(result.utilization(), 0.02);
}

TEST(Acquisition, VariableGapBeatsFixedFillUtilization) {
    AcquisitionConfig fixed, variable;
    fixed.sequence_order = variable.sequence_order = 7;
    fixed.oversampling = variable.oversampling = 2;
    variable.release_mode = TrapReleaseMode::kVariableGap;
    auto fixed_result = make_engine(fixed).acquire();
    auto variable_result = make_engine(variable).acquire();
    EXPECT_GT(variable_result.utilization(), fixed_result.utilization());
    EXPECT_GT(variable_result.utilization(), 0.5);
}

TEST(Acquisition, VariableGapProducesNonUniformWeights) {
    AcquisitionConfig acq;
    acq.sequence_order = 7;
    acq.release_mode = TrapReleaseMode::kVariableGap;
    auto result = make_engine(acq).acquire();
    double lo = 1e9, hi = 0.0;
    for (double w : result.gate_weights)
        if (w > 0.0) {
            lo = std::min(lo, w);
            hi = std::max(hi, w);
        }
    EXPECT_GT(hi / lo, 1.5);  // gap spread shows up as weight spread
}

TEST(Acquisition, FixedFillWeightsAreUniform) {
    AcquisitionConfig acq;
    acq.sequence_order = 7;
    auto result = make_engine(acq).acquire();
    for (double w : result.gate_weights) {
        if (w != 0.0) {
            EXPECT_DOUBLE_EQ(w, 1.0);
        }
    }
}

TEST(Acquisition, TruthTracesLandInsideFrame) {
    AcquisitionConfig acq;
    acq.sequence_order = 8;
    acq.oversampling = 2;
    auto engine = make_engine(acq);
    const auto result = engine.acquire();
    EXPECT_EQ(result.traces.size(), 9u);
    for (const auto& trace : result.traces) {
        EXPECT_LT(trace.drift_bin, engine.layout().drift_bins);
        EXPECT_LT(trace.mz_bin, engine.layout().mz_bins);
        EXPECT_GT(trace.expected_ions, 0.0);
    }
}

TEST(Acquisition, MoreAveragesMoreCounts) {
    AcquisitionConfig one, many;
    one.sequence_order = many.sequence_order = 6;
    one.averages = 1;
    many.averages = 16;
    const double t1 = make_engine(one).acquire().raw.total();
    const double t16 = make_engine(many).acquire().raw.total();
    // The signal scales with averages; the zero-clamped noise floor scales
    // sublinearly, so the total-count ratio sits between sqrt(16) and 16.
    EXPECT_GT(t16 / t1, 6.0);
    EXPECT_LT(t16 / t1, 24.0);
}

TEST(Acquisition, AgcLimitsPacketCharge) {
    AcquisitionConfig agc_off, agc_on;
    agc_off.mode = agc_on.mode = AcquisitionMode::kSignalAveraging;
    agc_off.sequence_order = agc_on.sequence_order = 6;
    agc_on.agc = true;
    // A hot mixture that would overfill the trap in a full period.
    auto mix = instrument::make_calibration_mix();
    for (auto& sp : mix.species) sp.intensity *= 10000.0;
    instrument::IonTrapConfig trap;
    trap.agc_target_fraction = 0.5;
    instrument::TofConfig tof;
    tof.bins = 256;
    auto run = [&](const AcquisitionConfig& acq) {
        AcquisitionEngine engine(instrument::DriftCellConfig{}, tof,
                                 instrument::DetectorConfig{}, trap,
                                 instrument::EsiSource(mix), acq);
        return engine.acquire();
    };
    const auto off = run(agc_off);
    const auto on = run(agc_on);
    EXPECT_TRUE(off.trap_saturated);
    EXPECT_FALSE(on.trap_saturated);
    EXPECT_LT(on.mean_packet_charges, 0.6 * trap.capacity_charges);
}

TEST(Acquisition, ZeroSpeciesRejected) {
    AcquisitionConfig acq;
    instrument::SampleMixture empty;
    EXPECT_THROW(make_engine(acq, empty), ConfigError);
}

// ---------------------------------------------------------------- FPGA ----

class FpgaVsCpu : public ::testing::TestWithParam<prs::GateMode> {};

TEST_P(FpgaVsCpu, MatchesSoftwareDecoderWithinQuantization) {
    const prs::OversampledPrs seq(6, 2, GetParam());
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 8,
                       .drift_bin_width_s = 1e-4};

    // Build a synthetic multiplexed frame from a known truth.
    transform::EnhancedDeconvolver enc(seq);
    auto ws = enc.make_workspace();
    Frame raw(layout);
    AlignedVector<double> x(seq.length(), 0.0), y(seq.length());
    for (std::size_t m = 0; m < layout.mz_bins; ++m) {
        std::fill(x.begin(), x.end(), 0.0);
        x[10 + 3 * m] = 40.0 + static_cast<double>(m);
        enc.encode_fast(x, y, ws);
        raw.set_drift_profile(m, y);
    }

    FpgaConfig cfg;
    cfg.output_format = QFormat{32, 8};
    FpgaPipeline fpga(seq, layout, cfg);
    fpga.begin_frame();
    std::vector<std::uint32_t> samples(layout.cells());
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = static_cast<std::uint32_t>(std::llround(raw.data()[i]));
    fpga.push_samples(samples);
    const Frame hw = fpga.end_frame();

    CpuBackend cpu(seq, layout, 1);
    const Frame sw = cpu.deconvolve(raw);

    // Fixed point with 8 fractional bits and integer inputs: error bounded
    // by a few LSB of the output format plus the input rounding.
    for (std::size_t i = 0; i < hw.data().size(); ++i)
        EXPECT_NEAR(hw.data()[i], sw.data()[i], 1.0) << "cell " << i;
}

INSTANTIATE_TEST_SUITE_P(Modes, FpgaVsCpu,
                         ::testing::Values(prs::GateMode::kPulsed,
                                           prs::GateMode::kStretched));

TEST(Fpga, NarrowAccumulatorSaturates) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 4,
                       .drift_bin_width_s = 1e-4};
    FpgaConfig cfg;
    cfg.accumulator_bits = 8;  // saturates at 127
    FpgaPipeline fpga(seq, layout, cfg);
    fpga.begin_frame();
    std::vector<std::uint32_t> samples(layout.cells(), 100);
    fpga.push_samples(samples);
    fpga.push_samples(samples);  // second period: 200 > 127
    fpga.end_frame();
    EXPECT_GT(fpga.report().accumulator_saturations, 0u);
}

TEST(Fpga, CycleAccountingScalesWithWork) {
    const prs::OversampledPrs seq(7, 2, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 32,
                       .drift_bin_width_s = 1e-4};
    FpgaPipeline fpga(seq, layout, FpgaConfig{});
    fpga.begin_frame();
    std::vector<std::uint32_t> samples(layout.cells(), 1);
    fpga.push_samples(samples);
    fpga.end_frame();
    const auto one = fpga.report();
    EXPECT_EQ(one.capture_cycles, layout.cells());
    EXPECT_GT(one.deconv_cycles, 0u);

    fpga.begin_frame();
    fpga.push_samples(samples);
    fpga.push_samples(samples);
    fpga.end_frame();
    EXPECT_EQ(fpga.report().capture_cycles, 2 * layout.cells());
    EXPECT_EQ(fpga.report().deconv_cycles, one.deconv_cycles);
}

// Regression: sustained_sample_rate() charged only the LAST frame's deconv
// cycles for every frame of the run. Frames are not homogeneous — a budget
// overrun decodes fewer channels — so ending a run on a cheap partial frame
// overstated the sustained figure. The fix averages deconv cycles over all
// finalized frames.
TEST(Fpga, SustainedRateAveragesDeconvAcrossFrames) {
    const prs::OversampledPrs seq(4, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 8,
                       .drift_bin_width_s = 1e-4};
    FpgaPipeline fpga(seq, layout, FpgaConfig{});
    const std::size_t averages = 2;
    std::vector<std::uint32_t> samples(layout.cells(), 5);

    fpga.begin_frame();
    fpga.push_samples(samples);
    FpgaCapture cap = fpga.capture_frame();
    fpga.finalize_frame(cap);
    const std::uint64_t full = fpga.report().deconv_cycles;

    // Second frame finalizes as a partial decode (half the channels), as a
    // fired fpga.overrun fault would leave it.
    fpga.push_samples(samples);
    FpgaCapture cap2 = fpga.capture_frame(std::move(cap));
    cap2.budget_overrun = true;
    cap2.channel_limit = layout.mz_bins / 2;
    fpga.finalize_frame(cap2);
    const std::uint64_t partial = fpga.report().deconv_cycles;
    ASSERT_LT(partial, full);

    const auto& cfg = fpga.config();
    const std::uint64_t per_frame = averages * layout.cells();
    const std::uint64_t capture =  // samples_per_cycle is 1 by default
        per_frame / static_cast<std::uint64_t>(cfg.samples_per_cycle);
    const double expected = static_cast<double>(2 * per_frame) * cfg.clock_hz /
                            static_cast<double>(2 * capture + full + partial);
    // The old formula priced every frame at the last (cheap, partial) one.
    const double overstated = static_cast<double>(per_frame) * cfg.clock_hz /
                              static_cast<double>(capture + partial);
    const double rate = fpga.sustained_sample_rate(averages);
    EXPECT_NEAR(rate, expected, 1e-9 * expected);
    EXPECT_LT(rate, overstated);
}

TEST(Fpga, BramBudgetReported) {
    const prs::OversampledPrs seq(8, 2, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 1024,
                       .drift_bin_width_s = 1e-4};
    FpgaConfig small;
    small.bram_bytes = 1024;  // deliberately too small
    FpgaPipeline tight(seq, layout, small);
    EXPECT_FALSE(tight.report().fits_bram);
    FpgaConfig big;
    big.bram_bytes = 64 * 1024 * 1024;
    FpgaPipeline roomy(seq, layout, big);
    EXPECT_TRUE(roomy.report().fits_bram);
}

TEST(Fpga, LayoutSequenceMismatchRejected) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = 99, .mz_bins = 4, .drift_bin_width_s = 1e-4};
    EXPECT_THROW(FpgaPipeline(seq, layout, FpgaConfig{}), ConfigError);
}

// ----------------------------------------------------------- CpuBackend ----

TEST(CpuBackend, RecoversTruthFromCleanEncode) {
    const prs::OversampledPrs seq(7, 2, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 16,
                       .drift_bin_width_s = 1e-4};
    transform::EnhancedDeconvolver enc(seq);
    auto ws = enc.make_workspace();
    Frame truth(layout), raw(layout);
    AlignedVector<double> x(seq.length(), 0.0), y(seq.length());
    for (std::size_t m = 0; m < layout.mz_bins; ++m) {
        std::fill(x.begin(), x.end(), 0.0);
        x[5 * m + 3] = 10.0;
        truth.set_drift_profile(m, x);
        enc.encode_fast(x, y, ws);
        raw.set_drift_profile(m, y);
    }
    CpuBackend cpu(seq, layout, 2);
    const Frame out = cpu.deconvolve(raw);
    for (std::size_t i = 0; i < out.data().size(); ++i)
        EXPECT_NEAR(out.data()[i], truth.data()[i], 1e-6);
    EXPECT_GT(cpu.last_seconds(), 0.0);
    EXPECT_GT(cpu.sustained_sample_rate(1), 0.0);
}

TEST(CpuBackend, ThreadCountsAgree) {
    const prs::OversampledPrs seq(6, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 64,
                       .drift_bin_width_s = 1e-4};
    Frame raw(layout);
    raw.fill(1.0);
    CpuBackend one(seq, layout, 1), four(seq, layout, 4);
    const Frame a = one.deconvolve(raw);
    const Frame b = four.deconvolve(raw);
    for (std::size_t i = 0; i < a.data().size(); ++i)
        EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
}

// -------------------------------------------------------------- Hybrid ----

TEST(Hybrid, FpgaBackendProcessesAllFrames) {
    const prs::OversampledPrs seq(6, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 32,
                       .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 3);
    HybridConfig cfg;
    cfg.backend = BackendKind::kFpga;
    cfg.frames = 4;
    cfg.averages = 2;
    HybridPipeline pipeline(seq, layout, period, cfg);
    const auto report = pipeline.run();
    EXPECT_EQ(report.frames, 4u);
    EXPECT_EQ(report.samples, 4u * 2u * layout.cells());
    EXPECT_GT(report.sample_rate, 0.0);
    EXPECT_EQ(report.last_frame.layout(), layout);
}

TEST(Hybrid, CpuBackendProcessesAllFrames) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 16,
                       .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 1);
    HybridConfig cfg;
    cfg.backend = BackendKind::kCpu;
    cfg.frames = 3;
    cfg.cpu_threads = 2;
    HybridPipeline pipeline(seq, layout, period, cfg);
    const auto report = pipeline.run();
    EXPECT_EQ(report.frames, 3u);
    EXPECT_GT(report.sample_rate, 0.0);
}

TEST(Hybrid, DeconvolvedStreamMatchesDirectDecode) {
    const prs::OversampledPrs seq(6, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 8,
                       .drift_bin_width_s = 1e-4};
    // Encode a known truth, digitize, stream through the hybrid FPGA path.
    transform::EnhancedDeconvolver enc(seq);
    auto ws = enc.make_workspace();
    AlignedVector<double> x(seq.length(), 0.0), y(seq.length());
    std::vector<std::uint32_t> period(layout.cells(), 0);
    x[7] = 25.0;
    enc.encode_fast(x, y, ws);
    for (std::size_t d = 0; d < layout.drift_bins; ++d)
        for (std::size_t m = 0; m < layout.mz_bins; ++m)
            period[d * layout.mz_bins + m] =
                static_cast<std::uint32_t>(std::llround(y[d]));
    HybridConfig cfg;
    cfg.backend = BackendKind::kFpga;
    cfg.frames = 1;
    HybridPipeline pipeline(seq, layout, period, cfg);
    const auto report = pipeline.run();
    for (std::size_t m = 0; m < layout.mz_bins; ++m)
        EXPECT_NEAR(report.last_frame.at(7, m), 25.0, 1.0);
}

TEST(Hybrid, TemplateSizeMismatchRejected) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 8,
                       .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> wrong(layout.cells() + 1, 0);
    EXPECT_THROW(HybridPipeline(seq, layout, wrong, HybridConfig{}), ConfigError);
}

TEST(Hybrid, RealtimeFactorSentinelForNonPositiveRate) {
    // A non-positive instrument rate means "no meaningful native rate": the
    // documented sentinel is 0.0 — reading as no real-time claim — never a
    // division by zero, NaN, or infinity.
    HybridReport report;
    report.sample_rate = 1e6;
    EXPECT_DOUBLE_EQ(report.realtime_factor(0.0), 0.0);
    EXPECT_DOUBLE_EQ(report.realtime_factor(-5.0), 0.0);
    EXPECT_DOUBLE_EQ(report.realtime_factor(2e6), 0.5);
}

TEST(Hybrid, ToPeriodSamplesDividesByAverages) {
    Frame raw(small_layout());
    raw.fill(10.0);
    const auto samples = to_period_samples(raw, 5);
    for (auto s : samples) EXPECT_EQ(s, 2u);
}

// ----------------------------------------------------- overlapped decode ----

// One hybrid run with a per-frame digest sink; every decoded frame lands in
// its slot, so a sync/overlap comparison checks each frame, not just the
// last one.
struct DigestRun {
    HybridReport report;
    std::vector<std::uint64_t> digests;
};

DigestRun digest_run(BackendKind backend, bool overlap, std::size_t buffers = 2,
                     std::size_t workers = 1, std::size_t ring = 256) {
    const prs::OversampledPrs seq(6, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 8,
                       .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells());
    for (std::size_t i = 0; i < period.size(); ++i)
        period[i] = static_cast<std::uint32_t>(i % 13);
    HybridConfig cfg;
    cfg.backend = backend;
    cfg.frames = 4;
    cfg.averages = 2;
    cfg.cpu_threads = 2;
    cfg.decode_buffers = buffers;
    cfg.decode_workers = overlap ? workers : 0;
    cfg.ring_records = ring;
    DigestRun run;
    run.digests.assign(cfg.frames, 0);
    cfg.frame_sink = [&run](std::size_t index, const Frame& frame) {
        run.digests.at(index) = frame_digest(frame);
    };
    run.report = HybridPipeline(seq, layout, period, cfg).run();
    EXPECT_EQ(run.report.frames, cfg.frames);
    return run;
}

TEST(HybridOverlap, ConfigValidation) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 8,
                       .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 1);
    HybridConfig cfg;
    cfg.decode_workers = 1;
    cfg.decode_buffers = 1;
    EXPECT_THROW(HybridPipeline(seq, layout, period, cfg), ConfigError);
    // A sub-2 buffer count is inert while decode stays inline.
    cfg.decode_workers = 0;
    EXPECT_NO_THROW(HybridPipeline(seq, layout, period, cfg));
}

TEST(HybridOverlap, CpuDigestsMatchSynchronousPath) {
    const auto sync_run = digest_run(BackendKind::kCpu, false);
    EXPECT_EQ(digest_run(BackendKind::kCpu, true).digests, sync_run.digests);
    // Extra buffers deepen the handoff queue without changing results.
    EXPECT_EQ(digest_run(BackendKind::kCpu, true, 3).digests, sync_run.digests);
}

TEST(HybridOverlap, FpgaDigestsMatchSynchronousPath) {
    const auto sync_run = digest_run(BackendKind::kFpga, false);
    const auto overlap_run = digest_run(BackendKind::kFpga, true);
    EXPECT_EQ(overlap_run.digests, sync_run.digests);
    EXPECT_EQ(digest_run(BackendKind::kFpga, true, 4).digests, sync_run.digests);
    // The detached-capture accounting matches the synchronous reports too.
    EXPECT_EQ(overlap_run.report.fpga.capture_cycles,
              sync_run.report.fpga.capture_cycles);
    EXPECT_EQ(overlap_run.report.fpga.deconv_cycles,
              sync_run.report.fpga.deconv_cycles);
}

TEST(HybridOverlap, MultiWorkerDigestsMatchSynchronousPath) {
    // decode_workers in {1, 2, 4}: concurrent finalizes with ordered
    // emission must stay bit-identical to the synchronous path for both
    // backends (the acceptance matrix of the batch-transport PR).
    for (auto backend : {BackendKind::kCpu, BackendKind::kFpga}) {
        const auto sync_run = digest_run(backend, false);
        for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            const auto run = digest_run(backend, true, 2, workers);
            EXPECT_EQ(run.digests, sync_run.digests)
                << "backend=" << static_cast<int>(backend)
                << " workers=" << workers;
            EXPECT_EQ(frame_digest(run.report.last_frame), run.digests.back());
        }
    }
}

TEST(HybridOverlap, MultiWorkerFpgaReportsMatchSynchronousAccounting) {
    const auto sync_run = digest_run(BackendKind::kFpga, false);
    const auto run = digest_run(BackendKind::kFpga, true, 2, 4);
    // Emission is frame-ordered, so the surviving report is the last
    // frame's — and per-frame accounting is a pure function of the capture.
    EXPECT_EQ(run.report.fpga.capture_cycles, sync_run.report.fpga.capture_cycles);
    EXPECT_EQ(run.report.fpga.deconv_cycles, sync_run.report.fpga.deconv_cycles);
}

TEST(HybridOverlap, BatchSizeSweepIsBitIdentical) {
    // The transport batch follows the ring depth (kLinkBatchRecords
    // clamped to the ring): rings of 2, 8 and 32 records move batches of
    // 2, 8 and 32, and must all produce the default 256-record ring's
    // frames.
    const auto reference = digest_run(BackendKind::kCpu, false);
    for (std::size_t ring : {std::size_t{2}, std::size_t{8}, std::size_t{32}}) {
        EXPECT_EQ(digest_run(BackendKind::kCpu, false, 2, 1, ring).digests,
                  reference.digests)
            << "ring=" << ring;
        EXPECT_EQ(digest_run(BackendKind::kCpu, true, 2, 2, ring).digests,
                  reference.digests)
            << "ring=" << ring << " (overlap, 2 workers)";
    }
}

TEST(HybridOverlap, LastFrameIsTheFinalDecodedFrame) {
    for (auto backend : {BackendKind::kCpu, BackendKind::kFpga}) {
        const auto run = digest_run(backend, true);
        EXPECT_EQ(frame_digest(run.report.last_frame), run.digests.back());
        EXPECT_GE(run.report.decode_wait_seconds, 0.0);
    }
}

TEST(HybridOverlap, FrameSinkRunsInFrameOrder) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 8,
                       .drift_bin_width_s = 1e-4};
    std::vector<std::uint32_t> period(layout.cells(), 2);
    struct Case {
        bool overlap;
        std::size_t workers;
    };
    for (const auto& c : {Case{false, 1}, Case{true, 1}, Case{true, 2},
                          Case{true, 4}}) {
        HybridConfig cfg;
        cfg.backend = BackendKind::kCpu;
        cfg.frames = 5;
        cfg.cpu_threads = 2;
        cfg.decode_workers = c.overlap ? c.workers : 0;
        std::vector<std::size_t> order;
        cfg.frame_sink = [&order](std::size_t index, const Frame&) {
            order.push_back(index);
        };
        HybridPipeline(seq, layout, period, cfg).run();
        ASSERT_EQ(order.size(), cfg.frames)
            << "overlap=" << c.overlap << " workers=" << c.workers;
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i)
                << "overlap=" << c.overlap << " workers=" << c.workers;
    }
}

}  // namespace
}  // namespace htims::pipeline
