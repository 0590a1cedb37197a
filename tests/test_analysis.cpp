// Tests for the downstream-analysis extensions: spectrum filters, 2-D
// feature finding with isotope grouping, mass calibration, frame
// serialization, the TDC detection mode, and the binomial sampler.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/statistics.hpp"
#include "core/feature_finder.hpp"
#include "core/mass_calibration.hpp"
#include "core/experiment.hpp"
#include "core/simulator.hpp"
#include "instrument/peptide_library.hpp"
#include "pipeline/frame_io.hpp"
#include "transform/filters.hpp"

namespace htims {
namespace {

// ------------------------------------------------------------ Filters ----

AlignedVector<double> gaussian_peak(std::size_t n, double center, double sigma,
                                    double height) {
    AlignedVector<double> x(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double d = (static_cast<double>(i) - center) / sigma;
        x[i] = height * std::exp(-0.5 * d * d);
    }
    return x;
}

TEST(Filters, MovingAveragePreservesConstant) {
    AlignedVector<double> x(100, 3.5);
    const auto y = transform::moving_average(x, 7);
    for (double v : y) EXPECT_NEAR(v, 3.5, 1e-12);
}

TEST(Filters, MovingAverageIsCircular) {
    AlignedVector<double> x(10, 0.0);
    x[0] = 10.0;
    const auto y = transform::moving_average(x, 3);
    EXPECT_NEAR(y[9], 10.0 / 3.0, 1e-12);  // wraps around the end
    EXPECT_NEAR(y[1], 10.0 / 3.0, 1e-12);
    EXPECT_NEAR(y[5], 0.0, 1e-12);
}

TEST(Filters, SavitzkyGolayPreservesQuadratic) {
    // A quadratic signal is reproduced exactly by a quadratic SG filter
    // (away from wrap effects — use a periodic-safe segment).
    AlignedVector<double> x(64);
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double t = static_cast<double>(i);
        x[i] = 2.0 + 0.3 * t + 0.01 * t * t;
    }
    const auto y = transform::savitzky_golay(x, 7);
    for (std::size_t i = 4; i + 4 < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-9);
}

TEST(Filters, SavitzkyGolayBeatsBoxcarOnPeakHeight) {
    const auto x = gaussian_peak(128, 64.0, 2.5, 100.0);
    const auto sg = transform::savitzky_golay(x, 7);
    const auto box = transform::moving_average(x, 7);
    EXPECT_GT(sg[64], box[64]);        // less peak attenuation
    EXPECT_GT(sg[64], 0.9 * x[64]);    // and near-lossless
}

TEST(Filters, SavitzkyGolayImprovesSnr) {
    Rng rng(5);
    auto x = gaussian_peak(512, 256.0, 3.0, 20.0);
    for (auto& v : x) v += rng.gaussian(0.0, 2.0);
    const double before = region_snr(x, 246, 266);
    const auto y = transform::savitzky_golay(x, 9);
    const double after = region_snr(y, 246, 266);
    EXPECT_GT(after, before);
}

TEST(Filters, MedianRemovesSingleBinSpike) {
    auto x = gaussian_peak(128, 64.0, 3.0, 50.0);
    x[20] = 500.0;  // impulse artifact
    const auto y = transform::median_filter(x, 3);
    EXPECT_LT(y[20], 5.0);                // spike gone
    EXPECT_NEAR(y[64], x[64], x[64] * 0.1);  // broad peak kept
}

TEST(Filters, RollingBaselineFollowsDriftNotPeaks) {
    AlignedVector<double> x(256);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 10.0 + 5.0 * std::sin(2.0 * 3.14159265 * static_cast<double>(i) / 256.0);
    const auto peak = gaussian_peak(256, 128.0, 2.0, 80.0);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += peak[i];
    const auto base = transform::rolling_baseline(x, 31);
    EXPECT_NEAR(base[40], x[40], 2.0);       // follows the slow sweep
    EXPECT_LT(base[128], 20.0);              // ignores the sharp peak
    const auto corrected = transform::baseline_corrected(x, 31);
    EXPECT_GT(corrected[128], 70.0);
    EXPECT_LT(corrected[40], 3.0);
}

TEST(Filters, InvalidWindowsRejected) {
    AlignedVector<double> x(32, 1.0);
    EXPECT_THROW(transform::moving_average(x, 4), ConfigError);
    EXPECT_THROW(transform::moving_average(x, 33), ConfigError);
    EXPECT_THROW(transform::savitzky_golay(x, 13), ConfigError);
}

// ------------------------------------------------------ FeatureFinder ----

TEST(FeatureFinder, FindsIsotopeClusterWithCharge) {
    // Build a frame with one synthetic 2+ isotope series plus noise. The
    // m/z axis must actually resolve the 0.5-Th isotope spacing, so use a
    // narrow range at fine binning (0.037 Th/bin).
    instrument::TofConfig tof_cfg;
    tof_cfg.mz_min = 400.0;
    tof_cfg.mz_max = 1000.0;
    tof_cfg.bins = 16384;
    const instrument::TofAnalyzer tof(tof_cfg);
    pipeline::FrameLayout layout{.drift_bins = 64, .mz_bins = tof_cfg.bins,
                                 .drift_bin_width_s = 1e-4};
    pipeline::Frame frame(layout);
    Rng rng(9);
    for (double& v : frame.data()) v = std::max(0.0, rng.gaussian(0.0, 0.2));

    instrument::IonSpecies ion;
    ion.name = "pep";
    ion.mz = 650.0;
    ion.charge = 2;
    auto row = frame.record(30);
    tof.deposit(ion, 5000.0, 0.0, row);

    core::FeatureFindOptions opts;
    opts.min_snr = 8.0;
    opts.mz_tolerance = 0.1;
    const auto features = core::find_features(frame, tof, opts);
    ASSERT_FALSE(features.empty());
    const auto& top = features.front();
    EXPECT_EQ(top.charge, 2);
    EXPECT_GE(top.isotope_count, 2u);
    EXPECT_EQ(top.drift_bin, 30u);
    EXPECT_NEAR(top.monoisotopic_mz, 650.0, 1.0);
    EXPECT_NEAR(top.neutral_mass(), (650.0 - 1.00728) * 2.0, 2.0);
}

TEST(FeatureFinder, SeparatesTwoDriftAlignedSpecies) {
    instrument::TofConfig tof_cfg;
    tof_cfg.mz_min = 400.0;
    tof_cfg.mz_max = 1000.0;
    tof_cfg.bins = 16384;
    const instrument::TofAnalyzer tof(tof_cfg);
    pipeline::FrameLayout layout{.drift_bins = 64, .mz_bins = tof_cfg.bins,
                                 .drift_bin_width_s = 1e-4};
    pipeline::Frame frame(layout);
    Rng rng(10);
    for (double& v : frame.data()) v = std::max(0.0, rng.gaussian(0.0, 0.1));

    instrument::IonSpecies a, b;
    a.name = "a";
    a.mz = 500.0;
    a.charge = 2;
    b.name = "b";
    b.mz = 900.0;
    b.charge = 3;
    auto row_a = frame.record(20);
    tof.deposit(a, 4000.0, 0.0, row_a);
    auto row_b = frame.record(45);
    tof.deposit(b, 4000.0, 0.0, row_b);

    core::FeatureFindOptions opts;
    opts.min_snr = 8.0;
    opts.mz_tolerance = 0.1;
    const auto features = core::find_features(frame, tof, opts);
    ASSERT_GE(features.size(), 2u);
    bool saw_a = false, saw_b = false;
    for (const auto& f : features) {
        if (f.charge == 2 && std::abs(f.monoisotopic_mz - 500.0) < 1.0 &&
            f.drift_bin == 20)
            saw_a = true;
        if (f.charge == 3 && std::abs(f.monoisotopic_mz - 900.0) < 1.0 &&
            f.drift_bin == 45)
            saw_b = true;
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_b);
}

TEST(FeatureFinder, NoFeaturesOnFlatFrame) {
    instrument::TofConfig tof_cfg;
    tof_cfg.bins = 512;
    const instrument::TofAnalyzer tof(tof_cfg);
    pipeline::FrameLayout layout{.drift_bins = 32, .mz_bins = 512,
                                 .drift_bin_width_s = 1e-4};
    pipeline::Frame frame(layout);
    Rng rng(11);
    for (double& v : frame.data()) v = std::max(0.0, rng.gaussian(1.0, 0.3));
    core::FeatureFindOptions opts;
    opts.min_snr = 8.0;
    EXPECT_TRUE(core::find_frame_peaks(frame, tof, opts).empty());
}

TEST(FeatureFinder, EndToEndOnSimulatedCalibrationMix) {
    core::SimulatorConfig cfg = core::default_config();
    cfg.tof.mz_min = 450.0;
    cfg.tof.mz_max = 850.0;
    cfg.tof.bins = 16384;
    cfg.tof.mass_error_ppm = 0.0;
    cfg.acquisition.averages = 32;
    // Fine binning dilutes per-cell counts ~8x vs the default axis; run a
    // brighter acquisition so isotope peaks clear the SNR gate.
    auto mix = instrument::make_calibration_mix();
    for (auto& sp : mix.species) sp.intensity *= 10.0;
    core::Simulator sim(cfg, mix);
    const auto run = sim.run();
    const instrument::TofAnalyzer tof(cfg.tof);
    core::FeatureFindOptions opts;
    opts.min_snr = 6.0;
    opts.min_intensity = 1.0;
    opts.mz_tolerance = 0.1;
    const auto features = core::find_features(run.deconvolved, tof, opts);
    // At least half of the 9 species should come back as charged features
    // with the correct charge state.
    std::size_t correct = 0;
    for (const auto& sp : sim.engine().source().mixture().species)
        for (const auto& f : features)
            if (f.charge == sp.charge && std::abs(f.monoisotopic_mz - sp.mz) < 1.0) {
                ++correct;
                break;
            }
    EXPECT_GE(correct, 5u);
}

// ---------------------------------------------------- MassCalibration ----

TEST(MassCalibration, RecoversSystematicOffset) {
    core::SimulatorConfig cfg = core::default_config();
    cfg.tof.bins = 32768;
    cfg.tof.mz_min = 400.0;
    cfg.tof.mz_max = 1600.0;
    cfg.tof.mass_error_ppm = 30.0;  // systematic miscalibration
    cfg.acquisition.averages = 16;
    core::Simulator sim(cfg, instrument::make_calibration_mix());
    const auto run = sim.run();
    const instrument::TofAnalyzer tof(cfg.tof);

    const auto measurements = core::measure_masses(
        run.deconvolved, tof, run.acquisition.traces,
        sim.engine().source().mixture().species);
    ASSERT_GE(measurements.size(), 6u);

    const auto raw = core::summarize_ppm(measurements);
    EXPECT_GT(raw.mean_abs, 15.0);  // the injected error is visible

    // Internal calibration from three calibrants, evaluated on the rest.
    std::vector<core::MassMeasurement> calibrants(measurements.begin(),
                                                  measurements.begin() + 3);
    std::vector<core::MassMeasurement> analytes(measurements.begin() + 3,
                                                measurements.end());
    const auto cal = core::fit_calibration(calibrants);
    const auto corrected = core::summarize_ppm(analytes, &cal);
    EXPECT_LT(corrected.mean_abs, raw.mean_abs / 2.0);
    EXPECT_LT(corrected.mean_abs, 10.0);
}

TEST(MassCalibration, SingleCalibrantFitsOffset) {
    std::vector<core::MassMeasurement> cal(1);
    cal[0].name = "c";
    cal[0].true_mz = 1000.0;
    cal[0].measured_mz = 1000.02;
    const auto fit = core::fit_calibration(cal);
    EXPECT_NEAR(fit.apply(1000.02), 1000.0, 1e-9);
    EXPECT_DOUBLE_EQ(fit.slope, 1.0);
}

TEST(MassCalibration, PpmSummaryMath) {
    std::vector<core::MassMeasurement> ms(2);
    ms[0].true_mz = 1000.0;
    ms[0].measured_mz = 1000.001;  // +1 ppm
    ms[1].true_mz = 500.0;
    ms[1].measured_mz = 499.9995;  // -1 ppm
    const auto s = core::summarize_ppm(ms);
    EXPECT_NEAR(s.mean_abs, 1.0, 1e-6);
    EXPECT_NEAR(s.max_abs, 1.0, 1e-6);
    EXPECT_NEAR(s.rms, 1.0, 1e-6);
}

// ------------------------------------------------------------ FrameIO ----

TEST(FrameIO, RoundTripPreservesEverything) {
    pipeline::FrameLayout layout{.drift_bins = 62, .mz_bins = 33,
                                 .drift_bin_width_s = 2.5e-5};
    pipeline::Frame frame(layout);
    Rng rng(12);
    for (double& v : frame.data()) v = rng.uniform(0.0, 1e6);

    std::stringstream ss;
    pipeline::write_frame(ss, frame);
    const pipeline::Frame back = pipeline::read_frame(ss);
    EXPECT_EQ(back.layout(), layout);
    for (std::size_t i = 0; i < frame.data().size(); ++i)
        EXPECT_DOUBLE_EQ(back.data()[i], frame.data()[i]);
}

TEST(FrameIO, DetectsCorruption) {
    pipeline::FrameLayout layout{.drift_bins = 8, .mz_bins = 8,
                                 .drift_bin_width_s = 1e-4};
    pipeline::Frame frame(layout);
    frame.fill(1.0);
    std::stringstream ss;
    pipeline::write_frame(ss, frame);
    std::string buf = ss.str();
    buf[80] ^= 0x01;  // flip a payload bit
    std::stringstream corrupted(buf);
    EXPECT_THROW(pipeline::read_frame(corrupted), Error);
}

TEST(FrameIO, DetectsBadMagicAndTruncation) {
    pipeline::FrameLayout layout{.drift_bins = 8, .mz_bins = 8,
                                 .drift_bin_width_s = 1e-4};
    pipeline::Frame frame(layout);
    std::stringstream ss;
    pipeline::write_frame(ss, frame);
    std::string buf = ss.str();

    std::string bad_magic = buf;
    bad_magic[0] = 'X';
    std::stringstream s1(bad_magic);
    EXPECT_THROW(pipeline::read_frame(s1), Error);

    std::stringstream s2(buf.substr(0, buf.size() / 2));
    EXPECT_THROW(pipeline::read_frame(s2), Error);
}

TEST(FrameIO, CrcMismatchReportsCleanDecodeError) {
    // Payload corruption must surface as the specific CRC diagnostic — a
    // clean decode error, not a garbage frame or an unrelated failure.
    pipeline::FrameLayout layout{.drift_bins = 8, .mz_bins = 8,
                                 .drift_bin_width_s = 1e-4};
    pipeline::Frame frame(layout);
    Rng rng(5);
    for (double& v : frame.data()) v = rng.uniform(0.0, 100.0);
    std::stringstream ss;
    pipeline::write_frame(ss, frame);
    std::string buf = ss.str();
    buf[64 + 11] ^= 0x40;  // flip one byte past the 64-byte header
    std::stringstream corrupted(buf);
    try {
        (void)pipeline::read_frame(corrupted);
        FAIL() << "corrupted payload decoded without error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
            << e.what();
    }
}

TEST(FrameIO, Crc32KnownVector) {
    // CRC-32 of "123456789" is the classic check value 0xCBF43926.
    const char data[] = "123456789";
    EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
    EXPECT_EQ(crc32_bytewise(data, 9), 0xCBF43926u);
}

// ---------------------------------------------------------------- TDC ----

TEST(Tdc, SaturatesAtOneCountPerPeriod) {
    instrument::DetectorConfig cfg;
    cfg.mode = instrument::DetectionMode::kTdc;
    const instrument::Detector det(cfg);
    Rng rng(13);
    AlignedVector<double> expected(1, 100.0);  // very bright
    AlignedVector<double> out(1);
    det.acquire_accumulated(expected, 64, out, rng);
    EXPECT_LE(out[0], 64.0);
    EXPECT_GE(out[0], 60.0);  // fires essentially every period
}

TEST(Tdc, LinearAtLowFlux) {
    instrument::DetectorConfig cfg;
    cfg.mode = instrument::DetectionMode::kTdc;
    cfg.dark_rate = 0.0;
    const instrument::Detector det(cfg);
    Rng rng(14);
    const std::size_t periods = 4000;
    AlignedVector<double> expected(1, 0.05);
    AlignedVector<double> out(1);
    RunningStats stats;
    for (int rep = 0; rep < 200; ++rep) {
        det.acquire_accumulated(expected, periods, out, rng);
        stats.add(out[0] / static_cast<double>(periods));
    }
    EXPECT_NEAR(stats.mean(), 1.0 - std::exp(-0.05), 0.002);
}

TEST(Tdc, ExpectedResponseCurve) {
    instrument::DetectorConfig cfg;
    cfg.mode = instrument::DetectionMode::kTdc;
    cfg.dark_rate = 0.0;
    const instrument::Detector det(cfg);
    EXPECT_NEAR(det.expected_response(0.1), 1.0 - std::exp(-0.1), 1e-12);
    EXPECT_LT(det.expected_response(10.0), 1.0);  // hard ceiling
}

// ---------------------------------------------------------- Binomial ----

TEST(Rng, BinomialMoments) {
    Rng rng(15);
    RunningStats small, large;
    for (int i = 0; i < 50000; ++i)
        small.add(static_cast<double>(rng.binomial(20, 0.3)));
    for (int i = 0; i < 50000; ++i)
        large.add(static_cast<double>(rng.binomial(1000, 0.25)));
    EXPECT_NEAR(small.mean(), 6.0, 0.1);
    EXPECT_NEAR(small.variance(), 20.0 * 0.3 * 0.7, 0.2);
    EXPECT_NEAR(large.mean(), 250.0, 1.0);
    EXPECT_NEAR(large.stddev(), std::sqrt(1000.0 * 0.25 * 0.75), 0.3);
}

TEST(Rng, BinomialEdgeCases) {
    Rng rng(16);
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(100, 0.0), 0u);
    EXPECT_EQ(rng.binomial(100, 1.0), 100u);
}

}  // namespace
}  // namespace htims
