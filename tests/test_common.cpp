// Tests for src/common: RNG determinism and distribution moments, fixed
// point semantics, statistics, the thread pool, and the table emitter.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "pipeline/cpu_backend.hpp"

namespace htims {
namespace {

// ---------------------------------------------------------------- RNG ----

TEST(Rng, SameSeedSameStream) {
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next_u64() == b.next_u64()) ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    double lo = 1.0, hi = 0.0, sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        lo = std::min(lo, u);
        hi = std::max(hi, u);
        sum += u;
    }
    EXPECT_GE(lo, 0.0);
    EXPECT_LT(hi, 1.0);
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, PoissonSmallMean) {
    Rng rng(5);
    const double lambda = 3.7;
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(static_cast<double>(rng.poisson(lambda)));
    EXPECT_NEAR(stats.mean(), lambda, 0.05);
    EXPECT_NEAR(stats.variance(), lambda, 0.15);
}

TEST(Rng, PoissonLargeMeanUsesNormalBranch) {
    Rng rng(6);
    const double lambda = 400.0;
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(static_cast<double>(rng.poisson(lambda)));
    EXPECT_NEAR(stats.mean(), lambda, 1.0);
    EXPECT_NEAR(stats.stddev(), std::sqrt(lambda), 0.5);
}

TEST(Rng, PoissonZeroLambda) {
    Rng rng(1);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BelowIsUnbiasedAndInRange) {
    Rng rng(9);
    std::vector<int> counts(7, 0);
    const int n = 140000;
    for (int i = 0; i < n; ++i) ++counts[rng.below(7)];
    for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 / 10);
}

TEST(Rng, ExponentialMean) {
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(4.0));
    EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonRejectsNegativeLambda) {
    Rng rng(1);
    EXPECT_THROW(rng.poisson(-1.0), PreconditionError);
}

// -------------------------------------------------------------- Fixed ----

TEST(FixedPoint, RoundTripExactValues) {
    const QFormat q{16, 8};
    EXPECT_DOUBLE_EQ(Fixed(1.5, q).to_double(), 1.5);
    EXPECT_DOUBLE_EQ(Fixed(-2.25, q).to_double(), -2.25);
    EXPECT_DOUBLE_EQ(Fixed(0.0, q).to_double(), 0.0);
}

TEST(FixedPoint, QuantizationStep) {
    const QFormat q{16, 8};
    EXPECT_DOUBLE_EQ(q.lsb(), 1.0 / 256.0);
    // A value between steps rounds to the nearest representable.
    EXPECT_NEAR(Fixed(0.001, q).to_double(), 0.0, q.lsb());
}

TEST(FixedPoint, SaturatesAtRails) {
    const QFormat q{8, 4};  // range [-8, 7.9375]
    EXPECT_DOUBLE_EQ(Fixed(100.0, q).to_double(), q.max_value());
    EXPECT_DOUBLE_EQ(Fixed(-100.0, q).to_double(), q.min_value());
}

TEST(FixedPoint, InvalidFormatRejected) {
    EXPECT_THROW(validate(QFormat{1, 0}), ConfigError);
    EXPECT_THROW(validate(QFormat{64, 8}), ConfigError);
    EXPECT_THROW(validate(QFormat{16, 16}), ConfigError);
}

// --------------------------------------------------------- Statistics ----

TEST(Statistics, RunningStatsMatchesBatch) {
    Rng rng(3);
    RunningStats stats;
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.gaussian(5.0, 2.0);
        stats.add(x);
        xs.push_back(x);
    }
    EXPECT_NEAR(stats.mean(), mean(xs), 1e-9);
    EXPECT_NEAR(stats.stddev(), stddev(xs), 1e-9);
}

TEST(Statistics, RunningStatsMerge) {
    Rng rng(4);
    RunningStats all, a, b;
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniform(0.0, 10.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Statistics, PercentileEndpoints) {
    std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

TEST(Statistics, MadSigmaGaussian) {
    Rng rng(8);
    std::vector<double> xs(50000);
    for (auto& x : xs) x = rng.gaussian(10.0, 3.0);
    EXPECT_NEAR(mad_sigma(xs), 3.0, 0.1);
}

TEST(Statistics, MadSigmaRobustToPeaks) {
    Rng rng(8);
    std::vector<double> xs(10000);
    for (auto& x : xs) x = rng.gaussian(0.0, 1.0);
    // Contaminate 1% with huge "peaks"; the robust sigma should not move much.
    for (int i = 0; i < 100; ++i) xs[static_cast<std::size_t>(i) * 100] = 1e6;
    EXPECT_NEAR(mad_sigma(xs), 1.0, 0.1);
}

TEST(Statistics, SpectrumSnr) {
    std::vector<double> s(1000, 0.0);
    Rng rng(2);
    for (auto& v : s) v = rng.gaussian(0.0, 1.0);
    s[500] = 50.0;
    const double snr = spectrum_snr(s);
    EXPECT_GT(snr, 30.0);
    EXPECT_LT(snr, 70.0);
}

TEST(Statistics, RegionSnrExcludesPeakFromNoise) {
    std::vector<double> s(1000);
    Rng rng(2);
    for (auto& v : s) v = rng.gaussian(0.0, 1.0);
    s[500] = 20.0;
    EXPECT_NEAR(region_snr(s, 495, 505), 20.0, 5.0);
}

TEST(Statistics, RmseAndCorrelation) {
    std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> b = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(rmse(a, b), 0.0);
    EXPECT_DOUBLE_EQ(correlation(a, b), 1.0);
    std::vector<double> c = {4.0, 3.0, 2.0, 1.0};
    EXPECT_DOUBLE_EQ(correlation(a, c), -1.0);
}

TEST(Statistics, LinearFitRecoversLine) {
    std::vector<double> x, y;
    for (int i = 0; i < 100; ++i) {
        x.push_back(i);
        y.push_back(3.0 + 2.0 * i);
    }
    const auto fit = linear_fit(x, y);
    EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
    EXPECT_NEAR(fit.slope, 2.0, 1e-9);
}

// --------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, RunsAllSubmittedTasks) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(10000);
    pool.parallel_for(hits.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
    ThreadPool pool(2);
    bool called = false;
    pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
    ThreadPool pool(1);
    std::vector<int> order;
    pool.parallel_for(5, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order.size(), 5u);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturns) {
    ThreadPool pool(2);
    pool.wait_idle();  // must not hang
    SUCCEED();
}

std::size_t live_threads() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

// A one-thread pool is its caller: it starts no worker that would only
// park, and still runs every submitted task. So does the one-thread decode
// backend each fleet decode worker builds.
TEST(ThreadPool, OneThreadStartsNoThread) {
    if (!std::filesystem::exists("/proc/self/task"))
        GTEST_SKIP() << "no /proc/self/task to count threads in";
    const std::size_t before = live_threads();
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(live_threads(), before);
    int ran = 0;
    for (int i = 0; i < 10; ++i) pool.submit([&ran] { ++ran; });
    pool.wait_idle();
    EXPECT_EQ(ran, 10);

    const prs::OversampledPrs seq(5, 2, prs::GateMode::kPulsed);
    const pipeline::FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 9,
                                       .drift_bin_width_s = 1e-4};
    pipeline::CpuBackend cpu(seq, layout, 1);
    EXPECT_EQ(cpu.threads(), 1u);
    pipeline::Frame raw(layout);
    raw.fill(3.0);
    (void)cpu.deconvolve(raw);
    EXPECT_EQ(live_threads(), before);
}

// -------------------------------------------------------------- Table ----

TEST(Table, AlignedOutputContainsCells) {
    Table t("demo");
    t.set_header({"name", "value"});
    t.add_row({std::string("alpha"), std::int64_t{42}});
    t.add_row({std::string("beta"), 3.14159});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("3.142"), std::string::npos);
    EXPECT_NE(out.find("demo"), std::string::npos);
}

TEST(Table, CsvOutput) {
    Table t;
    t.set_header({"a", "b"});
    t.add_row({std::int64_t{1}, std::int64_t{2}});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchRejected) {
    Table t;
    t.set_header({"a", "b"});
    EXPECT_THROW(t.add_row({std::int64_t{1}}), PreconditionError);
}

// ------------------------------------------------------------ Aligned ----

TEST(AlignedVector, IsCacheAligned) {
    AlignedVector<double> v(100);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLine, 0u);
}

}  // namespace
}  // namespace htims
