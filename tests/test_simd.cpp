// Tests for the batched multi-lane SIMD deconvolution path: the runtime
// dispatch shim, fwht_batch vs per-lane scalar FWHT, Deconvolver /
// EnhancedDeconvolver decode_batch parity against the scalar oracle
// (including ragged lane counts), the Frame tile transpose, the grained
// ThreadPool::parallel_for, and the CpuBackend batched frame path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/frame.hpp"
#include "prs/oversampled.hpp"
#include "prs/sequence.hpp"
#include "transform/deconvolver.hpp"
#include "transform/enhanced.hpp"
#include "transform/fwht.hpp"

namespace htims {
namespace {

using pipeline::Frame;
using pipeline::FrameLayout;
using prs::GateMode;
using prs::MSequence;
using prs::OversampledPrs;

// The batched path promises bit-identical per-lane results; 1e-12 is the
// acceptance bound, 0 the expectation.
constexpr double kParityTol = 1e-12;

// ------------------------------------------------------------ dispatch ----

TEST(Simd, TierIsCoherent) {
    const SimdTier tier = simd_tier();
    EXPECT_STRNE(simd_tier_name(tier), "unknown");
    EXPECT_GE(simd_register_lanes(tier), 1u);
    const std::size_t lanes = batch_lanes();
    EXPECT_TRUE(lanes == 4 || lanes == 8);
    // The default tile width always holds a whole number of registers.
    EXPECT_EQ(lanes % simd_register_lanes(tier), 0u);
}

TEST(Simd, TierNamesAreDistinct) {
    EXPECT_STREQ(simd_tier_name(SimdTier::kGeneric), "generic");
    EXPECT_STREQ(simd_tier_name(SimdTier::kAvx2), "avx2");
    EXPECT_STREQ(simd_tier_name(SimdTier::kAvx512), "avx512");
    EXPECT_STREQ(simd_tier_name(SimdTier::kNeon), "neon");
}

// ----------------------------------------------------------- fwht_batch ----

// Build a lane-interleaved buffer from `lanes` independent random vectors,
// transform both ways, and require exact agreement. Lane counts that are
// multiples of 8, of 4, of 2, and of nothing exercise every kernel the host
// dispatch table can reach (wide, narrow, fixed, ragged-any).
class FwhtBatchParity : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(FwhtBatchParity, MatchesScalarPerLane) {
    const auto [n, lanes] = GetParam();
    Rng rng(17 + static_cast<std::uint32_t>(n + lanes));
    std::vector<AlignedVector<double>> ref(lanes, AlignedVector<double>(n));
    AlignedVector<double> batch(n * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t j = 0; j < n; ++j) {
            ref[l][j] = rng.uniform(-100.0, 100.0);
            batch[j * lanes + l] = ref[l][j];
        }
    }
    for (auto& r : ref) transform::fwht(r);
    transform::fwht_batch(batch, lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        for (std::size_t j = 0; j < n; ++j)
            ASSERT_EQ(batch[j * lanes + l], ref[l][j]) << "lane=" << l << " node=" << j;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndLanes, FwhtBatchParity,
    ::testing::Combine(::testing::Values<std::size_t>(8, 256, 2048),
                       ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 8, 16)));

TEST(FwhtBatch, RejectsNonPowerOfTwoNodeCount) {
    AlignedVector<double> bad(6 * 4, 1.0);
    EXPECT_THROW(transform::fwht_batch(bad, 4), PreconditionError);
}

TEST(FwhtBatch, RejectsSizeNotDivisibleByLanes) {
    AlignedVector<double> bad(10, 1.0);
    EXPECT_THROW(transform::fwht_batch(bad, 4), PreconditionError);
}

TEST(FwhtBatch, SingleNodeIsIdentity) {
    AlignedVector<double> one = {3.0, -1.0, 2.0, 0.5};
    transform::fwht_batch(one, 4);
    EXPECT_DOUBLE_EQ(one[0], 3.0);
    EXPECT_DOUBLE_EQ(one[3], 0.5);
}

// --------------------------------------------------- Deconvolver batch ----

class DecodeBatchParity : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(DecodeBatchParity, MatchesScalarDecode) {
    const auto [order, lanes] = GetParam();
    const MSequence seq(order);
    const transform::Deconvolver d(seq);
    const std::size_t n = seq.length();
    Rng rng(23 + static_cast<std::uint32_t>(order));
    std::vector<AlignedVector<double>> y(lanes, AlignedVector<double>(n));
    AlignedVector<double> yb(n * lanes), xb(n * lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        for (std::size_t t = 0; t < n; ++t) {
            y[l][t] = rng.uniform(-5.0, 250.0);
            yb[t * lanes + l] = y[l][t];
        }
    auto ws = d.make_workspace();
    auto wsb = d.make_batch_workspace(lanes);
    d.decode_batch(yb, xb, wsb);
    AlignedVector<double> x(n);
    for (std::size_t l = 0; l < lanes; ++l) {
        d.decode(y[l], x, ws);
        for (std::size_t k = 0; k < n; ++k)
            ASSERT_NEAR(xb[k * lanes + l], x[k], kParityTol)
                << "lane=" << l << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(OrdersAndLanes, DecodeBatchParity,
                         ::testing::Combine(::testing::Values(6, 9, 11),
                                            ::testing::Values<std::size_t>(3, 4, 8)));

TEST(DecodeBatch, SizeMismatchRejected) {
    const MSequence seq(6);
    const transform::Deconvolver d(seq);
    auto ws = d.make_batch_workspace(4);
    AlignedVector<double> y(seq.length() * 4, 0.0);
    AlignedVector<double> bad(seq.length() * 3, 0.0);
    EXPECT_THROW(d.decode_batch(y, bad, ws), PreconditionError);
}

// ------------------------------------------- EnhancedDeconvolver batch ----

using EnhancedBatchParam = std::tuple<int, int, GateMode, std::size_t>;

class EnhancedBatchParity : public ::testing::TestWithParam<EnhancedBatchParam> {};

TEST_P(EnhancedBatchParity, MatchesScalarDecode) {
    const auto [order, factor, mode, lanes] = GetParam();
    const OversampledPrs prs(order, factor, mode);
    const transform::EnhancedDeconvolver d(prs);
    const std::size_t n = prs.length();
    Rng rng(31 + static_cast<std::uint32_t>(order * factor));
    std::vector<AlignedVector<double>> y(lanes, AlignedVector<double>(n));
    AlignedVector<double> yb(n * lanes), xb(n * lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        for (std::size_t t = 0; t < n; ++t) {
            y[l][t] = rng.uniform(0.0, 200.0);
            yb[t * lanes + l] = y[l][t];
        }
    auto ws = d.make_workspace();
    auto wsb = d.make_batch_workspace(lanes);
    d.decode_batch(yb, xb, wsb);
    AlignedVector<double> x(n);
    for (std::size_t l = 0; l < lanes; ++l) {
        d.decode(y[l], x, ws);
        for (std::size_t k = 0; k < n; ++k)
            ASSERT_NEAR(xb[k * lanes + l], x[k], kParityTol)
                << "order=" << order << " factor=" << factor << " lane=" << l
                << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersFactorsModes, EnhancedBatchParity,
    ::testing::Combine(::testing::Values(6, 9, 11), ::testing::Values(1, 2, 4),
                       ::testing::Values(GateMode::kPulsed, GateMode::kStretched),
                       ::testing::Values<std::size_t>(4, 8)));

// Ragged lane count through the full enhanced decoder (generic kernel).
TEST(EnhancedBatch, RaggedLaneCountMatchesScalar) {
    const OversampledPrs prs(7, 2, GateMode::kStretched);
    const transform::EnhancedDeconvolver d(prs);
    const std::size_t lanes = 5;
    const std::size_t n = prs.length();
    Rng rng(37);
    AlignedVector<double> yb(n * lanes), xb(n * lanes);
    std::vector<AlignedVector<double>> y(lanes, AlignedVector<double>(n));
    for (std::size_t l = 0; l < lanes; ++l)
        for (std::size_t t = 0; t < n; ++t) {
            y[l][t] = rng.uniform(0.0, 50.0);
            yb[t * lanes + l] = y[l][t];
        }
    auto wsb = d.make_batch_workspace(lanes);
    d.decode_batch(yb, xb, wsb);
    auto ws = d.make_workspace();
    AlignedVector<double> x(n);
    for (std::size_t l = 0; l < lanes; ++l) {
        d.decode(y[l], x, ws);
        for (std::size_t k = 0; k < n; ++k)
            ASSERT_NEAR(xb[k * lanes + l], x[k], kParityTol);
    }
}

// ------------------------------------------------------- Frame tiles ----

TEST(FrameTiles, GatherMatchesDriftProfiles) {
    const FrameLayout layout{.drift_bins = 16, .mz_bins = 10, .drift_bin_width_s = 1e-4};
    Frame f(layout);
    Rng rng(41);
    for (double& v : f.data()) v = rng.uniform(0.0, 9.0);
    const std::size_t lanes = 4, mz0 = 3;
    AlignedVector<double> tile(layout.drift_bins * lanes);
    f.gather_tile(mz0, lanes, tile);
    AlignedVector<double> col(layout.drift_bins);
    for (std::size_t l = 0; l < lanes; ++l) {
        f.drift_profile(mz0 + l, col);
        for (std::size_t dd = 0; dd < layout.drift_bins; ++dd)
            EXPECT_DOUBLE_EQ(tile[dd * lanes + l], col[dd]);
    }
}

TEST(FrameTiles, ScatterRoundTrips) {
    const FrameLayout layout{.drift_bins = 8, .mz_bins = 12, .drift_bin_width_s = 1e-4};
    Frame src(layout), dst(layout);
    Rng rng(43);
    for (double& v : src.data()) v = rng.uniform(-1.0, 1.0);
    AlignedVector<double> tile(layout.drift_bins * 4);
    for (std::size_t mz0 : {std::size_t{0}, std::size_t{4}, std::size_t{8}}) {
        src.gather_tile(mz0, 4, tile);
        dst.scatter_tile(mz0, 4, tile);
    }
    for (std::size_t i = 0; i < src.data().size(); ++i)
        EXPECT_DOUBLE_EQ(dst.data()[i], src.data()[i]);
}

TEST(FrameTiles, OutOfRangeRejected) {
    const FrameLayout layout{.drift_bins = 4, .mz_bins = 6, .drift_bin_width_s = 1e-4};
    Frame f(layout);
    AlignedVector<double> tile(layout.drift_bins * 4);
    EXPECT_THROW(f.gather_tile(4, 4, tile), PreconditionError);
    EXPECT_THROW(f.scatter_tile(4, 4, tile), PreconditionError);
}

// -------------------------------------------------- parallel_for grain ----

TEST(ParallelForGrain, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                std::size_t{1000}}) {
        for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{13},
                                        std::size_t{2000}}) {
            std::vector<std::atomic<int>> hits(n);
            for (auto& h : hits) h.store(0);
            pool.parallel_for(
                n,
                [&](std::size_t lo, std::size_t hi) {
                    ASSERT_LE(lo, hi);
                    ASSERT_LE(hi, n);
                    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
                },
                grain);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain;
        }
    }
}

TEST(ParallelForGrain, ExplicitGrainBoundsChunkSize) {
    ThreadPool pool(4);
    const std::size_t n = 100, grain = 30;
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    pool.parallel_for(
        n,
        [&](std::size_t lo, std::size_t hi) {
            std::lock_guard lock(mu);
            ranges.emplace_back(lo, hi);
        },
        grain);
    std::size_t covered = 0;
    for (const auto& [lo, hi] : ranges) {
        covered += hi - lo;
        // Every chunk except the last holds at least `grain` indices.
        if (hi != n) {
            EXPECT_GE(hi - lo, grain);
        }
    }
    EXPECT_EQ(covered, n);
}

TEST(ParallelForGrain, MutableStateCallableCompiles) {
    // The template front-end must accept non-const callables (the old
    // std::function signature silently copied them). Every worker invokes
    // the one object, so its non-const call operator touches only an
    // atomic.
    ThreadPool pool(2);
    struct Body {
        std::atomic<std::size_t>* total;
        void operator()(std::size_t lo, std::size_t hi) { total->fetch_add(hi - lo); }
    };
    std::atomic<std::size_t> total{0};
    Body body{&total};
    pool.parallel_for(256, body, 16);
    EXPECT_EQ(total.load(), 256u);
}

// ------------------------------------------------- CpuBackend batched ----

class CpuBackendParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CpuBackendParity, BatchedMatchesScalarIncludingRaggedTail) {
    const std::size_t mz_bins = GetParam();  // chosen to leave ragged tails
    const OversampledPrs seq(6, 2, GateMode::kPulsed);
    const FrameLayout layout{.drift_bins = seq.length(),
                             .mz_bins = mz_bins,
                             .drift_bin_width_s = 1e-4};
    Frame raw(layout);
    Rng rng(47);
    for (double& v : raw.data()) v = rng.uniform(0.0, 255.0);
    pipeline::CpuBackend cpu(seq, layout, 2);
    const Frame batched = cpu.deconvolve(raw);
    const Frame scalar = cpu.deconvolve_scalar(raw);
    for (std::size_t i = 0; i < batched.data().size(); ++i)
        ASSERT_NEAR(batched.data()[i], scalar.data()[i], kParityTol) << "i=" << i;
}

// 3: below any lane width (all tail); 19: 2 tiles of 8 + 3 or 4 tiles of
// 4 + 3; 32: exact multiple of both supported widths.
INSTANTIATE_TEST_SUITE_P(MzWidths, CpuBackendParity,
                         ::testing::Values<std::size_t>(3, 19, 32));

TEST(CpuBackend, StretchedModeBatchedMatchesScalar) {
    const OversampledPrs seq(6, 2, GateMode::kStretched);
    const FrameLayout layout{.drift_bins = seq.length(),
                             .mz_bins = 13,
                             .drift_bin_width_s = 1e-4};
    Frame raw(layout);
    Rng rng(53);
    for (double& v : raw.data()) v = rng.uniform(0.0, 100.0);
    pipeline::CpuBackend cpu(seq, layout, 2);
    const Frame batched = cpu.deconvolve(raw);
    const Frame scalar = cpu.deconvolve_scalar(raw);
    for (std::size_t i = 0; i < batched.data().size(); ++i)
        ASSERT_NEAR(batched.data()[i], scalar.data()[i], kParityTol);
}

TEST(CpuBackend, SustainedRateAveragesOverAllFrames) {
    const OversampledPrs seq(5, 1, GateMode::kPulsed);
    const FrameLayout layout{.drift_bins = seq.length(),
                             .mz_bins = 8,
                             .drift_bin_width_s = 1e-4};
    Frame raw(layout);
    Rng rng(59);
    for (double& v : raw.data()) v = rng.uniform(0.0, 10.0);
    pipeline::CpuBackend cpu(seq, layout, 1);
    EXPECT_EQ(cpu.frames_decoded(), 0u);
    EXPECT_DOUBLE_EQ(cpu.sustained_sample_rate(4), 0.0);
    (void)cpu.deconvolve(raw);
    (void)cpu.deconvolve(raw);
    (void)cpu.deconvolve(raw);
    EXPECT_EQ(cpu.frames_decoded(), 3u);
    EXPECT_GE(cpu.total_seconds(), cpu.last_seconds());
    const std::size_t averages = 4;
    const double expected = static_cast<double>(averages) *
                            static_cast<double>(layout.cells()) * 3.0 /
                            cpu.total_seconds();
    EXPECT_NEAR(cpu.sustained_sample_rate(averages), expected, expected * 1e-9);
}

}  // namespace
}  // namespace htims
