// Tests for the batched multi-lane SIMD deconvolution path: the runtime
// dispatch shim, fwht_batch vs per-lane scalar FWHT, EnhancedDeconvolver
// decode_batch parity against the scalar oracle (ragged lane counts, rows
// wider than the tile, in place), the grained ThreadPool::parallel_for, the
// CpuBackend tile path against its scalar oracle, the
// dispatched CRC-32 kernel against the bytewise oracle, and the FPGA model's
// integer kernels: the int64 fwht_batch, the saturating accumulate and the
// output quantizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/frame.hpp"
#include "prs/oversampled.hpp"
#include "transform/enhanced.hpp"
#include "transform/fwht.hpp"

namespace htims {
namespace {

using pipeline::Frame;
using pipeline::FrameLayout;
using prs::GateMode;
using prs::OversampledPrs;

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

// The int64 twin, through the same dispatch table, against the double
// transform per lane. Inputs below 2^40 keep every partial sum of a
// 2048-point transform below 2^53, where the doubles are exact. 1-9 lanes
// reach every kernel of the host's table and both fixed-width fallbacks;
// 2048 nodes take the cache-blocked schedule at every lane count.
class FwhtBatchI64Parity
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(FwhtBatchI64Parity, MatchesDoubleTransformPerLane) {
    const auto [n, lanes] = GetParam();
    Rng rng(19 + static_cast<std::uint32_t>(n + lanes));
    std::vector<AlignedVector<double>> ref(lanes, AlignedVector<double>(n));
    AlignedVector<std::int64_t> batch(n * lanes);
    const std::int64_t span = std::int64_t{1} << 40;
    for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t j = 0; j < n; ++j) {
            const auto v = static_cast<std::int64_t>(
                               rng.below(2 * static_cast<std::uint64_t>(span))) -
                           span;
            batch[j * lanes + l] = v;
            ref[l][j] = static_cast<double>(v);
        }
    }
    for (auto& r : ref) transform::fwht(r);
    transform::fwht_batch(batch, lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        for (std::size_t j = 0; j < n; ++j)
            ASSERT_EQ(static_cast<double>(batch[j * lanes + l]), ref[l][j])
                << "tier " << simd_tier_name(simd_tier()) << ", lane " << l
                << ", node " << j;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndLanes, FwhtBatchI64Parity,
    ::testing::Combine(::testing::Values<std::size_t>(8, 256, 2048),
                       ::testing::Range<std::size_t>(1, 10)));

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

// ------------------------------------------- EnhancedDeconvolver batch ----

// `lanes` random records laid out as decode_batch reads them: element i of
// lane l at rows[i * stride + l], with stride - lanes padding columns of a
// sentinel the decode must leave alone.
struct LaneRows {
    std::vector<AlignedVector<double>> lane;  // each record on its own
    AlignedVector<double> rows;
};

constexpr double kPadding = -12345.0;

LaneRows random_lane_rows(std::size_t len, std::size_t lanes, std::size_t stride,
                          double hi, std::uint64_t seed) {
    LaneRows out{std::vector<AlignedVector<double>>(lanes, AlignedVector<double>(len)),
                 AlignedVector<double>(len * stride, kPadding)};
    Rng rng(seed);
    for (std::size_t l = 0; l < lanes; ++l)
        for (std::size_t i = 0; i < len; ++i) {
            out.lane[l][i] = rng.uniform(0.0, hi);
            out.rows[i * stride + l] = out.lane[l][i];
        }
    return out;
}

/// decode_batch out of place and in place against decode() on each lane,
/// bit for bit, with the padding columns untouched.
void expect_batch_matches_scalar(const transform::EnhancedDeconvolver& d, std::size_t lanes,
                                 std::size_t stride, double hi, std::uint64_t seed) {
    const std::size_t n = d.length();
    LaneRows in = random_lane_rows(n, lanes, stride, hi, seed);
    AlignedVector<double> xb(n * stride, kPadding);
    auto wsb = d.make_batch_workspace(lanes);
    d.decode_batch(in.rows, xb, stride, lanes, wsb);
    auto ws = d.make_workspace();
    AlignedVector<double> x(n);
    for (std::size_t l = 0; l < lanes; ++l) {
        d.decode(in.lane[l], x, ws);
        for (std::size_t k = 0; k < n; ++k)
            ASSERT_EQ(xb[k * stride + l], x[k]) << "lane=" << l << " k=" << k;
    }
    d.decode_batch(in.rows, in.rows, stride, lanes, wsb);
    ASSERT_EQ(in.rows, xb) << "in place";
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = lanes; l < stride; ++l)
            ASSERT_EQ(xb[k * stride + l], kPadding) << "padding column " << l;
}

// The batched simplex decode (EnhancedDeconvolver at F = 1, in contiguous
// L-lane rows) against the plain Deconvolver::decode on each lane.
class DecodeBatchParity : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(DecodeBatchParity, MatchesScalarDecode) {
    const auto [order, lanes] = GetParam();
    const OversampledPrs prs(order, 1, GateMode::kPulsed);
    const transform::Deconvolver d(prs.base());
    const transform::EnhancedDeconvolver batch(prs);
    const std::size_t n = prs.length();
    Rng rng(23 + static_cast<std::uint32_t>(order));
    std::vector<AlignedVector<double>> y(lanes, AlignedVector<double>(n));
    AlignedVector<double> yb(n * lanes), xb(n * lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        for (std::size_t t = 0; t < n; ++t) {
            y[l][t] = rng.uniform(-5.0, 250.0);
            yb[t * lanes + l] = y[l][t];
        }
    auto ws = d.make_workspace();
    auto wsb = batch.make_batch_workspace(lanes);
    batch.decode_batch(yb, xb, lanes, lanes, wsb);
    AlignedVector<double> x(n);
    for (std::size_t l = 0; l < lanes; ++l) {
        d.decode(y[l], x, ws);
        for (std::size_t k = 0; k < n; ++k)
            ASSERT_EQ(xb[k * lanes + l], x[k]) << "lane=" << l << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(OrdersAndLanes, DecodeBatchParity,
                         ::testing::Combine(::testing::Values(6, 9, 11),
                                            ::testing::Values<std::size_t>(3, 4, 8)));

using EnhancedBatchParam = std::tuple<int, int, GateMode, std::size_t>;

class EnhancedBatchParity : public ::testing::TestWithParam<EnhancedBatchParam> {};

// Lane counts 3 (no register multiple), 4 and 8, in rows two columns wider
// than the tile. F = 1 is the classic simplex decode in either gate mode.
TEST_P(EnhancedBatchParity, MatchesScalarDecode) {
    const auto [order, factor, mode, lanes] = GetParam();
    const OversampledPrs prs(order, factor, mode);
    const transform::EnhancedDeconvolver d(prs);
    expect_batch_matches_scalar(d, lanes, lanes + 2, 200.0,
                                31 + static_cast<std::uint64_t>(order * factor));
}

INSTANTIATE_TEST_SUITE_P(
    OrdersFactorsModes, EnhancedBatchParity,
    ::testing::Combine(::testing::Values(6, 9, 11), ::testing::Values(1, 2, 4),
                       ::testing::Values(GateMode::kPulsed, GateMode::kStretched),
                       ::testing::Values<std::size_t>(3, 4, 8)));

// Ragged lane count through the full enhanced decoder (generic kernel), in
// a workspace sized for more lanes and rows exactly the tile's width.
TEST(EnhancedBatch, RaggedLaneCountMatchesScalar) {
    const OversampledPrs prs(7, 2, GateMode::kStretched);
    const transform::EnhancedDeconvolver d(prs);
    const std::size_t lanes = 5;
    const std::size_t n = prs.length();
    LaneRows in = random_lane_rows(n, lanes, lanes, 50.0, 37);
    AlignedVector<double> xb(n * lanes);
    auto wsb = d.make_batch_workspace(8);
    d.decode_batch(in.rows, xb, lanes, lanes, wsb);
    auto ws = d.make_workspace();
    AlignedVector<double> x(n);
    for (std::size_t l = 0; l < lanes; ++l) {
        d.decode(in.lane[l], x, ws);
        for (std::size_t k = 0; k < n; ++k)
            ASSERT_EQ(xb[k * lanes + l], x[k]) << "lane=" << l << " k=" << k;
    }
}

TEST(EnhancedBatch, SizeMismatchRejected) {
    const OversampledPrs prs(6, 2, GateMode::kPulsed);
    const transform::EnhancedDeconvolver d(prs);
    auto ws = d.make_batch_workspace(4);
    const std::size_t n = prs.length();
    AlignedVector<double> y(n * 4, 0.0);
    AlignedVector<double> x(n * 4, 0.0);
    AlignedVector<double> short_rows((n - 1) * 4 + 3, 0.0);
    EXPECT_THROW(d.decode_batch(y, short_rows, 4, 4, ws), PreconditionError);
    EXPECT_THROW(d.decode_batch(short_rows, x, 4, 4, ws), PreconditionError);
    EXPECT_THROW(d.decode_batch(y, x, 3, 4, ws), PreconditionError);  // lanes > stride
    AlignedVector<double> wide(n * 8, 0.0);
    EXPECT_THROW(d.decode_batch(wide, wide, 8, 8, ws), PreconditionError);  // > ws.lanes
    EXPECT_THROW(d.decode_batch(y, x, 4, 0, ws), PreconditionError);
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
    const std::size_t mz_bins = GetParam();  // chosen to leave a ragged last tile
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
        ASSERT_EQ(batched.data()[i], scalar.data()[i]) << "i=" << i;
    // In place (the streaming engine's decode): bit-identical, full tiles
    // and the narrower last tile alike.
    cpu.deconvolve(raw, raw);
    for (std::size_t i = 0; i < batched.data().size(); ++i)
        ASSERT_EQ(raw.data()[i], batched.data()[i]) << "i=" << i;
}

// 3: below any lane width (one narrow tile); 19: 2 tiles of 8 + one of 3,
// or 4 tiles of 4 + one of 3; 32: exact multiple of both supported widths.
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
        ASSERT_EQ(batched.data()[i], scalar.data()[i]) << "i=" << i;
    cpu.deconvolve(raw, raw);  // in place: bit-identical
    for (std::size_t i = 0; i < batched.data().size(); ++i)
        ASSERT_EQ(raw.data()[i], batched.data()[i]) << "i=" << i;
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

// ---------------------------------------------------------------- crc32 ----
// The full run checks the host's kernel (the PCLMULQDQ fold on x86 hosts
// that report pclmul); check.sh's HTIMS_SIMD=generic rerun of the `kernels`
// label checks the table loop the other tiers dispatch.

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<unsigned char> bytes(n);
    Rng rng(seed);
    for (auto& b : bytes) b = static_cast<unsigned char>(rng.below(256));
    return bytes;
}

TEST(Crc32, DispatchedMatchesBytewiseAtEveryLengthAndOffset) {
    // Lengths 0-1024 cross the fold's 64-byte minimum, its 64-byte main
    // loop, its 16-byte single folds and every tail length; offsets 0-15
    // put each of them at every 16-byte alignment.
    const auto bytes = random_bytes(1024 + 16, 2026);
    for (std::size_t offset = 0; offset < 16; ++offset)
        for (std::size_t len = 0; len <= 1024; ++len)
            ASSERT_EQ(crc32(bytes.data() + offset, len),
                      crc32_bytewise(bytes.data() + offset, len))
                << "tier " << simd_tier_name(simd_tier()) << ", offset "
                << offset << ", length " << len;
}

TEST(Crc32, DispatchedMatchesBytewiseOnAFramePayload) {
    // One order-8, oversampling-2 frame of 256 m/z bins: 510 x 256 doubles.
    const auto bytes = random_bytes(std::size_t{510} * 256 * sizeof(double), 7);
    ASSERT_EQ(bytes.size(), 1044480u);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()),
              crc32_bytewise(bytes.data(), bytes.size()))
        << "tier " << simd_tier_name(simd_tier());
}

// ------------------------------------------------ saturating accumulate ----
// The clamp-add of the FPGA model's capture against the scalar loop it
// replaces, at word widths from 2 to 63 bits. Words start within 2^34 of
// the rail and samples reach twice the rail (or the u32 maximum), so every
// width sees adds that fit and adds that saturate. Starts 0-7 words from a
// 64-byte boundary and lengths 0-67 put every tail length of the vector
// kernels at every alignment.

class SaturatingAccumulateParity : public ::testing::TestWithParam<int> {};

TEST_P(SaturatingAccumulateParity, MatchesScalarLoop) {
    const int bits = GetParam();
    const std::int64_t rail = (std::int64_t{1} << (bits - 1)) - 1;
    const auto urail = static_cast<std::uint64_t>(rail);
    Rng rng(61 + static_cast<std::uint32_t>(bits));
    constexpr std::size_t kWords = 80;
    AlignedVector<std::int64_t> start(kWords);
    std::vector<std::uint32_t> samples(kWords);
    for (auto& w : start)
        w = rail - static_cast<std::int64_t>(rng.below(std::min<std::uint64_t>(urail + 1, 1ULL << 34)));
    for (auto& s : samples)
        s = static_cast<std::uint32_t>(rng.below(std::min<std::uint64_t>(2 * urail + 2, 1ULL << 32)));
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 67; ++len) {
            AlignedVector<std::int64_t> got = start;
            AlignedVector<std::int64_t> want = start;
            std::uint64_t want_count = 0;
            for (std::size_t i = offset; i < offset + len; ++i) {
                const std::int64_t v = want[i] + std::int64_t{samples[i]};
                if (v > rail) ++want_count;
                want[i] = std::min(v, rail);
            }
            const std::uint64_t count = saturating_accumulate(
                got.data() + offset, samples.data() + offset, len, rail);
            ASSERT_EQ(count, want_count)
                << "tier " << simd_tier_name(simd_tier()) << ", bits " << bits
                << ", offset " << offset << ", length " << len;
            ASSERT_EQ(got, want) << "tier " << simd_tier_name(simd_tier())
                                 << ", bits " << bits << ", offset " << offset
                                 << ", length " << len;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(WordWidths, SaturatingAccumulateParity,
                         ::testing::Values(2, 8, 12, 32, 63));

// -------------------------------------------------------- quantizer ----
// The FPGA model's integer output register against the Fixed path it
// replaces, Fixed(w / 2^(order-1), fmt).to_double(), at order 8 (shift 7)
// for E8's formats and one at the shift: fractional bits below (2, 4), at
// (7) and above (8, 12) the word's. Each format sees random words, the
// round-half boundaries and words on both sides of both rails.

TEST(ShiftQuantizer, MatchesFixedPathAtE8Formats) {
    const int shift = 7;
    const double unit = static_cast<double>(std::int64_t{1} << shift);
    for (const QFormat fmt :
         {QFormat{16, 2}, QFormat{16, 4}, QFormat{24, 4}, QFormat{24, 7},
          QFormat{24, 8}, QFormat{32, 8}, QFormat{32, 12}, QFormat{48, 8},
          QFormat{24, 6}}) {
        const ShiftQuantizer quantizer(shift, fmt);
        std::vector<std::int64_t> words = {0, 1, -1, 63, 64, 65, -63, -64, -65,
                                           127, 128, -127, -128, 191, 192, -192};
        // Words on both sides of each rail, in word units.
        for (const std::int64_t raw : {fmt.max_raw(), fmt.min_raw()}) {
            const double edge = static_cast<double>(raw) * unit / fmt.scale();
            const auto w0 = static_cast<std::int64_t>(edge);
            for (std::int64_t d = -130; d <= 130; ++d) words.push_back(w0 + d);
        }
        Rng rng(71 + static_cast<std::uint32_t>(fmt.total_bits * 64 + fmt.frac_bits));
        for (const int magnitude_bits : {12, 24, 50}) {
            const std::int64_t span = std::int64_t{1} << magnitude_bits;
            for (int i = 0; i < 2000; ++i)
                words.push_back(static_cast<std::int64_t>(rng.below(
                                    2 * static_cast<std::uint64_t>(span))) -
                                span);
        }
        bool hit_top = false, hit_bottom = false;
        for (const std::int64_t w : words) {
            const double want =
                Fixed(static_cast<double>(w) / unit, fmt).to_double();
            ASSERT_EQ(quantizer.value(w), want)
                << "Q" << fmt.total_bits << "." << fmt.frac_bits << ", w " << w;
            hit_top = hit_top || quantizer.raw(w) == fmt.max_raw();
            hit_bottom = hit_bottom || quantizer.raw(w) == fmt.min_raw();
        }
        EXPECT_TRUE(hit_top && hit_bottom)
            << "Q" << fmt.total_bits << "." << fmt.frac_bits << " missed a rail";
    }
}

}  // namespace
}  // namespace htims
