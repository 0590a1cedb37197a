// Property tests: seeded random sweeps over the (order, oversampling,
// gate-mode) grid pinning the pipeline's core algebraic invariants.
//
//  * PRS modulate -> decode round-trips: encode_fast followed by decode
//    recovers a random sparse integer drift profile (bit-identically in
//    pulsed mode, whose arithmetic is adds/subtracts plus a power-of-two
//    normalization).
//  * The unnormalized FWHT is self-inverse up to the length scaling,
//    exactly, on integer-valued inputs.
//  * The batched (SIMD-lane) decoder matches the scalar oracle bit for bit.
//
// Each parameterized case runs several seeds, so the suite covers a few
// hundred distinct (order, seed, mode) triples.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "prs/oversampled.hpp"
#include "transform/enhanced.hpp"
#include "transform/fwht.hpp"

namespace htims::transform {
namespace {

struct GridCase {
    int order;
    int factor;
    prs::GateMode mode;
};

std::string case_name(const testing::TestParamInfo<GridCase>& info) {
    const auto& c = info.param;
    return "order" + std::to_string(c.order) + "_f" + std::to_string(c.factor) +
           (c.mode == prs::GateMode::kPulsed ? "_pulsed" : "_stretched");
}

std::vector<GridCase> grid() {
    std::vector<GridCase> cases;
    for (int order = 4; order <= 8; ++order)
        for (int factor = 1; factor <= 3; ++factor)
            for (auto mode : {prs::GateMode::kPulsed, prs::GateMode::kStretched})
                cases.push_back({order, factor, mode});
    return cases;
}

constexpr int kSeedsPerCase = 7;

/// A sparse integer spike profile on the fine grid. Spikes land only in the
/// first half of the drift period, so stretched-mode decoding always has the
/// quiet baseline region its circular integration anchors on (the IMS
/// convention the decoder documents).
AlignedVector<double> sparse_profile(std::size_t fine_len, std::uint64_t seed) {
    AlignedVector<double> x(fine_len, 0.0);
    Rng rng(seed);
    const std::uint64_t spikes = 3 + rng.below(5);
    for (std::uint64_t s = 0; s < spikes; ++s) {
        const auto pos = static_cast<std::size_t>(rng.below(fine_len / 2));
        x[pos] = static_cast<double>(1 + rng.below(64));
    }
    return x;
}

class PrsGridTest : public testing::TestWithParam<GridCase> {};

TEST_P(PrsGridTest, ModulateDecodeRoundTrips) {
    const auto& c = GetParam();
    const prs::OversampledPrs seq(c.order, c.factor, c.mode);
    const EnhancedDeconvolver decon(seq);
    auto ws = decon.make_workspace();
    AlignedVector<double> y(seq.length()), got(seq.length());

    for (int trial = 0; trial < kSeedsPerCase; ++trial) {
        const auto seed = static_cast<std::uint64_t>(
            1000 * c.order + 100 * c.factor + trial);
        const auto x = sparse_profile(seq.length(), seed);
        decon.encode_fast(x, y, ws);
        decon.decode(y, got, ws);
        if (c.mode == prs::GateMode::kPulsed || c.factor == 1) {
            // Adds/subtracts of integer-valued doubles plus an exact
            // power-of-two scale: the round trip is bit-identical.
            for (std::size_t i = 0; i < x.size(); ++i)
                ASSERT_DOUBLE_EQ(got[i], x[i])
                    << "seed " << seed << " bin " << i;
        } else {
            // Stretched-mode recombination divides by N * F, which is not a
            // power of two; exactness up to a few ulps is the contract.
            for (std::size_t i = 0; i < x.size(); ++i)
                ASSERT_NEAR(got[i], x[i], 1e-8)
                    << "seed " << seed << " bin " << i;
        }
    }
}

TEST_P(PrsGridTest, BatchDecodeMatchesScalarOracle) {
    const auto& c = GetParam();
    const prs::OversampledPrs seq(c.order, c.factor, c.mode);
    const EnhancedDeconvolver decon(seq);
    constexpr std::size_t kLanes = 4;
    auto scalar_ws = decon.make_workspace();
    auto batch_ws = decon.make_batch_workspace(kLanes);
    const std::size_t len = seq.length();

    for (int trial = 0; trial < kSeedsPerCase; ++trial) {
        const auto seed = static_cast<std::uint64_t>(
            9000 + 1000 * c.order + 100 * c.factor + trial);
        // kLanes encoded records side by side in each row (decoder input
        // domain).
        AlignedVector<double> lanes_y(len * kLanes), lanes_x(len * kLanes);
        std::vector<AlignedVector<double>> per_lane_y(kLanes);
        AlignedVector<double> y(len);
        for (std::size_t l = 0; l < kLanes; ++l) {
            const auto x = sparse_profile(len, seed * kLanes + l);
            decon.encode_fast(x, y, scalar_ws);
            per_lane_y[l] = y;
            for (std::size_t i = 0; i < len; ++i)
                lanes_y[i * kLanes + l] = y[i];
        }
        decon.decode_batch(lanes_y, lanes_x, kLanes, kLanes, batch_ws);
        AlignedVector<double> want(len);
        for (std::size_t l = 0; l < kLanes; ++l) {
            decon.decode(per_lane_y[l], want, scalar_ws);
            for (std::size_t i = 0; i < len; ++i)
                ASSERT_DOUBLE_EQ(lanes_x[i * kLanes + l], want[i])
                    << "seed " << seed << " lane " << l << " bin " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Grid, PrsGridTest, testing::ValuesIn(grid()),
                         case_name);

// --------------------------------------------------- FWHT self-inverse ----

TEST(FwhtProperty, SelfInverseUpToLengthOnIntegerInputs) {
    for (std::size_t len = 4; len <= 1024; len *= 2) {
        for (int trial = 0; trial < kSeedsPerCase; ++trial) {
            const auto seed = static_cast<std::uint64_t>(31 * len + trial);
            Rng rng(seed);
            AlignedVector<double> x(len);
            for (auto& v : x)
                v = static_cast<double>(rng.below(201)) - 100.0;
            AlignedVector<double> z = x;
            fwht(z);
            fwht(z);
            // Unnormalized Sylvester transform applied twice is exactly
            // len * identity; on integer inputs every intermediate stays an
            // exactly representable integer, so equality is bitwise.
            for (std::size_t i = 0; i < len; ++i)
                ASSERT_DOUBLE_EQ(z[i], static_cast<double>(len) * x[i])
                    << "len " << len << " seed " << seed << " bin " << i;
        }
    }
}

TEST(FwhtProperty, BatchLanesMatchScalarTransform) {
    constexpr std::size_t kLanes = 8;
    for (std::size_t len = 8; len <= 256; len *= 2) {
        for (int trial = 0; trial < kSeedsPerCase; ++trial) {
            const auto seed = static_cast<std::uint64_t>(77 * len + trial);
            Rng rng(seed);
            std::vector<AlignedVector<double>> lanes(kLanes);
            AlignedVector<double> batch(len * kLanes);
            for (std::size_t l = 0; l < kLanes; ++l) {
                lanes[l].resize(len);
                for (std::size_t i = 0; i < len; ++i) {
                    lanes[l][i] = rng.uniform(-100.0, 100.0);
                    batch[i * kLanes + l] = lanes[l][i];
                }
            }
            fwht_batch(batch, kLanes);
            for (std::size_t l = 0; l < kLanes; ++l) {
                fwht(lanes[l]);
                for (std::size_t i = 0; i < len; ++i)
                    ASSERT_DOUBLE_EQ(batch[i * kLanes + l], lanes[l][i])
                        << "len " << len << " lane " << l << " bin " << i;
            }
        }
    }
}

}  // namespace
}  // namespace htims::transform
