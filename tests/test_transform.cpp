// Tests for src/transform: FWHT algebra, the fast simplex deconvolver
// against the dense reference, circulant CG solves, weighted deconvolution,
// and the enhanced (oversampled) decoder in both gate modes.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "prs/oversampled.hpp"
#include "prs/sequence.hpp"
#include "transform/circulant.hpp"
#include "transform/deconvolver.hpp"
#include "transform/enhanced.hpp"
#include "transform/fwht.hpp"
#include "transform/weighted.hpp"

namespace htims::transform {
namespace {

using prs::GateMode;
using prs::MSequence;
using prs::OversampledPrs;
using prs::SimplexMatrix;

// --------------------------------------------------------------- FWHT ----

TEST(Fwht, LengthMustBePowerOfTwo) {
    AlignedVector<double> bad(6, 1.0);
    EXPECT_THROW(fwht(bad), PreconditionError);
}

TEST(Fwht, AppliedTwiceScalesByLength) {
    Rng rng(1);
    AlignedVector<double> x(256);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    auto y = x;
    fwht(y);
    fwht(y);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], 256.0 * x[i], 1e-9);
}

TEST(Fwht, MatchesDefinitionSmall) {
    // W[v] = sum_u (-1)^{<u,v>} z[u] checked by brute force at length 8.
    AlignedVector<double> z = {1.0, -2.0, 0.5, 3.0, 0.0, 1.5, -1.0, 2.0};
    auto w = z;
    fwht(w);
    for (std::size_t v = 0; v < 8; ++v) {
        double expect = 0.0;
        for (std::size_t u = 0; u < 8; ++u) {
            const int parity = __builtin_popcount(static_cast<unsigned>(u & v)) & 1;
            expect += (parity ? -1.0 : 1.0) * z[u];
        }
        EXPECT_NEAR(w[v], expect, 1e-12) << "v=" << v;
    }
}

TEST(Fwht, ZeroFrequencyIsSum) {
    AlignedVector<double> z = {1.0, 2.0, 3.0, 4.0};
    fwht(z);
    EXPECT_DOUBLE_EQ(z[0], 10.0);
}

TEST(Fwht, IntegerVersionMatchesDouble) {
    // The int64 fwht_batch at one lane is a plain integer FWHT.
    Rng rng(2);
    AlignedVector<double> xd(128);
    AlignedVector<std::int64_t> xi(128);
    for (std::size_t i = 0; i < 128; ++i) {
        xi[i] = static_cast<std::int64_t>(rng.below(1000)) - 500;
        xd[i] = static_cast<double>(xi[i]);
    }
    fwht(xd);
    fwht_batch(xi, 1);
    for (std::size_t i = 0; i < 128; ++i)
        EXPECT_DOUBLE_EQ(xd[i], static_cast<double>(xi[i]));
}

// -------------------------------------------------------- Deconvolver ----

class DeconvolverVsReference : public ::testing::TestWithParam<int> {};

TEST_P(DeconvolverVsReference, EncodeMatchesDenseMatrix) {
    const MSequence seq(GetParam());
    const SimplexMatrix dense(seq);
    const Deconvolver fast(seq);
    Rng rng(7);
    AlignedVector<double> x(seq.length());
    for (auto& v : x) v = rng.uniform(0.0, 5.0);
    const auto y_dense = dense.encode(x);
    const auto y_fast = fast.encode(x);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y_fast[i], y_dense[i], 1e-8) << "i=" << i;
}

TEST_P(DeconvolverVsReference, DecodeMatchesDenseMatrix) {
    const MSequence seq(GetParam());
    const SimplexMatrix dense(seq);
    const Deconvolver fast(seq);
    Rng rng(8);
    AlignedVector<double> y(seq.length());
    for (auto& v : y) v = rng.uniform(-2.0, 10.0);
    const auto x_dense = dense.decode(y);
    const auto x_fast = fast.decode(y);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(x_fast[i], x_dense[i], 1e-8) << "i=" << i;
}

TEST_P(DeconvolverVsReference, RoundTripIsExact) {
    const MSequence seq(GetParam());
    const Deconvolver d(seq);
    Rng rng(9);
    AlignedVector<double> x(seq.length(), 0.0);
    for (int k = 0; k < 5; ++k) x[rng.below(x.size())] += rng.uniform(1.0, 9.0);
    const auto y = d.encode(x);
    const auto back = d.decode(y);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Orders, DeconvolverVsReference,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(Deconvolver, IndicesAreValidPermutations) {
    const MSequence seq(9);
    const Deconvolver d(seq);
    std::vector<bool> seen_s(d.padded_length(), false), seen_f(d.padded_length(), false);
    for (auto s : d.scatter_index()) {
        ASSERT_GT(s, 0u);
        ASSERT_LT(s, d.padded_length());
        EXPECT_FALSE(seen_s[s]);
        seen_s[s] = true;
    }
    for (auto f : d.gather_index()) {
        ASSERT_GT(f, 0u);
        ASSERT_LT(f, d.padded_length());
        EXPECT_FALSE(seen_f[f]);
        seen_f[f] = true;
    }
}

TEST(Deconvolver, SizeMismatchRejected) {
    const MSequence seq(4);
    const Deconvolver d(seq);
    AlignedVector<double> bad(seq.length() + 1, 0.0);
    AlignedVector<double> out(seq.length(), 0.0);
    auto ws = d.make_workspace();
    EXPECT_THROW(d.decode(bad, out, ws), PreconditionError);
}

TEST(Deconvolver, DecodeIsLinear) {
    const MSequence seq(6);
    const Deconvolver d(seq);
    Rng rng(5);
    AlignedVector<double> a(seq.length()), b(seq.length()), ab(seq.length());
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = rng.uniform(0.0, 1.0);
        b[i] = rng.uniform(0.0, 1.0);
        ab[i] = 2.0 * a[i] + 3.0 * b[i];
    }
    const auto xa = d.decode(a);
    const auto xb = d.decode(b);
    const auto xab = d.decode(ab);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(xab[i], 2.0 * xa[i] + 3.0 * xb[i], 1e-9);
}

// ---------------------------------------------------------- Circulant ----

TEST(Circulant, ConvolveDeltaKernelIsIdentity) {
    AlignedVector<double> kernel(10, 0.0);
    kernel[0] = 1.0;
    AlignedVector<double> x = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    const auto y = circular_convolve(kernel, x);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Circulant, ConvolveShiftKernelRotates) {
    AlignedVector<double> kernel(5, 0.0);
    kernel[2] = 1.0;
    AlignedVector<double> x = {1, 2, 3, 4, 5};
    const auto y = circular_convolve(kernel, x);
    EXPECT_DOUBLE_EQ(y[2], 1.0);
    EXPECT_DOUBLE_EQ(y[3], 2.0);
    EXPECT_DOUBLE_EQ(y[0], 4.0);
}

TEST(Circulant, CorrelateIsAdjointOfConvolve) {
    Rng rng(6);
    const std::size_t n = 32;
    AlignedVector<double> h(n), x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
        h[i] = rng.bernoulli(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
        x[i] = rng.uniform(-1.0, 1.0);
        y[i] = rng.uniform(-1.0, 1.0);
    }
    // <H x, y> == <x, H^T y>
    const auto hx = circular_convolve(h, x);
    const auto hty = circular_correlate(h, y);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        lhs += hx[i] * y[i];
        rhs += x[i] * hty[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST(Circulant, LstsqRecoversSignalFromMSequenceKernel) {
    const MSequence seq(7);
    AlignedVector<double> kernel(seq.length());
    for (std::size_t t = 0; t < seq.length(); ++t)
        kernel[t] = static_cast<double>(seq.bit(t));
    AlignedVector<double> x(seq.length(), 0.0);
    x[10] = 4.0;
    x[60] = 2.0;
    const auto y = circular_convolve(kernel, x);
    const auto result = circulant_lstsq(kernel, y);
    EXPECT_LT(result.relative_residual, 1e-8);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(result.x[i], x[i], 1e-5) << "i=" << i;
}

TEST(Circulant, LstsqZeroRhsGivesZero) {
    AlignedVector<double> kernel(16, 0.5);
    AlignedVector<double> y(16, 0.0);
    const auto result = circulant_lstsq(kernel, y);
    for (double v : result.x) EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_EQ(result.iterations, 0);
}

TEST(Circulant, RidgeShrinksSolution) {
    const MSequence seq(5);
    AlignedVector<double> kernel(seq.length());
    for (std::size_t t = 0; t < seq.length(); ++t)
        kernel[t] = static_cast<double>(seq.bit(t));
    AlignedVector<double> x(seq.length(), 0.0);
    x[5] = 10.0;
    const auto y = circular_convolve(kernel, x);
    CgOptions ridge;
    ridge.ridge = 100.0;
    const auto plain = circulant_lstsq(kernel, y);
    const auto shrunk = circulant_lstsq(kernel, y, ridge);
    EXPECT_LT(std::abs(shrunk.x[5]), std::abs(plain.x[5]));
}

// ----------------------------------------------------------- Weighted ----

TEST(Weighted, UnitWeightsMatchIdealSystem) {
    const MSequence seq(6);
    AlignedVector<double> w(seq.length(), 1.0);
    const WeightedDeconvolver wd(seq, w);
    const Deconvolver ideal(seq);
    AlignedVector<double> x(seq.length(), 0.0);
    x[7] = 5.0;
    x[30] = 2.5;
    const auto y = wd.encode(x);
    const auto y_ideal = ideal.encode(x);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ideal[i], 1e-9);
    const auto back = wd.decode(y);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-5);
}

TEST(Weighted, RecoversUnderNonUniformGate) {
    const MSequence seq(7);
    Rng rng(11);
    AlignedVector<double> w(seq.length());
    for (auto& v : w) v = rng.uniform(0.6, 1.4);  // 40% gate-amplitude defects
    const WeightedDeconvolver wd(seq, w);
    AlignedVector<double> x(seq.length(), 0.0);
    x[20] = 8.0;
    x[90] = 3.0;
    const auto y = wd.encode(x);

    // The ideal simplex inverse applied to the defective data leaves
    // artifacts; the weighted inverse does not.
    const Deconvolver ideal(seq);
    const auto x_ideal = ideal.decode(y);
    const auto x_weighted = wd.decode(y);
    double ideal_err = 0.0, weighted_err = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        ideal_err = std::max(ideal_err, std::abs(x_ideal[i] - x[i]));
        weighted_err = std::max(weighted_err, std::abs(x_weighted[i] - x[i]));
    }
    EXPECT_GT(ideal_err, 0.1);
    EXPECT_LT(weighted_err, 1e-4);
}

TEST(Weighted, KernelZeroAtClosedGateBins) {
    const MSequence seq(5);
    AlignedVector<double> w(seq.length(), 2.0);
    const auto kernel = weighted_gate_kernel(seq, w);
    for (std::size_t t = 0; t < seq.length(); ++t)
        EXPECT_DOUBLE_EQ(kernel[t], seq.bit(t) ? 2.0 : 0.0);
}

// ----------------------------------------------------------- Enhanced ----

using EnhancedParam = std::tuple<int, int, GateMode>;

class EnhancedRoundTrip : public ::testing::TestWithParam<EnhancedParam> {};

TEST_P(EnhancedRoundTrip, FastEncodeMatchesReference) {
    const auto [order, factor, mode] = GetParam();
    const OversampledPrs prs(order, factor, mode);
    const EnhancedDeconvolver d(prs);
    Rng rng(13);
    AlignedVector<double> x(prs.length());
    for (auto& v : x) v = rng.uniform(0.0, 3.0);
    const auto y_ref = d.encode(x);
    AlignedVector<double> y_fast(prs.length());
    auto ws = d.make_workspace();
    d.encode_fast(x, y_fast, ws);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y_fast[i], y_ref[i], 1e-7) << "i=" << i;
}

TEST_P(EnhancedRoundTrip, DecodeRecoversProfileWithQuietRegion) {
    const auto [order, factor, mode] = GetParam();
    const OversampledPrs prs(order, factor, mode);
    const EnhancedDeconvolver d(prs);
    Rng rng(14);
    // A drift profile with a genuine quiet region at the end of the period
    // (the IMS convention the stretched-mode anchor relies on).
    AlignedVector<double> x(prs.length(), 0.0);
    const std::size_t quiet_start = x.size() * 8 / 10;
    for (int p = 0; p < 6; ++p) {
        const std::size_t center = 5 + rng.below(quiet_start - 10);
        x[center] += rng.uniform(2.0, 10.0);
        if (center + 1 < quiet_start) x[center + 1] += rng.uniform(0.5, 2.0);
    }
    const auto y = d.encode(x);
    const auto back = d.decode(y);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(back[i], x[i], 1e-6) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    OrdersFactorsModes, EnhancedRoundTrip,
    ::testing::Combine(::testing::Values(4, 6, 8), ::testing::Values(1, 2, 3, 4),
                       ::testing::Values(GateMode::kPulsed, GateMode::kStretched)));

TEST(Enhanced, Factor1DelegatesToBase) {
    const OversampledPrs prs(6, 1, GateMode::kPulsed);
    const EnhancedDeconvolver enhanced(prs);
    const Deconvolver base(prs.base());
    Rng rng(15);
    AlignedVector<double> y(prs.length());
    for (auto& v : y) v = rng.uniform(0.0, 1.0);
    const auto a = enhanced.decode(y);
    const auto b = base.decode(y);
    for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Enhanced, FineResolutionSeparatesSubChipPeaks) {
    // Two peaks one *fine* bin apart — unresolvable at chip resolution —
    // must come back as distinct bins after the enhanced decode.
    const OversampledPrs prs(7, 4, GateMode::kPulsed);
    const EnhancedDeconvolver d(prs);
    AlignedVector<double> x(prs.length(), 0.0);
    x[100] = 5.0;
    x[101] = 3.0;
    const auto y = d.encode(x);
    const auto back = d.decode(y);
    EXPECT_NEAR(back[100], 5.0, 1e-6);
    EXPECT_NEAR(back[101], 3.0, 1e-6);
    EXPECT_NEAR(back[99], 0.0, 1e-6);
    EXPECT_NEAR(back[102], 0.0, 1e-6);
}

TEST(Enhanced, StretchedDecodeToleratesModerateNoise) {
    const OversampledPrs prs(8, 2, GateMode::kStretched);
    const EnhancedDeconvolver d(prs);
    Rng rng(16);
    AlignedVector<double> x(prs.length(), 0.0);
    x[50] = 1000.0;
    x[51] = 600.0;
    auto y = d.encode(x);
    for (auto& v : y) v += rng.gaussian(0.0, 1.0);
    const auto back = d.decode(y);
    EXPECT_NEAR(back[50], 1000.0, 50.0);
    EXPECT_NEAR(back[51], 600.0, 50.0);
}

}  // namespace
}  // namespace htims::transform
