// Golden end-to-end regression fixtures.
//
// Each fixture drives a deterministic integer-domain input through one full
// decode path and pins the FNV-1a digest of the llround-quantized output
// in-source. The covered paths are chosen for bit-stability across build
// types: pulsed-mode decoding is adds/subtracts of integer-valued doubles
// plus exact power-of-two scaling, so -O level, -march=native, and FMA
// contraction cannot change a single bit. A digest change is therefore a
// *behaviour* change, never a numerics wobble — update the constant only
// with a deliberate algorithm change.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "pipeline/cpu_backend.hpp"
#include "pipeline/fpga.hpp"
#include "pipeline/frame_io.hpp"
#include "pipeline/hybrid.hpp"
#include "prs/oversampled.hpp"

namespace htims::pipeline {
namespace {

// The pinned digests. Derived once from the reference implementation; every
// build type must reproduce them exactly.
constexpr std::uint64_t kCpuDecodeDigest = 0x83C371BD082DDA6AULL;
// The FPGA model's fixed-point decode of the same integer input is exact at
// QFormat{24,6} (the CPU result's grid is coarser), so the two paths digest
// identically — the E8 fidelity claim as a bit-equality.
constexpr std::uint64_t kFpgaDecodeDigest = 0x83C371BD082DDA6AULL;
constexpr std::uint64_t kHybridBlockDigest = 0xDCB9426F2ACBFC99ULL;

FrameLayout golden_layout(const prs::OversampledPrs& seq) {
    return FrameLayout{.drift_bins = seq.length(), .mz_bins = 32,
                       .drift_bin_width_s = 1e-4};
}

/// Deterministic integer raw frame: the fixture input for every path.
Frame golden_raw(const FrameLayout& layout, std::uint64_t seed) {
    Frame raw(layout);
    Rng rng(seed);
    for (auto& v : raw.data()) v = static_cast<double>(rng.below(100));
    return raw;
}

TEST(Golden, Fnv1aKnownVectors) {
    // Published FNV-1a 64 reference values.
    EXPECT_EQ(fnv1a64("", 0), 0xCBF29CE484222325ULL);
    EXPECT_EQ(fnv1a64("a", 1), 0xAF63DC4C8601EC8CULL);
    EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171F73967E8ULL);
}

TEST(Golden, DigestIsSensitiveToAnySingleCell) {
    const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    const auto layout = FrameLayout{.drift_bins = seq.length(), .mz_bins = 4,
                                    .drift_bin_width_s = 1e-4};
    const Frame base = golden_raw(layout, 1);
    const auto want = frame_digest(base);
    EXPECT_EQ(want, frame_digest(base));  // digest is a pure function
    for (std::size_t i = 0; i < base.data().size(); i += 13) {
        Frame tweaked = base;
        tweaked.data()[i] += 1.0;
        EXPECT_NE(frame_digest(tweaked), want) << "cell " << i;
    }
}

TEST(Golden, CpuDecodeDigestPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    const auto layout = golden_layout(seq);
    CpuBackend cpu(seq, layout, 2);
    const Frame out = cpu.deconvolve(golden_raw(layout, 42));
    EXPECT_EQ(frame_digest(out), kCpuDecodeDigest);

    // The scalar oracle decodes to the same bits — and so the same digest.
    EXPECT_EQ(frame_digest(cpu.deconvolve_scalar(golden_raw(layout, 42))),
              kCpuDecodeDigest);
}

TEST(Golden, FpgaDecodeDigestPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    const auto layout = golden_layout(seq);
    const Frame raw = golden_raw(layout, 42);
    FpgaPipeline fpga(seq, layout, FpgaConfig{});
    fpga.begin_frame();
    fpga.push_samples(to_period_samples(raw, 1));
    EXPECT_EQ(frame_digest(fpga.end_frame()), kFpgaDecodeDigest);
}

TEST(Golden, HybridBlockRunDigestPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    const auto layout = golden_layout(seq);
    const auto period = to_period_samples(golden_raw(layout, 42), 1);
    HybridConfig cfg;
    cfg.backend = BackendKind::kCpu;
    cfg.frames = 2;
    cfg.averages = 2;
    cfg.cpu_threads = 2;
    cfg.ring_policy = RingFullPolicy::kBlock;  // the default, explicitly
    const auto report = HybridPipeline(seq, layout, period, cfg).run();
    EXPECT_EQ(report.records_dropped, 0u);
    EXPECT_EQ(frame_digest(report.last_frame), kHybridBlockDigest);
}

TEST(Golden, ContainerRoundTripPreservesDigest) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    const auto layout = golden_layout(seq);
    const Frame frame = golden_raw(layout, 42);
    std::ostringstream os(std::ios::binary);
    write_frame(os, frame);
    FrameStreamReader reader(os.str(), RecoveryMode::kThrow);
    const auto back = reader.next();
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(frame_digest(*back), frame_digest(frame));
}

}  // namespace
}  // namespace htims::pipeline
