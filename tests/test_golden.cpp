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

#include <cstring>
#include <span>
#include <sstream>
#include <utility>
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
// The CPU backend's decode of the golden input under stretched gating, and
// at an m/z width that no decode tile divides (which, pulsed, digests like
// the FPGA model's ragged frame below). Stretched decoding adds one division
// by N * F, correctly rounded in every build, so it pins as firmly.
constexpr std::uint64_t kCpuStretchedDigest = 0x8F547F12B38A4DAAULL;
constexpr std::uint64_t kCpuRaggedMzDigest = 0xC73315FD36BDE86BULL;
// The FPGA model's decode layouts beyond the pulsed golden frame: stretched
// gating, an m/z width that no decode tile divides, a budget-overrun partial
// frame cut inside a tile, and the exact saturation census of a capture
// whose push_samples span wraps the period boundary.
constexpr std::uint64_t kFpgaStretchedDigest = 0x0321C5CA5475DB63ULL;
constexpr std::uint64_t kFpgaRaggedMzDigest = 0xC73315FD36BDE86BULL;
constexpr std::uint64_t kFpgaPartialFrameDigest = 0xA1F1D05B858A4D39ULL;
constexpr std::uint64_t kFpgaSaturations8Bit = 12477;
constexpr std::uint64_t kFpgaSaturations12Bit = 561;
constexpr std::uint64_t kFpgaSaturated12BitDigest = 0x6C2D589FF0B0B26CULL;
constexpr std::uint64_t kHybridBlockDigest = 0xDCB9426F2ACBFC99ULL;
// The v2 container checksums serialize_frame writes for the golden frame
// (seq 0). Every container and store holds CRC-32s computed the same way,
// so these pin the on-disk bytes whichever CRC kernel the host dispatches.
constexpr std::uint32_t kGoldenPayloadCrc = 0xAAE47371u;
constexpr std::uint32_t kGoldenHeaderCrc = 0x6E372E18u;

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

/// Every CPU decode path of the golden input: the tile decode into a new
/// frame, the tile decode in place, and the per-channel scalar oracle.
void expect_cpu_paths_digest(const prs::OversampledPrs& seq, const FrameLayout& layout,
                             std::uint64_t want) {
    CpuBackend cpu(seq, layout, 2);
    Frame raw = golden_raw(layout, 42);
    EXPECT_EQ(frame_digest(cpu.deconvolve(raw)), want) << "into a new frame";
    EXPECT_EQ(frame_digest(cpu.deconvolve_scalar(raw)), want) << "scalar oracle";
    cpu.deconvolve(raw, raw);
    EXPECT_EQ(frame_digest(raw), want) << "in place";
}

TEST(Golden, CpuStretchedDigestPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kStretched);
    expect_cpu_paths_digest(seq, golden_layout(seq), kCpuStretchedDigest);
}

TEST(Golden, CpuRaggedMzDigestPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    const FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 33,
                             .drift_bin_width_s = 1e-4};
    expect_cpu_paths_digest(seq, layout, kCpuRaggedMzDigest);
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

/// One period of the golden input through a default-configured FPGA model.
Frame fpga_golden_frame(const prs::OversampledPrs& seq, const FrameLayout& layout) {
    FpgaPipeline fpga(seq, layout, FpgaConfig{});
    fpga.begin_frame();
    fpga.push_samples(to_period_samples(golden_raw(layout, 42), 1));
    return fpga.end_frame();
}

TEST(Golden, FpgaStretchedDigestPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kStretched);
    EXPECT_EQ(frame_digest(fpga_golden_frame(seq, golden_layout(seq))),
              kFpgaStretchedDigest);
}

TEST(Golden, FpgaRaggedMzDigestPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    const FrameLayout layout{.drift_bins = seq.length(), .mz_bins = 33,
                             .drift_bin_width_s = 1e-4};
    EXPECT_EQ(frame_digest(fpga_golden_frame(seq, layout)), kFpgaRaggedMzDigest);
}

TEST(Golden, FpgaPartialFrameDigestPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    const auto layout = golden_layout(seq);
    FpgaPipeline fpga(seq, layout, FpgaConfig{});
    fpga.push_samples(to_period_samples(golden_raw(layout, 42), 1));
    FpgaCapture capture = fpga.capture_frame();
    // What a fired kFpgaOverrun leaves: 13 of 32 channels decoded.
    capture.budget_overrun = true;
    capture.channel_limit = 13;
    const Frame partial = fpga.finalize_frame(capture);
    EXPECT_EQ(fpga.report().channels_decoded, 13u);
    EXPECT_EQ(frame_digest(partial), kFpgaPartialFrameDigest);
}

TEST(Golden, FpgaSaturationCountsPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    const auto layout = golden_layout(seq);
    // Three periods and a bit of samples below 900: a 12-bit word (rail
    // 2047) saturates on some cells, an 8-bit one (rail 127) on most adds.
    std::vector<std::uint32_t> samples(3 * layout.cells() + 1000);
    Rng rng(7);
    for (auto& s : samples) s = static_cast<std::uint32_t>(rng.below(900));
    const auto run = [&](int bits) {
        FpgaConfig cfg;
        cfg.accumulator_bits = bits;
        FpgaPipeline fpga(seq, layout, cfg);
        const std::span<const std::uint32_t> all(samples);
        fpga.push_samples(all.first(1000));
        // One span that wraps the period boundary three times.
        fpga.push_samples(all.subspan(1000));
        const Frame out = fpga.end_frame();
        return std::pair{fpga.report().accumulator_saturations, frame_digest(out)};
    };
    EXPECT_EQ(run(8).first, kFpgaSaturations8Bit);
    const auto [saturations12, digest12] = run(12);
    EXPECT_EQ(saturations12, kFpgaSaturations12Bit);
    EXPECT_EQ(digest12, kFpgaSaturated12BitDigest);
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

TEST(Golden, ContainerChecksumsPinned) {
    const prs::OversampledPrs seq(6, 2, prs::GateMode::kPulsed);
    const Frame frame = golden_raw(golden_layout(seq), 42);
    std::vector<std::byte> bytes(frame_container_bytes(frame));
    ASSERT_EQ(serialize_frame(frame, bytes), bytes.size());
    // Header: magic, version, drift_bins, mz_bins, drift_bin_width_s
    // (32 bytes), then payload_crc and header_crc.
    std::uint32_t payload_crc = 0;
    std::uint32_t header_crc = 0;
    std::memcpy(&payload_crc, bytes.data() + 32, sizeof(payload_crc));
    std::memcpy(&header_crc, bytes.data() + 36, sizeof(header_crc));
    EXPECT_EQ(payload_crc, kGoldenPayloadCrc);
    EXPECT_EQ(header_crc, kGoldenHeaderCrc);
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
