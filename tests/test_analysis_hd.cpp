// Hyperdimensional analysis tests: the SIMD Hamming kernel's cross-tier
// parity contract, the spectrum encoder's determinism and similarity
// geometry, library identification, and — the tentpole claim — that the
// streaming stage's cluster assignments are bit-identical whichever
// pipeline path delivers the frames (synchronous consumer, overlapped
// decode with 1 or 2 workers, fleet streams over a shared pool) and
// whichever SIMD tier computes the distances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "analysis/encoder.hpp"
#include "analysis/hypervector.hpp"
#include "analysis/library.hpp"
#include "analysis/stage.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "instrument/peptide_library.hpp"
#include "pipeline/fleet.hpp"
#include "pipeline/frame.hpp"
#include "pipeline/frame_io.hpp"
#include "pipeline/hybrid.hpp"
#include "prs/oversampled.hpp"

namespace htims::analysis {
namespace {

// ------------------------------------------------------ Hamming kernels ----

/// One-bit-at-a-time reference, deliberately naive.
std::uint64_t bitloop_distance(const std::vector<std::uint64_t>& a,
                               const std::vector<std::uint64_t>& b) {
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < a.size(); ++w) {
        std::uint64_t x = a[w] ^ b[w];
        for (int bit = 0; bit < 64; ++bit) total += (x >> bit) & 1u;
    }
    return total;
}

std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
    std::vector<std::uint64_t> v(n);
    for (auto& w : v) w = rng.next_u64();
    return v;
}

constexpr SimdTier kAllTiers[] = {SimdTier::kGeneric, SimdTier::kAvx2,
                                  SimdTier::kAvx512, SimdTier::kNeon};

TEST(Hamming, AllTiersMatchBitLoopOnRaggedLengths) {
    Rng rng(2026);
    // Lengths straddling every kernel's vector width and tail path.
    for (const std::size_t words :
         {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u, 64u}) {
        const auto a = random_words(words, rng);
        const auto b = random_words(words, rng);
        const std::uint64_t expect = bitloop_distance(a, b);
        EXPECT_EQ(hamming_distance(a.data(), b.data(), words), expect)
            << "dispatched kernel, words=" << words;
        EXPECT_EQ(hamming_distance_scalar(a.data(), b.data(), words), expect)
            << "scalar oracle, words=" << words;
        for (const SimdTier tier : kAllTiers) {
            const auto got =
                hamming_distance_at_tier(tier, a.data(), b.data(), words);
            if (!got) continue;  // tier not executable on this host
            EXPECT_EQ(*got, expect) << "tier " << simd_tier_name(tier)
                                    << ", words=" << words;
        }
    }
}

TEST(Hamming, MetricAxioms) {
    Rng rng(7);
    const std::size_t words = 64;  // 4096 bits
    const auto a = random_words(words, rng);
    const auto b = random_words(words, rng);
    const auto c = random_words(words, rng);
    EXPECT_EQ(hamming_distance(a.data(), a.data(), words), 0u);
    EXPECT_EQ(hamming_distance(a.data(), b.data(), words),
              hamming_distance(b.data(), a.data(), words));
    EXPECT_LE(hamming_distance(a.data(), c.data(), words),
              hamming_distance(a.data(), b.data(), words) +
                  hamming_distance(b.data(), c.data(), words));
}

// -------------------------------------------------------------- Encoder ----

std::vector<double> random_spectrum(std::size_t bins, Rng& rng) {
    std::vector<double> s(bins, 0.0);
    for (auto& v : s)
        if (rng.uniform() < 0.3) v = rng.uniform(1.0, 1000.0);
    return s;
}

TEST(SpectrumEncoder, DeterministicAcrossInstancesAndDims) {
    for (const std::size_t dim : {64u, 192u, 320u, 4096u}) {
        SpectrumEncoderConfig cfg;
        cfg.dim = dim;
        cfg.mz_bins = 32;
        const SpectrumEncoder e1(cfg);
        const SpectrumEncoder e2(cfg);
        Rng rng(dim);
        for (int i = 0; i < 4; ++i) {
            const auto spectrum = random_spectrum(cfg.mz_bins, rng);
            const Hypervector h1 = e1.encode(spectrum);
            EXPECT_EQ(h1, e2.encode(spectrum)) << "dim=" << dim;
            EXPECT_EQ(h1.bits(), dim);
        }
        // A different basis seed must produce a different code.
        cfg.seed = 43;
        const SpectrumEncoder e3(cfg);
        const auto spectrum = random_spectrum(cfg.mz_bins, rng);
        EXPECT_NE(e1.encode(spectrum), e3.encode(spectrum));
    }
}

TEST(SpectrumEncoder, SimilarSpectraEncodeCloserThanUnrelated) {
    SpectrumEncoderConfig cfg;
    cfg.dim = 4096;
    cfg.mz_bins = 64;
    const SpectrumEncoder enc(cfg);
    Rng rng(11);
    const auto base = random_spectrum(cfg.mz_bins, rng);
    auto nudged = base;  // +-10% intensity jitter, same peak set
    for (auto& v : nudged)
        if (v > 0.0) v *= rng.uniform(0.9, 1.1);
    const auto unrelated = random_spectrum(cfg.mz_bins, rng);
    const Hypervector hb = enc.encode(base);
    EXPECT_EQ(distance(hb, enc.encode(base)), 0u);
    EXPECT_LT(distance(hb, enc.encode(nudged)),
              distance(hb, enc.encode(unrelated)));
}

TEST(SpectrumEncoder, AllZeroSpectrumEncodesToZeroVector) {
    SpectrumEncoderConfig cfg;
    cfg.dim = 128;
    cfg.mz_bins = 16;
    const SpectrumEncoder enc(cfg);
    const Hypervector hv = enc.encode(std::vector<double>(16, 0.0));
    EXPECT_EQ(distance(hv, Hypervector(128)), 0u);
}

TEST(SpectrumEncoder, RejectsMalformedConfig) {
    SpectrumEncoderConfig cfg;
    cfg.dim = 100;  // not a multiple of 64
    EXPECT_THROW(SpectrumEncoder{cfg}, ConfigError);
    cfg.dim = 0;
    EXPECT_THROW(SpectrumEncoder{cfg}, ConfigError);
    cfg = {};
    cfg.mz_bins = 0;
    EXPECT_THROW(SpectrumEncoder{cfg}, ConfigError);
    cfg = {};
    cfg.levels = 1;
    EXPECT_THROW(SpectrumEncoder{cfg}, ConfigError);
    cfg = {};
    cfg.top_peaks = 0;
    EXPECT_THROW(SpectrumEncoder{cfg}, ConfigError);
}

// ------------------------------------------------- encoder bundle pins ----
//
// encode() bundles with carry-save counters and picks its peaks by
// selection; encode_reference() is the full sort and per-bit vote it
// replaced, kept as the oracle. The spectra give the bundle one peak, odd
// and even peak counts below top_peaks and above it (so the selection
// runs), ties across the top_peaks-th place, and zero, -0.0, negative and
// NaN bins, which are never peaks.

/// `peaks` positive bins at random places; every other bin is 0, -0.0,
/// negative or NaN. With `ties`, the positive intensities take one of four
/// values, so equal intensities straddle any cut.
std::vector<double> probe_spectrum(std::size_t bins, std::size_t peaks, bool ties,
                                   Rng& rng) {
    std::vector<double> s(bins);
    for (auto& v : s) {
        const double u = rng.uniform();
        v = u < 0.4   ? 0.0
            : u < 0.5 ? -0.0
            : u < 0.9 ? -rng.uniform(1.0, 1000.0)
                      : std::numeric_limits<double>::quiet_NaN();
    }
    std::vector<std::size_t> order(bins);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = 0; i < std::min(peaks, bins); ++i) {
        std::swap(order[i], order[i + rng.below(bins - i)]);
        s[order[i]] = ties ? 100.0 * static_cast<double>(1 + rng.below(4))
                           : rng.uniform(1.0, 1000.0);
    }
    return s;
}

TEST(SpectrumEncoder, PinnedDigestAtPacedShape) {
    // The analysis stage's shape on perfbench's paced workload. Recompute
    // deliberately only if the encoding scheme changes.
    SpectrumEncoderConfig cfg;
    cfg.dim = 4096;
    cfg.mz_bins = 256;
    cfg.top_peaks = 48;
    cfg.levels = 32;
    const SpectrumEncoder enc(cfg);
    Rng rng(4096);
    std::vector<std::vector<double>> spectra;
    for (const std::size_t peaks :
         {1u, 2u, 3u, 8u, 17u, 31u, 46u, 47u, 48u, 49u, 50u, 64u, 129u, 200u, 256u})
        for (const bool ties : {false, true})
            spectra.push_back(probe_spectrum(cfg.mz_bins, peaks, ties, rng));
    // 40 distinct intensities, then 20 equal ones across the 48th place:
    // the cut keeps the 8 lowest-indexed of them.
    std::vector<double> cut(cfg.mz_bins, 0.0);
    for (std::size_t i = 0; i < 40; ++i) cut[3 * i + 1] = 500.0 + static_cast<double>(i);
    for (std::size_t i = 0; i < 20; ++i) cut[255 - 6 * i] = 250.0;
    spectra.push_back(cut);
    spectra.emplace_back(cfg.mz_bins, 7.0);  // every bin ties
    std::uint64_t h = 14695981039346656037ULL;
    for (const auto& s : spectra) {
        const Hypervector hv = enc.encode(s);
        h = pipeline::fnv1a64(hv.data(), hv.word_count() * sizeof(std::uint64_t), h);
    }
    EXPECT_EQ(h, 11606156861162940098ULL);
}

TEST(SpectrumEncoder, MatchesReferenceOnAGrid) {
    // D from one word to the paced 64 words; 1 to 256 m/z; the fewest rungs and
    // the default; top_peaks from 1 to above mz_bins. Peak counts put n at
    // 0, 1, 2 and 3, on both sides of top_peaks, and at every bin.
    Rng rng(23);
    for (const std::size_t dim : {64u, 192u, 1024u, 4096u})
        for (const std::size_t mz : {1u, 7u, 64u, 256u})
            for (const std::size_t levels : {2u, 32u})
                for (const std::size_t top : {1u, 2u, 5u, 48u, 300u}) {
                    SpectrumEncoderConfig cfg;
                    cfg.dim = dim;
                    cfg.mz_bins = mz;
                    cfg.levels = levels;
                    cfg.top_peaks = top;
                    const SpectrumEncoder enc(cfg);
                    for (const std::size_t peaks :
                         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
                          top - 1, top, top + 1, mz})
                        for (const bool ties : {false, true}) {
                            const auto s = probe_spectrum(mz, peaks, ties, rng);
                            ASSERT_EQ(enc.encode(s), enc.encode_reference(s))
                                << "dim " << dim << ", mz " << mz << ", levels "
                                << levels << ", top " << top << ", peaks " << peaks
                                << (ties ? ", ties" : "");
                        }
                }
}

TEST(SpectrumEncoder, RejectsInfiniteIntensity) {
    // A +inf peak has no rung (inf / inf is NaN); NaN bins stay skipped.
    SpectrumEncoderConfig cfg;
    cfg.dim = 128;
    cfg.mz_bins = 3;
    const SpectrumEncoder enc(cfg);
    const std::vector<double> inf = {std::numeric_limits<double>::infinity(), 1.0, 2.0};
    EXPECT_THROW((void)enc.encode(inf), PreconditionError);
    EXPECT_THROW((void)enc.encode_reference(inf), PreconditionError);
    const std::vector<double> nan = {std::numeric_limits<double>::quiet_NaN(), 1.0, 2.0};
    const std::vector<double> zero = {0.0, 1.0, 2.0};
    EXPECT_EQ(enc.encode(nan), enc.encode(zero));
    EXPECT_EQ(enc.encode_reference(nan), enc.encode(zero));
}

// -------------------------------------------------------------- Library ----

TEST(SpectralLibrary, NearestFindsEveryEntryExactly) {
    SpectrumEncoderConfig cfg;
    cfg.dim = 2048;
    cfg.mz_bins = 128;
    const SpectrumEncoder enc(cfg);
    instrument::PeptideLibraryConfig lib_cfg;
    lib_cfg.count = 32;
    const auto mixture = instrument::make_tryptic_digest(lib_cfg);
    const SpectralLibrary library(enc, mixture);
    ASSERT_EQ(library.size(), 32u);
    for (std::size_t i = 0; i < library.size(); ++i) {
        // Re-encoding the reference spectrum must land back on entry i.
        const Match m = library.nearest(enc.encode(library.reference_spectrum(i)));
        EXPECT_EQ(m.index, i);
        EXPECT_EQ(m.distance, 0u);
    }
}

// ---------------------------------------------- stage determinism matrix ----
//
// One spec: PRS order 5, 8 m/z bins, 3 frames, CPU backend, a 16-entry
// library. Every delivery path must produce the same verdict digest because
// (a) each orchestrator calls analyze() from its ordered emission section
// and (b) Hamming distances are exact integers on every SIMD tier.

const prs::OversampledPrs& hd_sequence() {
    static const prs::OversampledPrs seq(5, 1, prs::GateMode::kPulsed);
    return seq;
}

pipeline::FrameLayout hd_layout() {
    return pipeline::FrameLayout{.drift_bins = hd_sequence().length(),
                                 .mz_bins = 8,
                                 .drift_bin_width_s = 1e-4};
}

constexpr std::size_t kHdFrames = 3;

std::vector<std::uint32_t> hd_period() {
    std::vector<std::uint32_t> period(hd_layout().cells());
    Rng rng(99);
    for (auto& s : period) s = static_cast<std::uint32_t>(rng.below(500));
    return period;
}

AnalysisConfig hd_analysis_config() {
    AnalysisConfig cfg;
    cfg.encoder.dim = 256;
    cfg.encoder.mz_bins = hd_layout().mz_bins;
    return cfg;
}

struct StageFixture {
    std::unique_ptr<AnalysisStage> stage;
    std::unique_ptr<SpectralLibrary> library;
};

StageFixture make_stage() {
    StageFixture f;
    f.stage = std::make_unique<AnalysisStage>(hd_analysis_config());
    instrument::PeptideLibraryConfig lib_cfg;
    lib_cfg.count = 16;
    f.library = std::make_unique<SpectralLibrary>(
        f.stage->encoder(), instrument::make_tryptic_digest(lib_cfg));
    f.stage->set_library(f.library.get());
    return f;
}

/// Reference digest: decode the stream synchronously and feed the stage by
/// hand, in frame order.
std::uint64_t reference_digest() {
    const StageFixture f = make_stage();
    pipeline::HybridConfig cfg;
    cfg.backend = pipeline::BackendKind::kCpu;
    cfg.frames = kHdFrames;
    cfg.averages = 2;
    cfg.cpu_threads = 1;
    cfg.frame_sink = [&](std::size_t index, const pipeline::Frame& frame) {
        f.stage->analyze(0, index, frame);
    };
    pipeline::HybridPipeline pipe(hd_sequence(), hd_layout(), hd_period(), cfg);
    (void)pipe.run();
    return f.stage->digest();
}

std::uint64_t hybrid_digest(bool overlap, std::size_t workers) {
    const StageFixture f = make_stage();
    pipeline::HybridConfig cfg;
    cfg.backend = pipeline::BackendKind::kCpu;
    cfg.frames = kHdFrames;
    cfg.averages = 2;
    cfg.cpu_threads = 1;
    cfg.decode_workers = overlap ? workers : 0;
    cfg.analysis = f.stage.get();
    pipeline::HybridPipeline pipe(hd_sequence(), hd_layout(), hd_period(), cfg);
    (void)pipe.run();
    return f.stage->digest();
}

TEST(AnalysisStage, DigestIdenticalAcrossHybridDeliveryPaths) {
    const std::uint64_t expect = reference_digest();
    EXPECT_EQ(hybrid_digest(false, 1), expect) << "sync consumer";
    EXPECT_EQ(hybrid_digest(true, 1), expect) << "overlap, 1 worker";
    EXPECT_EQ(hybrid_digest(true, 2), expect) << "overlap, 2 workers";
}

TEST(AnalysisStage, DigestIdenticalAcrossFleetWorkerCounts) {
    // Two streams sharing one stage; the digest folds verdicts per stream,
    // so it is invariant to decode-pool size, not to stream mixup.
    std::vector<std::uint64_t> digests;
    for (const std::size_t workers : {1u, 2u}) {
        const StageFixture f = make_stage();
        std::vector<pipeline::FleetStream> streams;
        for (std::size_t si = 0; si < 2; ++si) {
            pipeline::HybridConfig cfg;
            cfg.backend = pipeline::BackendKind::kCpu;
            cfg.frames = kHdFrames;
            cfg.averages = 2;
            cfg.cpu_threads = 1;
            cfg.analysis = f.stage.get();
            streams.push_back(pipeline::FleetStream{hd_sequence(), hd_layout(),
                                                    std::move(cfg), hd_period(),
                                                    nullptr});
        }
        pipeline::FleetConfig fc;
        fc.decode_workers = workers;
        pipeline::FleetRunner runner(std::move(streams), fc);
        (void)runner.run();
        const auto report = f.stage->report();
        EXPECT_EQ(report.frames, 2 * kHdFrames);
        digests.push_back(f.stage->digest());
    }
    EXPECT_EQ(digests[0], digests[1]);
}

TEST(AnalysisStage, PinnedDigest) {
    // Hard-pins the full chain — decode, m/z profile, encoding basis,
    // clustering, library search — against silent drift. Deterministic
    // across SIMD tiers (exact integer distances) and worker counts
    // (ordered emission); recompute deliberately if the encoding scheme
    // changes.
    EXPECT_EQ(reference_digest(), 13469511143880016653ULL);
}

TEST(AnalysisStage, ClustersRepeatedAndDistinctSpectra) {
    const StageFixture f = make_stage();
    pipeline::Frame a(hd_layout());
    Rng rng(5);
    for (std::size_t d = 0; d < a.drift_bins(); ++d)
        for (auto& v : a.record(d)) v = rng.uniform(0.0, 100.0);
    // A single-peak spectrum: its hypervector is one bound ID+level pair,
    // far from frame a's 8-peak majority bundle.
    pipeline::Frame b(hd_layout());
    for (std::size_t d = 0; d < b.drift_bins(); ++d)
        b.record(d)[0] = 50.0 + static_cast<double>(d);
    f.stage->analyze(0, 0, a);
    f.stage->analyze(0, 1, a);  // identical frame joins cluster 0 at distance 0
    const FrameVerdict vb = f.stage->analyze(0, 2, b);
    const auto report = f.stage->report();
    EXPECT_EQ(report.frames, 3u);
    EXPECT_EQ(report.clusters, 2u);
    EXPECT_EQ(report.verdicts[1].cluster, 0u);
    EXPECT_EQ(report.verdicts[1].cluster_distance, 0u);
    EXPECT_EQ(vb.cluster, 1u);
    EXPECT_TRUE(vb.searched);
}

}  // namespace
}  // namespace htims::analysis
