// stage.hpp — streaming hyperdimensional analysis over decoded frames.
//
// Sits directly downstream of decode: every finalized frame is collapsed to
// its m/z profile, encoded to a hypervector, identified against an optional
// reference library (nearest Hamming neighbour), and clustered online by
// greedy leader clustering — the first spectrum within `cluster_radius` of
// an existing leader joins it, otherwise it founds a new cluster. Both the
// hybrid pipeline and the fleet runner invoke analyze() from their ordered
// emission sections (HybridConfig::analysis), so frames of one stream always
// arrive in frame order; with per-stream cluster state and exact integer
// distances, the assignment sequence is deterministic across decode-worker
// counts and SIMD tiers — digest() pins that.
//
// Concurrency: analyze() is called concurrently by decode workers of
// different streams/pipelines; encode and library search run outside the
// lock (they touch only immutable state), cluster bookkeeping runs under a
// single mutex. No atomics.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "analysis/encoder.hpp"
#include "analysis/library.hpp"

namespace htims::analysis {

/// Stage parameters.
struct AnalysisConfig {
    SpectrumEncoderConfig encoder;
    /// Leader-clustering join radius as a fraction of the hypervector
    /// dimension (0.30 * 4096 = 1229 bits). Two independent random
    /// hypervectors sit near 0.5 * D apart, so radii well below 0.5
    /// separate unrelated spectra.
    double cluster_radius = 0.30;
};

/// Outcome of analyzing one frame.
struct FrameVerdict {
    std::uint32_t stream = 0;
    std::uint64_t frame = 0;
    std::size_t cluster = 0;             ///< per-stream cluster id (leader order)
    std::uint64_t cluster_distance = 0;  ///< bits to the joined leader (0 if founder)
    std::size_t library_entry = 0;       ///< nearest library entry, if searched
    std::uint64_t library_distance = 0;  ///< bits to that entry
    bool searched = false;               ///< library lookup actually ran
};

/// Aggregate view of everything analyzed so far.
struct AnalysisReport {
    std::uint64_t frames = 0;
    std::uint64_t clusters = 0;  ///< across all streams
    std::vector<FrameVerdict> verdicts;
};

/// Streaming analysis stage; one instance may serve many streams.
class AnalysisStage {
public:
    /// Builds the encoder from config. Throws ConfigError on a malformed
    /// encoder config.
    explicit AnalysisStage(const AnalysisConfig& config);

    const SpectrumEncoder& encoder() const { return encoder_; }

    /// Attach a reference library (nullptr detaches). The library must
    /// outlive the stage and must have been built from an encoder with the
    /// same dim/mz_bins. Not thread-safe against concurrent analyze().
    void set_library(const SpectralLibrary* library) { library_ = library; }

    /// Analyze one decoded frame. MUST be called in frame order within a
    /// stream — the streaming engine guarantees this by calling from its
    /// turnstile-serialized emission section. Calls for different
    /// streams may race freely.
    FrameVerdict analyze(std::uint32_t stream, std::uint64_t frame_index,
                         const pipeline::Frame& frame);

    /// Snapshot of all verdicts so far (stream-major, frame order within a
    /// stream).
    AnalysisReport report() const;

    /// FNV-1a digest over the verdict sequence of report() — equal digests
    /// mean identical clustering and identification outcomes. Used by tests
    /// to pin determinism across worker counts and SIMD tiers.
    std::uint64_t digest() const;

private:
    struct StreamState {
        std::vector<Hypervector> leaders;
        std::vector<FrameVerdict> verdicts;
    };

    AnalysisConfig config_;
    SpectrumEncoder encoder_;
    std::uint64_t radius_bits_;
    const SpectralLibrary* library_ = nullptr;

    mutable std::mutex mutex_;
    std::map<std::uint32_t, StreamState> streams_;
    std::uint64_t clusters_total_ = 0;
};

}  // namespace htims::analysis
