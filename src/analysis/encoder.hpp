// encoder.hpp — spectrum -> binary hypervector encoder (level + ID binding).
//
// Follows the SpecHD/RapidOMS hyperdimensional encoding recipe: every m/z
// bin gets a random D-bit *ID* vector; intensity is quantized onto a ladder
// of *level* vectors built so the Hamming distance between rungs grows
// linearly with their intensity gap (consecutive rungs differ by a fixed
// slice of D/2 bits, so rung 0 and the top rung are D/2 apart — orthogonal,
// as two independent random vectors would be). A spectrum's hypervector is
// the bitwise majority over its top peaks of ID[bin] XOR LEVEL[q(intensity)],
// with a fixed random tiebreak vector deciding even splits.
//
// encode() works a word at a time, as SpecHD's FPGA encoder does with its
// bit-parallel counters: it picks the top peaks by selection
// (std::nth_element), adds each bound word into bit_width(n) carry-save
// counter planes by ripple carry, and takes the majority with a bit-sliced
// compare of the counts against floor(n/2). encode_reference() is the full
// sort and per-bit uint16 vote it replaced, kept as the oracle the tests
// and bench_kernels compare against; both give the same bits.
//
// Everything is derived deterministically from the config seed, so two
// encoders with equal configs produce bit-identical hypervectors — the
// property the clustering digest tests pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/hypervector.hpp"

namespace htims::pipeline {
class Frame;
}

namespace htims::analysis {

/// Encoder shape. `dim` must be a positive multiple of 64.
struct SpectrumEncoderConfig {
    std::size_t dim = 4096;      ///< hypervector width D in bits
    std::size_t mz_bins = 256;   ///< spectrum length the encoder accepts
    std::size_t levels = 32;     ///< intensity quantization rungs
    std::size_t top_peaks = 48;  ///< strongest peaks bound per spectrum
    std::uint64_t seed = 42;     ///< basis derivation seed
};

/// Deterministic spectrum encoder; immutable after construction, safe to
/// share read-only across threads.
class SpectrumEncoder {
public:
    /// Derives the ID / level / tiebreak basis from the seed.
    /// Throws ConfigError when the config is malformed (dim not a positive
    /// multiple of 64, zero mz_bins, fewer than two levels, zero top_peaks).
    explicit SpectrumEncoder(const SpectrumEncoderConfig& config);

    const SpectrumEncoderConfig& config() const { return config_; }
    std::size_t dim() const { return config_.dim; }

    /// Encode an intensity spectrum of exactly mz_bins values. Only positive
    /// bins are peaks (zero, negative and NaN bins are skipped), and an
    /// all-zero spectrum encodes to the all-zero hypervector. Throws
    /// PreconditionError on a wrong length or a +inf peak.
    Hypervector encode(std::span<const double> spectrum) const;

    /// The oracle: encode() by a full sort of the peaks and one uint16 vote
    /// per set bit. Same bits and preconditions, and 6-8x slower at the
    /// paced shape (bench_kernels' speedup.hd_encode); only tests and
    /// bench_kernels call it.
    Hypervector encode_reference(std::span<const double> spectrum) const;

private:
    SpectrumEncoderConfig config_;
    std::vector<Hypervector> id_;     ///< one random ID vector per m/z bin
    std::vector<Hypervector> level_;  ///< intensity ladder, rung 0..levels-1
    Hypervector tiebreak_;            ///< decides even majority splits
};

/// Collapse a decoded frame to its m/z intensity profile: the sum of
/// positive deconvolved cell values over drift time, per m/z bin. Negative
/// excursions (deconvolution noise) are clipped so they cannot cancel real
/// signal. This is the spectrum the analysis stage feeds the encoder; the
/// sums run through the dispatched positive_column_sums (common/simd.hpp).
std::vector<double> mz_intensity_profile(const pipeline::Frame& frame);

}  // namespace htims::analysis
