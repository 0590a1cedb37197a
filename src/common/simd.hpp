// simd.hpp — runtime CPU dispatch for the SIMD kernels: the batched FWHT
// (transform/fwht_batch.cpp), the Hamming distance of the HD analysis stage
// (common/hamming.cpp), the CRC-32 of every frame container and store
// structure (common/crc32.cpp), and the FPGA model's saturating accumulate
// and the analysis stage's m/z profile fold (common/accumulate.cpp).
//
// The batched deconvolution path widens its butterflies to L contiguous
// doubles per node; how wide L should be, and which kernel variant runs, is
// a property of the machine the binary lands on, not of the build. This shim
// detects the instruction set once (process lifetime), exposes the selected
// tier, and lets kernels hang their function-pointer tables off it. The
// environment variable HTIMS_SIMD ("generic", "avx2", "avx512", "neon") can
// *downgrade* the selection — useful for A/B benchmarking, and the way
// scripts/check.sh's tier-1 stage runs the `kernels` test label through the
// portable kernels (generic) and the AVX2 tier on hosts that would pick a
// higher one — but never upgrades past what the CPU reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace htims {

/// Instruction-set tier the batched kernels dispatch on. Order matters on
/// x86: higher enum values are strict supersets.
enum class SimdTier : int {
    kGeneric = 0,  ///< portable auto-vectorizable C++
    kAvx2 = 1,     ///< 256-bit: 4 doubles per register
    kAvx512 = 2,   ///< 512-bit: 8 doubles per register
    kNeon = 3,     ///< aarch64: 2 doubles per register (always present)
};

/// Detected (and possibly env-downgraded) tier. Detection runs once; the
/// result is cached for the process lifetime, so kernels may safely build
/// static dispatch tables from it.
SimdTier simd_tier();

/// Human-readable tier name ("generic", "avx2", "avx512", "neon").
const char* simd_tier_name(SimdTier tier);

/// Doubles per SIMD register at a tier (1 for generic — scalar registers).
std::size_t simd_register_lanes(SimdTier tier);

/// Default lane count L for the batched deconvolution path on this machine:
/// 8 under AVX-512, otherwise 4 (two NEON registers / one AVX2 register /
/// a comfortably unrollable width for the portable kernel).
std::size_t batch_lanes();

/// XOR-popcount (Hamming) distance between two `words`-long packed bit
/// vectors — the inner loop of the hyperdimensional analysis stage
/// (src/analysis/). Dispatched once per process through the same
/// function-pointer-table idiom as the batched FWHT: generic
/// (std::popcount), AVX2 (pshufb nibble LUT + psadbw), AVX-512
/// (VPOPCNTQ when the CPU has avx512vpopcntdq, else the AVX2 kernel), NEON
/// (vcnt + pairwise widening adds). Every tier computes the exact integer
/// count, so results are bit-identical across tiers by construction — the
/// parity tests in tests/test_analysis_hd.cpp pin that.
std::uint64_t hamming_distance(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t words);

/// Scalar oracle: SWAR popcount with auto-vectorization disabled, so it
/// stays an honest one-word-at-a-time baseline for the kernel benches and
/// the tier-parity tests even at -O2/-march=native.
std::uint64_t hamming_distance_scalar(const std::uint64_t* a,
                                      const std::uint64_t* b,
                                      std::size_t words);

/// The Hamming kernel of one specific tier, for parity tests and A/B
/// benches. Returns nullopt when the host cannot execute `tier` (wrong
/// architecture family, or AVX-512 requested without avx512vpopcntdq —
/// partial-AVX-512 hosts run that tier through the AVX2 kernel instead).
std::optional<std::uint64_t> hamming_distance_at_tier(SimdTier tier,
                                                      const std::uint64_t* a,
                                                      const std::uint64_t* b,
                                                      std::size_t words);

/// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, initial value and
/// final XOR 0xFFFFFFFF) of a byte buffer: the integrity check of every
/// frame container (pipeline/frame_io) and store superblock, index and
/// footer (store/frame_store). Dispatched once per process: a 4x128-bit
/// PCLMULQDQ fold with Barrett reduction at the AVX2 and AVX-512 tiers
/// when the CPU reports pclmul, crc32_bytewise everywhere else. Both
/// compute the same remainder, so the bytes a container or store holds do
/// not depend on the host.
std::uint32_t crc32(const void* data, std::size_t bytes);

/// Byte-at-a-time table loop: crc32()'s kernel at the generic and NEON
/// tiers, and the oracle the parity tests and the kernel bench compare the
/// fold against.
std::uint32_t crc32_bytewise(const void* data, std::size_t bytes);

/// Saturating accumulate of `count` samples into `count` words: each
/// bins[i] += samples[i], clamped to `rail`, and the return value counts the
/// adds the clamp cut. The FPGA model's capture (pipeline/fpga.cpp) runs it
/// over each contiguous run of frame cells. Requires bins[i] <= rail <
/// 2^62, so no add can overflow. Dispatched once per process: four words
/// per register at the AVX2 and AVX-512 tiers, a scalar loop elsewhere;
/// both are exact, so every tier leaves the same words and count.
std::uint64_t saturating_accumulate(std::int64_t* bins, const std::uint32_t* samples,
                                    std::size_t count, std::int64_t rail);

/// Positive column sums of a row-major `rows` x `cols` block of doubles:
/// out[c] is the sum, in row order from +0, of max(cells[r * cols + c], +0),
/// so NaN, -0 and negative cells add +0. The analysis stage's m/z profile
/// (analysis/encoder.cpp) runs it over each decoded frame. Dispatched once
/// per process: 16 columns in four 256-bit accumulators at the AVX2 and
/// AVX-512 tiers, blocks of 8 scalar accumulators elsewhere. Each column
/// adds the same terms in the same order as `if (x > 0) sum += x`, so every
/// tier gives that loop's bits.
void positive_column_sums(const double* cells, std::size_t rows, std::size_t cols,
                          double* out);

}  // namespace htims
