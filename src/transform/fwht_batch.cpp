// fwht_batch.cpp — lane-blocked (AoSoA) batched Walsh–Hadamard kernels.
//
// The scalar FWHT's butterfly touches two doubles per node pair; processing
// L independent transforms whose elements are interleaved lane-first turns
// the same butterfly into two L-wide vector operations on contiguous memory.
// The kernels below are the generic auto-vectorizable form plus explicit
// AVX2 / AVX-512 / NEON variants selected once per process through a
// function-pointer table keyed on common/simd.hpp's detected tier. Each
// kernel is a template over the element type, with one table per type:
// double for the CPU decoder, int64 for the FPGA model's integer decode
// (pipeline/fpga.cpp), whose butterflies are exact.
//
// Large batches are additionally cache-blocked: a lane-interleaved transform
// of 2^11 nodes at 8 lanes is a 128 KiB working set, and running all eleven
// butterfly stages as full passes streams it from L2 eleven times. Instead,
// every stage with h < B is run block-by-block on B-node sub-transforms that
// fit L1, and only the log2(n/B) cross-block stages touch the full buffer.
// Blocks are data-independent below the cross stages, so this reordering
// leaves every lane's arithmetic sequence unchanged: each result is still
// bit-identical to transform::fwht() on that lane alone — the property the
// parity tests pin down.
#include "transform/fwht.hpp"

#include <bit>
#include <cstdint>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define HTIMS_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define HTIMS_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace htims::transform {

namespace {

// Runs butterfly stages h = h0, 2*h0, ... while h < n. A full transform is
// h0 == 1; the cross-block tail after cache blocking is h0 == block.
template <typename T>
using BatchKernel = void (*)(T*, std::size_t, std::size_t, std::size_t);

// Portable kernel with a compile-time lane count: the fixed trip count lets
// the auto-vectorizer unroll the lane loop into whatever the baseline ISA
// offers.
template <typename T, std::size_t L>
void batch_fixed(T* data, std::size_t n, std::size_t /*lanes*/, std::size_t h0) {
    for (std::size_t h = h0; h < n; h <<= 1) {
        for (std::size_t i = 0; i < n; i += h << 1) {
            for (std::size_t j = i; j < i + h; ++j) {
                T* a = data + j * L;
                T* b = data + (j + h) * L;
                for (std::size_t l = 0; l < L; ++l) {
                    const T x = a[l];
                    const T y = b[l];
                    a[l] = x + y;
                    b[l] = x - y;
                }
            }
        }
    }
}

// Portable kernel for arbitrary (runtime) lane counts — the ragged fallback.
template <typename T>
void batch_any(T* data, std::size_t n, std::size_t lanes, std::size_t h0) {
    for (std::size_t h = h0; h < n; h <<= 1) {
        for (std::size_t i = 0; i < n; i += h << 1) {
            for (std::size_t j = i; j < i + h; ++j) {
                T* a = data + j * lanes;
                T* b = data + (j + h) * lanes;
                for (std::size_t l = 0; l < lanes; ++l) {
                    const T x = a[l];
                    const T y = b[l];
                    a[l] = x + y;
                    b[l] = x - y;
                }
            }
        }
    }
}

// The vector kernels share one stage loop per instruction set; only the
// register-wide butterfly (a, b) <- (a + b, a - b) differs by element type.
// double and int64 are both 8 bytes, so a register holds the same number
// of lanes of either.

#if HTIMS_SIMD_X86

__attribute__((target("avx2"))) inline void butterfly_avx2(double* a, double* b) {
    const __m256d va = _mm256_loadu_pd(a);
    const __m256d vb = _mm256_loadu_pd(b);
    _mm256_storeu_pd(a, _mm256_add_pd(va, vb));
    _mm256_storeu_pd(b, _mm256_sub_pd(va, vb));
}

__attribute__((target("avx2"))) inline void butterfly_avx2(std::int64_t* a,
                                                           std::int64_t* b) {
    auto* pa = reinterpret_cast<__m256i*>(a);
    auto* pb = reinterpret_cast<__m256i*>(b);
    const __m256i va = _mm256_loadu_si256(pa);
    const __m256i vb = _mm256_loadu_si256(pb);
    _mm256_storeu_si256(pa, _mm256_add_epi64(va, vb));
    _mm256_storeu_si256(pb, _mm256_sub_epi64(va, vb));
}

__attribute__((target("avx512f"))) inline void butterfly_avx512(double* a,
                                                                double* b) {
    const __m512d va = _mm512_loadu_pd(a);
    const __m512d vb = _mm512_loadu_pd(b);
    _mm512_storeu_pd(a, _mm512_add_pd(va, vb));
    _mm512_storeu_pd(b, _mm512_sub_pd(va, vb));
}

__attribute__((target("avx512f"))) inline void butterfly_avx512(std::int64_t* a,
                                                                std::int64_t* b) {
    const __m512i va = _mm512_loadu_si512(a);
    const __m512i vb = _mm512_loadu_si512(b);
    _mm512_storeu_si512(a, _mm512_add_epi64(va, vb));
    _mm512_storeu_si512(b, _mm512_sub_epi64(va, vb));
}

// One 256-bit register per four lanes. Requires lanes % 4 == 0.
template <typename T>
__attribute__((target("avx2"))) void batch_avx2(T* data, std::size_t n,
                                                std::size_t lanes,
                                                std::size_t h0) {
    for (std::size_t h = h0; h < n; h <<= 1) {
        for (std::size_t i = 0; i < n; i += h << 1) {
            for (std::size_t j = i; j < i + h; ++j) {
                T* a = data + j * lanes;
                T* b = data + (j + h) * lanes;
                for (std::size_t l = 0; l < lanes; l += 4)
                    butterfly_avx2(a + l, b + l);
            }
        }
    }
}

// One 512-bit register per eight lanes. Requires lanes % 8 == 0.
template <typename T>
__attribute__((target("avx512f"))) void batch_avx512(T* data, std::size_t n,
                                                     std::size_t lanes,
                                                     std::size_t h0) {
    for (std::size_t h = h0; h < n; h <<= 1) {
        for (std::size_t i = 0; i < n; i += h << 1) {
            for (std::size_t j = i; j < i + h; ++j) {
                T* a = data + j * lanes;
                T* b = data + (j + h) * lanes;
                for (std::size_t l = 0; l < lanes; l += 8)
                    butterfly_avx512(a + l, b + l);
            }
        }
    }
}

#endif  // HTIMS_SIMD_X86

#if HTIMS_SIMD_NEON

inline void butterfly_neon(double* a, double* b) {
    const float64x2_t va = vld1q_f64(a);
    const float64x2_t vb = vld1q_f64(b);
    vst1q_f64(a, vaddq_f64(va, vb));
    vst1q_f64(b, vsubq_f64(va, vb));
}

inline void butterfly_neon(std::int64_t* a, std::int64_t* b) {
    const int64x2_t va = vld1q_s64(a);
    const int64x2_t vb = vld1q_s64(b);
    vst1q_s64(a, vaddq_s64(va, vb));
    vst1q_s64(b, vsubq_s64(va, vb));
}

// One 128-bit register per two lanes (NEON is baseline on aarch64).
template <typename T>
void batch_neon(T* data, std::size_t n, std::size_t lanes, std::size_t h0) {
    for (std::size_t h = h0; h < n; h <<= 1) {
        for (std::size_t i = 0; i < n; i += h << 1) {
            for (std::size_t j = i; j < i + h; ++j) {
                T* a = data + j * lanes;
                T* b = data + (j + h) * lanes;
                for (std::size_t l = 0; l < lanes; l += 2)
                    butterfly_neon(a + l, b + l);
            }
        }
    }
}

#endif  // HTIMS_SIMD_NEON

// Dispatch table: `wide`/`narrow` run when the lane count is a multiple of
// the matching step (0 = slot unavailable); anything else falls through to
// the portable kernels. Built once per element type — simd_tier() is cached
// process-wide.
template <typename T>
struct DispatchTable {
    BatchKernel<T> wide = nullptr;
    std::size_t wide_step = 0;
    BatchKernel<T> narrow = nullptr;
    std::size_t narrow_step = 0;
};

template <typename T>
DispatchTable<T> make_dispatch_table() {
    switch (simd_tier()) {
#if HTIMS_SIMD_X86
        case SimdTier::kAvx512:
            // avx512vl implies AVX2, so ragged multiples of 4 stay vectorized.
            return {batch_avx512<T>, 8, batch_avx2<T>, 4};
        case SimdTier::kAvx2:
            return {batch_avx2<T>, 4, batch_avx2<T>, 4};
#endif
#if HTIMS_SIMD_NEON
        case SimdTier::kNeon:
            return {batch_neon<T>, 2, batch_neon<T>, 2};
#endif
        default:
            return {};
    }
}

template <typename T>
BatchKernel<T> select_kernel(std::size_t lanes) {
    static const DispatchTable<T> table = make_dispatch_table<T>();
    if (table.wide_step != 0 && lanes % table.wide_step == 0) return table.wide;
    if (table.narrow_step != 0 && lanes % table.narrow_step == 0)
        return table.narrow;
    if (lanes == 8) return batch_fixed<T, 8>;
    if (lanes == 4) return batch_fixed<T, 4>;
    return batch_any<T>;
}

// Target footprint for one cache-resident sub-transform: half of a typical
// 32 KiB L1d, leaving room for the streamed cross-stage lines.
constexpr std::size_t kBlockBytes = std::size_t{16} * 1024;

template <typename T>
void fwht_batch_impl(std::span<T> data, std::size_t lanes) {
    HTIMS_EXPECTS(lanes > 0 && data.size() % lanes == 0);
    const std::size_t n = data.size() / lanes;
    HTIMS_EXPECTS(is_pow2(n));
    if (n == 1) return;
    const BatchKernel<T> kern = select_kernel<T>(lanes);
    HTIMS_DCHECK(kern != nullptr, "dispatch always resolves to a kernel");
    const std::size_t block = std::bit_floor(kBlockBytes / (lanes * sizeof(T)));
    if (block < 2 || block >= n) {
        kern(data.data(), n, lanes, 1);
        return;
    }
    // Tile-geometry invariants the blocked schedule relies on: a power-of-two
    // block that divides n means the sub-transforms partition the buffer and
    // the cross stages start exactly at stride h = block.
    HTIMS_DCHECK(is_pow2(block), "cache block is a power of two");
    HTIMS_DCHECK(n % block == 0, "blocks partition the transform");
    // Stages h < block, one L1-resident sub-transform per block...
    const std::size_t stride = block * lanes;
    HTIMS_DCHECK(data.size() % stride == 0, "tiles partition the lane buffer");
    for (std::size_t b = 0; b < data.size(); b += stride)
        kern(data.data() + b, block, lanes, 1);
    // ...then the log2(n/block) cross-block stages over the full buffer.
    kern(data.data(), n, lanes, block);
}

}  // namespace

void fwht_batch(std::span<double> data, std::size_t lanes) {
    fwht_batch_impl(data, lanes);
}

void fwht_batch(std::span<std::int64_t> data, std::size_t lanes) {
    fwht_batch_impl(data, lanes);
}

}  // namespace htims::transform
