// accumulate.cpp — two runtime-dispatched accumulation kernels: the FPGA
// model's saturating BRAM capture (pipeline/fpga.cpp) and the positive
// column sums of the analysis stage's m/z profile (analysis/encoder.cpp).
//
// Every digitized sample is added into its frame cell's accumulation word,
// and a word that would pass its rail stays at the rail and counts one
// saturation. Samples are u32 and words start at zero, so only the upper
// rail is reachable and one add is
//
//     v = bins[i] + s;  saturations += v > rail;  bins[i] = min(v, rail)
//
// The kernel follows hamming.cpp's dispatch idiom: one function pointer
// selected per process from common/simd.hpp's detected tier (so HTIMS_SIMD
// can downgrade it).
//
//   generic, neon   the loop above, left to the auto-vectorizer.
//   avx2, avx512    four words per 256-bit register: widen four samples to
//                   int64, add, compare against the rail, blend the rail
//                   in and subtract the all-ones compare mask from a lane
//                   counter.
//
// Both are exact integer arithmetic, so every tier leaves the same words and
// counts; tests/test_simd.cpp pins the dispatched kernel to a scalar loop.
//
// The column sums add max(x, +0) down each column of a row-major block:
//
//   generic, neon   blocks of 8 columns in 8 scalar accumulators, then one
//                   column at a time.
//   avx2, avx512    blocks of 16 columns in four 256-bit accumulators, the
//                   remaining columns through the generic kernel.
//
// MAXPD returns its second operand when either operand is NaN or both are
// zero, so _mm256_max_pd(x, +0) is +0 for NaN, -0 and negative x, the same
// term as the scalar `x > 0 ? x : +0`. Adding +0 to a sum that starts at +0
// and only grows leaves it unchanged, so both kernels give the bits of
// `if (x > 0) sum += x`; tests/test_simd.cpp pins that too.
#include "common/simd.hpp"

#include <algorithm>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define HTIMS_SIMD_X86 1
#include <immintrin.h>
#endif

namespace htims {

namespace {

using AccumulateKernel = std::uint64_t (*)(std::int64_t*, const std::uint32_t*,
                                           std::size_t, std::int64_t);

std::uint64_t accumulate_generic(std::int64_t* bins, const std::uint32_t* samples,
                                 std::size_t count, std::int64_t rail) {
    std::uint64_t saturations = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t v = bins[i] + static_cast<std::int64_t>(samples[i]);
        saturations += v > rail ? 1u : 0u;
        bins[i] = std::min(v, rail);
    }
    return saturations;
}

#if HTIMS_SIMD_X86

__attribute__((target("avx2"))) std::uint64_t accumulate_avx2(
    std::int64_t* bins, const std::uint32_t* samples, std::size_t count,
    std::int64_t rail) {
    const __m256i vrail = _mm256_set1_epi64x(rail);
    __m256i counts = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        auto* word = reinterpret_cast<__m256i*>(bins + i);
        const __m256i s = _mm256_cvtepu32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(samples + i)));
        const __m256i v = _mm256_add_epi64(_mm256_loadu_si256(word), s);
        const __m256i over = _mm256_cmpgt_epi64(v, vrail);  // -1 where v > rail
        counts = _mm256_sub_epi64(counts, over);
        _mm256_storeu_si256(word, _mm256_blendv_epi8(v, vrail, over));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), counts);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
           accumulate_generic(bins + i, samples + i, count - i, rail);
}

#endif  // HTIMS_SIMD_X86

AccumulateKernel select_kernel(SimdTier tier) {
    switch (tier) {
#if HTIMS_SIMD_X86
        case SimdTier::kAvx512:
        case SimdTier::kAvx2:
            return accumulate_avx2;
#endif
        default:
            return accumulate_generic;
    }
}

}  // namespace

std::uint64_t saturating_accumulate(std::int64_t* bins, const std::uint32_t* samples,
                                    std::size_t count, std::int64_t rail) {
    static const AccumulateKernel kernel = select_kernel(simd_tier());
    return kernel(bins, samples, count, rail);
}

namespace {

using ColumnSumKernel = void (*)(const double*, std::size_t, std::size_t, double*);

/// Column sums of columns [first, cols).
void column_sums_generic_from(const double* cells, std::size_t rows, std::size_t cols,
                              std::size_t first, double* out) {
    const auto positive = [](double x) { return x > 0.0 ? x : 0.0; };
    std::size_t c = first;
    for (; c + 8 <= cols; c += 8) {
        double sums[8] = {};
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t j = 0; j < 8; ++j) sums[j] += positive(cells[r * cols + c + j]);
        std::copy(sums, sums + 8, out + c);
    }
    for (; c < cols; ++c) {
        double sum = 0.0;
        for (std::size_t r = 0; r < rows; ++r) sum += positive(cells[r * cols + c]);
        out[c] = sum;
    }
}

void column_sums_generic(const double* cells, std::size_t rows, std::size_t cols,
                         double* out) {
    column_sums_generic_from(cells, rows, cols, 0, out);
}

#if HTIMS_SIMD_X86

__attribute__((target("avx2"))) void column_sums_avx2(const double* cells,
                                                       std::size_t rows,
                                                       std::size_t cols, double* out) {
    const __m256d zero = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c + 16 <= cols; c += 16) {
        __m256d s0 = zero, s1 = zero, s2 = zero, s3 = zero;
        for (std::size_t r = 0; r < rows; ++r) {
            const double* row = cells + r * cols + c;
            s0 = _mm256_add_pd(s0, _mm256_max_pd(_mm256_loadu_pd(row), zero));
            s1 = _mm256_add_pd(s1, _mm256_max_pd(_mm256_loadu_pd(row + 4), zero));
            s2 = _mm256_add_pd(s2, _mm256_max_pd(_mm256_loadu_pd(row + 8), zero));
            s3 = _mm256_add_pd(s3, _mm256_max_pd(_mm256_loadu_pd(row + 12), zero));
        }
        _mm256_storeu_pd(out + c, s0);
        _mm256_storeu_pd(out + c + 4, s1);
        _mm256_storeu_pd(out + c + 8, s2);
        _mm256_storeu_pd(out + c + 12, s3);
    }
    column_sums_generic_from(cells, rows, cols, c, out);
}

#endif  // HTIMS_SIMD_X86

ColumnSumKernel select_column_sums(SimdTier tier) {
    switch (tier) {
#if HTIMS_SIMD_X86
        case SimdTier::kAvx512:
        case SimdTier::kAvx2:
            return column_sums_avx2;
#endif
        default:
            return column_sums_generic;
    }
}

}  // namespace

void positive_column_sums(const double* cells, std::size_t rows, std::size_t cols,
                          double* out) {
    static const ColumnSumKernel kernel = select_column_sums(simd_tier());
    kernel(cells, rows, cols, out);
}

}  // namespace htims
