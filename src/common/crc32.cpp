// crc32.cpp — runtime-dispatched CRC-32 (IEEE 802.3, reflected 0xEDB88320).
//
// Every frame container and store structure carries a CRC-32, and the replay
// path computes one over every frame it archives and every frame it opens,
// so the checksum runs at memory speed or it becomes the slowest layer. The
// kernel follows hamming.cpp's dispatch idiom: one function pointer selected
// per process from common/simd.hpp's detected tier (so HTIMS_SIMD can
// downgrade it).
//
//   generic, neon   the byte-at-a-time table loop, which is also the oracle
//                   (crc32_bytewise).
//   avx2, avx512    carry-less multiply fold (PCLMULQDQ) when the CPU
//                   reports pclmul, else the table loop: four 128-bit lanes
//                   fold 64 bytes per step, collapse to one lane, then a
//                   Barrett reduction yields the 32-bit remainder (Gopal et
//                   al., "Fast CRC Computation for Generic Polynomials Using
//                   PCLMULQDQ Instruction", Intel 2009; the reflected-domain
//                   constants for 0xEDB88320 are the ones zlib's x86 SIMD
//                   CRC uses). Inputs under 64 bytes and the sub-16-byte
//                   tail go through the table loop.
//
// Both kernels compute the same remainder of the same polynomial, so the
// on-disk bytes never depend on the host; tests/test_simd.cpp pins the
// dispatched kernel to the oracle.
#include "common/simd.hpp"

#include <array>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define HTIMS_SIMD_X86 1
#include <immintrin.h>
#endif

namespace htims {

namespace {

using Crc32Kernel = std::uint32_t (*)(const void*, std::size_t);

constexpr std::array<std::uint32_t, 256> make_table() {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
        t[i] = c;
    }
    return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

// Advances a raw CRC register (pre- and post-inversion are applied once, in
// the entry points).
std::uint32_t update_bytewise(std::uint32_t crc, const unsigned char* p,
                              std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i)
        crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
    return crc;
}

#if HTIMS_SIMD_X86

// Lane helpers carry the kernel's target attribute themselves: a lambda
// would not inherit it, and GCC refuses to inline the pclmul intrinsics
// into code compiled without it.
__attribute__((target("pclmul,sse4.1"))) __m128i load128(
    const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// x.lo * k.lo ^ x.hi * k.hi ^ next: one lane advanced past the bytes that
// `k`'s powers of x span, with the next block folded in.
__attribute__((target("pclmul,sse4.1"))) __m128i fold128(__m128i x, __m128i k,
                                                         __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Folds `bytes` (>= 64, a multiple of 16) into the raw register `crc`.
// x1..x4 hold four 128-bit lanes of the running remainder; each step
// multiplies every lane by x^(512±32) mod P (k1, k2) and XORs in the next
// 64 bytes. k3/k4 then fold the lanes into one, k5 folds 128 bits to 64,
// and the Barrett step (P' = floor(x^64 / P) and P itself) reduces to 32.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_pclmul(
    std::uint32_t crc, const unsigned char* p, std::size_t bytes) {
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    p += 64;
    bytes -= 64;
    for (; bytes >= 64; p += 64, bytes -= 64) {
        x1 = fold128(x1, k1k2, load128(p));
        x2 = fold128(x2, k1k2, load128(p + 16));
        x3 = fold128(x3, k1k2, load128(p + 32));
        x4 = fold128(x4, k1k2, load128(p + 48));
    }
    x1 = fold128(x1, k3k4, x2);
    x1 = fold128(x1, k3k4, x3);
    x1 = fold128(x1, k3k4, x4);
    for (; bytes >= 16; p += 16, bytes -= 16)
        x1 = fold128(x1, k3k4, load128(p));

    // 128 -> 64 bits: the low half times k4, plus the high half.
    __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                              _mm_clmulepi64_si128(x1, k3k4, 0x10));
    // 64 -> 32 bits (times k5), then Barrett reduction modulo P.
    x = _mm_xor_si128(_mm_srli_si128(x, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

std::uint32_t crc32_pclmul(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    if (bytes >= 64) {
        const std::size_t folded = bytes & ~std::size_t{15};
        crc = fold_pclmul(crc, p, folded);
        p += folded;
        bytes -= folded;
    }
    return ~update_bytewise(crc, p, bytes);
}

#endif  // HTIMS_SIMD_X86

Crc32Kernel select_kernel(SimdTier tier) {
#if HTIMS_SIMD_X86
    // PCLMULQDQ predates AVX2 on every x86 vendor, but the tiers do not
    // imply it; without it these tiers run the table loop.
    if ((tier == SimdTier::kAvx2 || tier == SimdTier::kAvx512) &&
        __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
        return crc32_pclmul;
#endif
    (void)tier;
    return crc32_bytewise;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes) {
    static const Crc32Kernel kernel = select_kernel(simd_tier());
    return kernel(data, bytes);
}

std::uint32_t crc32_bytewise(const void* data, std::size_t bytes) {
    return ~update_bytewise(0xFFFFFFFFu,
                            static_cast<const unsigned char*>(data), bytes);
}

}  // namespace htims
