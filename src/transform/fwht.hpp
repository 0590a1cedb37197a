// fwht.hpp — fast Walsh–Hadamard transform.
//
// The workhorse of the O(N log N) simplex decoder. The transform computed is
// the *unnormalized* Sylvester–Hadamard transform:
//     W[v] = sum_u (-1)^{<u,v>} z[u],   u, v in [0, 2^n)
// with <u,v> the GF(2) inner product of the bit vectors. Applying it twice
// multiplies by the length, i.e. fwht(fwht(z)) == len * z.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace htims::transform {

/// In-place unnormalized FWHT. `data.size()` must be a power of two.
void fwht(std::span<double> data);

/// In-place batched FWHT over `lanes` interleaved transforms. `data` is
/// lane-interleaved (AoSoA): node j of lane l lives at data[j * lanes + l],
/// data.size() == n * lanes with n a power of two. Every lane undergoes
/// exactly the butterfly schedule of fwht(), so per-lane results are
/// bit-identical to the scalar transform; the batch layout only widens each
/// butterfly to `lanes` contiguous doubles, which is what lets the kernel
/// run one full SIMD register per node pair. Dispatches at runtime to the
/// best available kernel (generic / AVX2 / AVX-512 / NEON — see
/// common/simd.hpp); any lane count is accepted, multiples of the register
/// width are the fast path.
void fwht_batch(std::span<double> data, std::size_t lanes);

/// The same batched transform over 64-bit integers, through the same kernel
/// table: the fixed-point FPGA model's decode, where every butterfly is an
/// exact integer add or subtract. Each lane equals fwht() of that lane in
/// doubles wherever the doubles are exact (every partial sum below 2^53).
void fwht_batch(std::span<std::int64_t> data, std::size_t lanes);

/// True if n is a nonzero power of two.
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

}  // namespace htims::transform
