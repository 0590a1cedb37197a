// deconvolver.hpp — fast Hadamard-transform simplex encode/decode.
//
// The detector signal in HT-IMS is the circular convolution y = S x of the
// drift profile x with the gate m-sequence (S[t][k] = a[(t-k) mod N]).
// Because S is invertible in closed form, S^{-1} = 2/(N+1) (2 S^T - J), and
// because the ±1 image of S is a row/column-permuted Sylvester-Hadamard
// matrix, both the encode and the decode reduce to one fast Walsh–Hadamard
// transform of length N+1 = 2^n plus an index permutation:
//
//   decode:  z[s_t] = y[t];  w = FWHT(z);  x[k] = -2/(N+1) * w[f_k]
//   encode:  z[f_k] = x[k];  w = FWHT(z);  y[t] = (sum(x) - w[s_t]) / 2
//
// where s_t is the LFSR state trajectory and f_k the matching linear
// functional index, both precomputed from the sequence. This is the
// algorithm the paper's FPGA deconvolver implements (there in fixed point;
// see pipeline/fpga.hpp); here it is the double-precision software decoder
// used by the CPU backend and the verification reference for everything
// else. Complexity O(N log N), allocation-free when a Workspace is reused.
#pragma once

#include <cstdint>
#include <span>

#include "common/aligned_buffer.hpp"
#include "prs/sequence.hpp"

namespace htims::transform {

/// Fast encoder/decoder for one m-sequence. Thread-safe for concurrent use
/// when each thread passes its own Workspace.
class Deconvolver {
public:
    explicit Deconvolver(const prs::MSequence& seq);

    /// Sequence length N = 2^order - 1.
    std::size_t length() const { return n_; }
    /// FWHT length N + 1.
    std::size_t padded_length() const { return n_ + 1; }

    /// Scratch buffer sized for one transform. Reuse across calls to avoid
    /// per-spectrum allocation in the streaming pipeline.
    struct Workspace {
        AlignedVector<double> buf;
    };
    Workspace make_workspace() const { return Workspace{AlignedVector<double>(n_ + 1)}; }

    /// x (length N) -> y (length N): y = S x, the multiplexed signal.
    void encode(std::span<const double> x, std::span<double> y, Workspace& ws) const;
    AlignedVector<double> encode(std::span<const double> x) const;

    /// y (length N) -> x (length N): x = S^{-1} y.
    void decode(std::span<const double> y, std::span<double> x, Workspace& ws) const;
    AlignedVector<double> decode(std::span<const double> y) const;

    /// Scratch for a lane-interleaved batch of `lanes` transforms:
    /// (N + 1) * lanes doubles.
    struct BatchWorkspace {
        AlignedVector<double> buf;
        std::size_t lanes = 0;
    };
    BatchWorkspace make_batch_workspace(std::size_t lanes) const {
        return BatchWorkspace{AlignedVector<double>((n_ + 1) * lanes), lanes};
    }

    /// Decode `ws.lanes` independent records at once. `y` and `x` are
    /// lane-interleaved (AoSoA): element t of lane l lives at
    /// y[t * lanes + l]. The scatter/gather index permutations are applied
    /// once per node group (L contiguous doubles move together) and the
    /// transform runs through fwht_batch, so each lane's result is
    /// bit-identical to decode() on that lane alone.
    void decode_batch(std::span<const double> y, std::span<double> x,
                      BatchWorkspace& ws) const;

    /// LFSR state trajectory s_t (scatter index for decode); values are
    /// distinct and nonzero, in [1, N].
    std::span<const std::uint32_t> scatter_index() const { return state_idx_; }

    /// Linear-functional index f_k (gather index for decode); values are
    /// distinct and nonzero, in [1, N].
    std::span<const std::uint32_t> gather_index() const { return func_idx_; }

    /// Decode normalization factor -2/(N+1).
    double decode_scale() const { return scale_; }

private:
    std::size_t n_;
    double scale_;
    std::vector<std::uint32_t> state_idx_;  // s_t, t in [0, N)
    std::vector<std::uint32_t> func_idx_;   // f_k, k in [0, N)
};

}  // namespace htims::transform
