// enhanced.hpp — the PNNL-enhanced deconvolution for oversampled PRS.
//
// This is the "more sophisticated deconvolution algorithm based on a
// PNNL-developed enhancement to standard Hadamard transform Ion Mobility
// spectrometry" the paper implements on the FPGA. The detector stream is
// sampled on a grid F times finer than the sequence chip; the decoder
// recovers an F*N-bin drift profile from one F*N-bin multiplexed record.
//
// Two gate modes (see prs/oversampled.hpp):
//
//  * kPulsed: each oversampling phase r forms an independent classic
//    simplex system Y_r = S X_r (Y_r[q] = y[F q + r], X_r[p] = x[F p + r]),
//    so the decode is F standard HT inversions — embarrassingly parallel
//    and free of cross-phase coupling.
//
//  * kStretched: the chip-wide gate couples the phases. With
//    Z_r = S^{-1} Y_r one can show
//        Z_r = sum_{t<=r} X_t + rot1( sum_{t>r} X_t ),
//    (rot1 = one-chip circular delay), which yields per-phase circular
//    difference equations (I - rot1) X_r = D_r with
//        D_0 = Z_0 - rot1(Z_{F-1}),   D_r = Z_r - Z_{r-1}  (r >= 1).
//    (I - rot1) is singular (constants are its null space); the decoder
//    integrates D_r around the circle anchored at a quiet chip — chosen as
//    the minimum of the chip-resolution total Z_{F-1}, exploiting the IMS
//    convention that the drift period is longer than the slowest ion so a
//    baseline region always exists — then distributes the remaining
//    constant so that sum_r X_r matches Z_{F-1} exactly.
//
// decode() takes one contiguous record and is the reference. decode_batch()
// decodes `lanes` records where they lie, side by side in the rows of a
// drift-major frame (the CPU backend's tiles), and matches decode() bit for
// bit on every lane.
#pragma once

#include <span>

#include "common/aligned_buffer.hpp"
#include "prs/oversampled.hpp"
#include "transform/deconvolver.hpp"

namespace htims::transform {

/// Decoder for oversampled (modified-PRS) acquisitions.
class EnhancedDeconvolver {
public:
    explicit EnhancedDeconvolver(const prs::OversampledPrs& prs);

    /// Fine-grid record length F * N.
    std::size_t length() const { return fine_len_; }
    int factor() const { return factor_; }
    prs::GateMode mode() const { return mode_; }

    struct Workspace {
        Deconvolver::Workspace base;
        AlignedVector<double> phase_in;   // one phase, length N
        AlignedVector<double> phase_out;  // one phase, length N
        AlignedVector<double> z;          // Z_r stack, length F * N (stretched mode)
    };
    Workspace make_workspace() const;

    /// Decode the fine-grid multiplexed record y (length F*N) into the
    /// fine-grid drift profile x (length F*N).
    void decode(std::span<const double> y, std::span<double> x, Workspace& ws) const;
    AlignedVector<double> decode(std::span<const double> y) const;

    /// Scratch for decode_batch() of up to `lanes` records.
    struct BatchWorkspace {
        AlignedVector<double> tile;      // one transform tile, (N + 1) * lanes
        AlignedVector<double> z;         // Z_r stack, F * N * lanes (stretched)
        AlignedVector<double> integral;  // one lane's P_r stack, F * N (stretched)
        std::size_t lanes = 0;
    };
    BatchWorkspace make_batch_workspace(std::size_t lanes) const;

    /// Decode `lanes` (at most ws.lanes) fine-grid records at once, in the
    /// rows they lie in: element i of lane l is y[i * stride + l] and
    /// x[i * stride + l] — `lanes` adjacent m/z channels of a drift-major
    /// frame when stride is its m/z width. x may alias y. Each phase's rows
    /// go through Deconvolver::transform_tile, `lanes` wide; the
    /// stretched-mode circular integration is sequential per lane and runs
    /// per lane in the exact arithmetic order of decode(), so every lane
    /// matches the scalar decoder bit for bit (each with its own quiet-chip
    /// anchor).
    void decode_batch(std::span<const double> y, std::span<double> x, std::size_t stride,
                      std::size_t lanes, BatchWorkspace& ws) const;

    /// Forward model on the fine grid (delegates to the gate waveform);
    /// reference implementation for tests and benches.
    AlignedVector<double> encode(std::span<const double> x) const;

    /// Fast forward model: F Hadamard encodes plus (for kStretched) a
    /// prefix-sum phase combination — O(F N log N) instead of O(F N^2).
    /// Verified against encode() in the test suite; used by the acquisition
    /// engine, which encodes one record per m/z channel.
    void encode_fast(std::span<const double> x, std::span<double> y, Workspace& ws) const;

private:
    void decode_pulsed(std::span<const double> y, std::span<double> x, Workspace& ws) const;
    void decode_stretched(std::span<const double> y, std::span<double> x, Workspace& ws) const;

    prs::OversampledPrs prs_;
    Deconvolver base_;
    std::size_t n_;         // chip-resolution length N
    std::size_t fine_len_;  // F * N
    int factor_;
    prs::GateMode mode_;
};

}  // namespace htims::transform
