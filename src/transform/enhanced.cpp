#include "transform/enhanced.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace htims::transform {

EnhancedDeconvolver::EnhancedDeconvolver(const prs::OversampledPrs& prs)
    : prs_(prs),
      base_(prs.base()),
      n_(prs.base().length()),
      fine_len_(prs.length()),
      factor_(prs.factor()),
      mode_(prs.mode()) {
    // PRS order/length coherence: the fine grid is exactly F interleaved
    // copies of the base m-sequence, the assumption every phase loop below
    // indexes by.
    HTIMS_CHECK(factor_ >= 1, "oversampling factor is at least 1");
    HTIMS_CHECK(fine_len_ == n_ * static_cast<std::size_t>(factor_),
                "fine-grid length is factor x base length");
}

EnhancedDeconvolver::Workspace EnhancedDeconvolver::make_workspace() const {
    Workspace ws;
    ws.base = base_.make_workspace();
    ws.phase_in.resize(n_);
    ws.phase_out.resize(n_);
    ws.z.resize(fine_len_);
    return ws;
}

void EnhancedDeconvolver::decode(std::span<const double> y, std::span<double> x,
                                 Workspace& ws) const {
    HTIMS_EXPECTS(y.size() == fine_len_ && x.size() == fine_len_);
    if (factor_ == 1) {
        base_.decode(y, x, ws.base);
        return;
    }
    if (mode_ == prs::GateMode::kPulsed)
        decode_pulsed(y, x, ws);
    else
        decode_stretched(y, x, ws);
}

AlignedVector<double> EnhancedDeconvolver::decode(std::span<const double> y) const {
    AlignedVector<double> x(fine_len_);
    Workspace ws = make_workspace();
    decode(y, x, ws);
    return x;
}

EnhancedDeconvolver::BatchWorkspace EnhancedDeconvolver::make_batch_workspace(
    std::size_t lanes) const {
    BatchWorkspace ws;
    ws.tile.resize((n_ + 1) * lanes);
    if (factor_ > 1 && mode_ == prs::GateMode::kStretched) {
        ws.z.resize(fine_len_ * lanes);
        ws.integral.resize(fine_len_);
    }
    ws.lanes = lanes;
    return ws;
}

void EnhancedDeconvolver::decode_batch(std::span<const double> y, std::span<double> x,
                                       std::size_t stride, std::size_t lanes,
                                       BatchWorkspace& ws) const {
    HTIMS_EXPECTS(lanes >= 1 && lanes <= ws.lanes && lanes <= stride);
    HTIMS_EXPECTS(y.size() >= (fine_len_ - 1) * stride + lanes &&
                  x.size() >= (fine_len_ - 1) * stride + lanes);
    const auto f = static_cast<std::size_t>(factor_);
    const std::span<double> tile(ws.tile.data(), (n_ + 1) * lanes);
    const auto gather = base_.gather_index();
    const double scale = base_.decode_scale();
    // Z_r = S^{-1} Y_r from phase r's N rows (fine bins f q + r), through
    // the tile: chip p of lane l lands at dst[p * step + l].
    const auto decode_phase = [&](std::size_t r, double* dst, std::size_t step) {
        base_.transform_tile(y.subspan(r * stride), f * stride, lanes, tile);
        for (std::size_t p = 0; p < n_; ++p) {
            const double* w = tile.data() + std::size_t{gather[p]} * lanes;
            for (std::size_t l = 0; l < lanes; ++l) dst[p * step + l] = scale * w[l];
        }
    };

    if (factor_ == 1 || mode_ == prs::GateMode::kPulsed) {
        // F independent simplex systems, X_r = Z_r, back into phase r's
        // rows. They are all in the tile before any is written, so decoding
        // in place is exact.
        for (std::size_t r = 0; r < f; ++r) decode_phase(r, x.data() + r * stride, f * stride);
        return;
    }

    // Stretched gate. Every Z_r, lane-interleaved (z[(r N + q) L + l]),
    // before any row of x is written.
    HTIMS_DCHECK(ws.z.size() >= fine_len_ * lanes && ws.integral.size() == fine_len_,
                 "stretched scratch sized to the fine grid");
    double* z = ws.z.data();
    for (std::size_t r = 0; r < f; ++r) decode_phase(r, z + r * n_ * lanes, lanes);

    // Per lane, decode()'s recombination in its arithmetic order: P_r in
    // contiguous scratch, then lane l's fine-grid result over its own column
    // of z (read in full by then), in fine-bin order.
    double* integral = ws.integral.data();
    for (std::size_t l = 0; l < lanes; ++l) {
        const auto zl = [&](std::size_t r, std::size_t q) { return z[(r * n_ + q) * lanes + l]; };
        // Quiet-chip anchor: the first minimum of W = Z_{F-1}.
        std::size_t q0 = 0;
        for (std::size_t q = 1; q < n_; ++q)
            if (zl(f - 1, q) < zl(f - 1, q0)) q0 = q;
        // P_r[q0] = 0; P_r[q] = P_r[q-1] + D_r[q] around the circle, with
        // D_0[q] = Z_0[q] - W[q-1] and D_r[q] = Z_r[q] - Z_{r-1}[q].
        for (std::size_t r = 0; r < f; ++r) {
            double* p_r = integral + r * n_;
            p_r[q0] = 0.0;
            for (std::size_t s = 1, prev = q0; s < n_; ++s) {
                const std::size_t q = prev + 1 == n_ ? 0 : prev + 1;
                const double d = r == 0 ? zl(0, q) - zl(f - 1, prev) : zl(r, q) - zl(r - 1, q);
                p_r[q] = p_r[prev] + d;
                prev = q;
            }
        }
        double residual = 0.0;
        for (std::size_t q = 0; q < n_; ++q) {
            double s = zl(f - 1, q);
            for (std::size_t r = 0; r < f; ++r) s -= integral[r * n_ + q];
            residual += s;
        }
        const double alpha = residual / static_cast<double>(n_ * f);
        for (std::size_t p = 0; p < n_; ++p)
            for (std::size_t r = 0; r < f; ++r)
                z[(f * p + r) * lanes + l] = integral[r * n_ + p] + alpha;
    }
    for (std::size_t i = 0; i < fine_len_; ++i)
        std::copy_n(z + i * lanes, lanes, x.data() + i * stride);
}

AlignedVector<double> EnhancedDeconvolver::encode(std::span<const double> x) const {
    return prs_.encode_reference(x);
}

void EnhancedDeconvolver::encode_fast(std::span<const double> x, std::span<double> y,
                                      Workspace& ws) const {
    HTIMS_EXPECTS(x.size() == fine_len_ && y.size() == fine_len_);
    if (factor_ == 1) {
        base_.encode(x, y, ws.base);
        return;
    }
    const auto f = static_cast<std::size_t>(factor_);
    if (mode_ == prs::GateMode::kPulsed) {
        // Each phase is an independent simplex system: Y_r = S X_r.
        for (std::size_t r = 0; r < f; ++r) {
            for (std::size_t p = 0; p < n_; ++p) ws.phase_in[p] = x[f * p + r];
            base_.encode(ws.phase_in, ws.phase_out, ws.base);
            for (std::size_t q = 0; q < n_; ++q) y[f * q + r] = ws.phase_out[q];
        }
        return;
    }
    // Stretched gate: E_t = S X_t per phase, then
    // Y_r = prefix_r + rot1(total - prefix_r) with prefix_r = sum_{t<=r} E_t.
    for (std::size_t t = 0; t < f; ++t) {
        for (std::size_t p = 0; p < n_; ++p) ws.phase_in[p] = x[f * p + t];
        base_.encode(ws.phase_in, std::span(ws.z).subspan(t * n_, n_), ws.base);
    }
    std::fill(ws.phase_out.begin(), ws.phase_out.end(), 0.0);  // total
    for (std::size_t t = 0; t < f; ++t) {
        const double* et = ws.z.data() + t * n_;
        for (std::size_t q = 0; q < n_; ++q) ws.phase_out[q] += et[q];
    }
    std::fill(ws.phase_in.begin(), ws.phase_in.end(), 0.0);  // prefix
    for (std::size_t r = 0; r < f; ++r) {
        const double* er = ws.z.data() + r * n_;
        for (std::size_t q = 0; q < n_; ++q) ws.phase_in[q] += er[q];
        for (std::size_t q = 0; q < n_; ++q) {
            const std::size_t qm1 = (q + n_ - 1) % n_;
            y[f * q + r] = ws.phase_in[q] + (ws.phase_out[qm1] - ws.phase_in[qm1]);
        }
    }
}

void EnhancedDeconvolver::decode_pulsed(std::span<const double> y, std::span<double> x,
                                        Workspace& ws) const {
    const auto f = static_cast<std::size_t>(factor_);
    for (std::size_t r = 0; r < f; ++r) {
        for (std::size_t q = 0; q < n_; ++q) ws.phase_in[q] = y[f * q + r];
        base_.decode(ws.phase_in, ws.phase_out, ws.base);
        for (std::size_t p = 0; p < n_; ++p) x[f * p + r] = ws.phase_out[p];
    }
}

void EnhancedDeconvolver::decode_stretched(std::span<const double> y, std::span<double> x,
                                           Workspace& ws) const {
    const auto f = static_cast<std::size_t>(factor_);

    // Z_r = S^{-1} Y_r for every oversampling phase.
    for (std::size_t r = 0; r < f; ++r) {
        for (std::size_t q = 0; q < n_; ++q) ws.phase_in[q] = y[f * q + r];
        base_.decode(ws.phase_in, std::span(ws.z).subspan(r * n_, n_), ws.base);
    }
    const std::span<const double> w(ws.z.data() + (f - 1) * n_, n_);  // Z_{F-1} = sum_t X_t

    // Quiet-chip anchor: the minimum of the chip-resolution total profile.
    const std::size_t q0 = static_cast<std::size_t>(
        std::min_element(w.begin(), w.end()) - w.begin());

    // Integrate each phase's circular difference equation from the anchor.
    for (std::size_t r = 0; r < f; ++r) {
        // D_r into phase_in.
        const double* zr = ws.z.data() + r * n_;
        if (r == 0) {
            for (std::size_t q = 0; q < n_; ++q)
                ws.phase_in[q] = zr[q] - w[(q + n_ - 1) % n_];
        } else {
            const double* zp = ws.z.data() + (r - 1) * n_;
            for (std::size_t q = 0; q < n_; ++q) ws.phase_in[q] = zr[q] - zp[q];
        }
        // P_r[q0] = 0; P_r[q] = P_r[q-1] + D_r[q] around the circle.
        ws.phase_out[q0] = 0.0;
        for (std::size_t s = 1; s < n_; ++s) {
            const std::size_t q = (q0 + s) % n_;
            const std::size_t prev = (q0 + s - 1) % n_;
            ws.phase_out[q] = ws.phase_out[prev] + ws.phase_in[q];
        }
        for (std::size_t p = 0; p < n_; ++p) x[f * p + r] = ws.phase_out[p];
    }

    // Distribute the remaining additive constant so that sum_r X_r matches
    // the chip-resolution total W in the mean.
    double residual = 0.0;
    for (std::size_t q = 0; q < n_; ++q) {
        double s = w[q];
        for (std::size_t r = 0; r < f; ++r) s -= x[f * q + r];
        residual += s;
    }
    const double alpha = residual / static_cast<double>(n_ * f);
    for (std::size_t i = 0; i < fine_len_; ++i) x[i] += alpha;
}

}  // namespace htims::transform
