#include "transform/deconvolver.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "transform/fwht.hpp"

namespace htims::transform {

Deconvolver::Deconvolver(const prs::MSequence& seq)
    : n_(seq.length()), scale_(-2.0 / static_cast<double>(seq.length() + 1)) {
    state_idx_.assign(seq.states().begin(), seq.states().end());

    // u_i: the linear functional with a[(i+j) mod N] = <u_i, s_j>; its bit b
    // equals the sequence at (i + t_b) where t_b is the time the state was
    // the b-th unit vector. The convolution-form gather index is the
    // time-reversed trajectory f_k = u_{(N-k) mod N}.
    const int order = seq.order();
    std::vector<std::uint32_t> u(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        std::uint32_t v = 0;
        for (int b = 0; b < order; ++b)
            v |= static_cast<std::uint32_t>(seq.bit(i + seq.unit_state_time(b)))
                 << static_cast<std::uint32_t>(b);
        u[i] = v;
    }
    func_idx_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
        func_idx_[k] = u[(n_ - k) % n_];
        // Both index maps land in [1, N]: the transform scratch is N+1 wide
        // with node 0 reserved, and the decode loops index it unchecked.
        HTIMS_DCHECK(func_idx_[k] >= 1 && func_idx_[k] <= n_,
                     "gather index targets a transform node");
    }
    HTIMS_CHECK(n_ > 0 && state_idx_.size() == n_, "one LFSR state per chip");
}

void Deconvolver::decode(std::span<const double> y, std::span<double> x, Workspace& ws) const {
    HTIMS_EXPECTS(y.size() == n_ && x.size() == n_);
    HTIMS_EXPECTS(ws.buf.size() == n_ + 1);
    std::fill(ws.buf.begin(), ws.buf.end(), 0.0);
    for (std::size_t t = 0; t < n_; ++t) ws.buf[state_idx_[t]] = y[t];
    fwht(ws.buf);
    for (std::size_t k = 0; k < n_; ++k) x[k] = scale_ * ws.buf[func_idx_[k]];
}

void Deconvolver::decode_batch(std::span<const double> y, std::span<double> x,
                               BatchWorkspace& ws) const {
    const std::size_t lanes = ws.lanes;
    HTIMS_EXPECTS(lanes > 0 && ws.buf.size() == (n_ + 1) * lanes);
    HTIMS_EXPECTS(y.size() == n_ * lanes && x.size() == n_ * lanes);
    // The scatter indices cover [1, N] exactly once, so only node 0 needs
    // explicit zeroing before the transform.
    std::fill(ws.buf.begin(), ws.buf.begin() + static_cast<std::ptrdiff_t>(lanes), 0.0);
    double* buf = ws.buf.data();
    for (std::size_t t = 0; t < n_; ++t) {
        HTIMS_DCHECK(state_idx_[t] >= 1 && state_idx_[t] <= n_,
                     "scatter index targets a transform node");
        std::copy_n(y.data() + t * lanes, lanes, buf + state_idx_[t] * lanes);
    }
    fwht_batch(ws.buf, lanes);
    for (std::size_t k = 0; k < n_; ++k) {
        const double* w = buf + func_idx_[k] * lanes;
        double* out = x.data() + k * lanes;
        for (std::size_t l = 0; l < lanes; ++l) out[l] = scale_ * w[l];
    }
}

void Deconvolver::encode(std::span<const double> x, std::span<double> y, Workspace& ws) const {
    HTIMS_EXPECTS(x.size() == n_ && y.size() == n_);
    HTIMS_EXPECTS(ws.buf.size() == n_ + 1);
    std::fill(ws.buf.begin(), ws.buf.end(), 0.0);
    double total = 0.0;
    for (std::size_t k = 0; k < n_; ++k) {
        ws.buf[func_idx_[k]] = x[k];
        total += x[k];
    }
    fwht(ws.buf);
    for (std::size_t t = 0; t < n_; ++t) y[t] = 0.5 * (total - ws.buf[state_idx_[t]]);
}

AlignedVector<double> Deconvolver::encode(std::span<const double> x) const {
    AlignedVector<double> y(n_);
    Workspace ws = make_workspace();
    encode(x, y, ws);
    return y;
}

AlignedVector<double> Deconvolver::decode(std::span<const double> y) const {
    AlignedVector<double> x(n_);
    Workspace ws = make_workspace();
    decode(y, x, ws);
    return x;
}

}  // namespace htims::transform
