#include "analysis/encoder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "pipeline/frame.hpp"

namespace htims::analysis {

namespace {

Hypervector random_hypervector(std::size_t dim, Rng& rng) {
    Hypervector hv(dim);
    for (std::size_t w = 0; w < hv.word_count(); ++w) hv.data()[w] = rng.next_u64();
    return hv;
}

}  // namespace

SpectrumEncoder::SpectrumEncoder(const SpectrumEncoderConfig& config)
    : config_(config) {
    if (config.dim == 0 || config.dim % 64 != 0)
        throw ConfigError("encoder dim must be a positive multiple of 64");
    if (config.mz_bins == 0) throw ConfigError("encoder mz_bins must be > 0");
    if (config.levels < 2) throw ConfigError("encoder needs at least 2 levels");
    if (config.top_peaks == 0) throw ConfigError("encoder top_peaks must be > 0");

    Rng rng(config.seed);
    id_.reserve(config.mz_bins);
    for (std::size_t i = 0; i < config.mz_bins; ++i)
        id_.push_back(random_hypervector(config.dim, rng));

    // Level ladder: rung 0 is random; each higher rung flips the next slice
    // of a fixed random permutation of the bit positions, spending D/2 flips
    // across the whole ladder. Distance between rungs is then proportional
    // to their index gap, and rung 0 vs the top rung is D/2 — as far apart
    // as two independent random vectors.
    std::vector<std::size_t> perm(config.dim);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = config.dim - 1; i > 0; --i) {
        const std::size_t j =
            static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(i + 1)));
        std::swap(perm[i], perm[j]);
    }
    level_.reserve(config.levels);
    level_.push_back(random_hypervector(config.dim, rng));
    const std::size_t flips_total = config.dim / 2;
    for (std::size_t l = 1; l < config.levels; ++l) {
        Hypervector rung = level_.back();
        const std::size_t from = flips_total * (l - 1) / (config.levels - 1);
        const std::size_t to = flips_total * l / (config.levels - 1);
        for (std::size_t f = from; f < to; ++f) rung.flip(perm[f]);
        level_.push_back(std::move(rung));
    }

    tiebreak_ = random_hypervector(config.dim, rng);
}

Hypervector SpectrumEncoder::encode(std::span<const double> spectrum) const {
    HTIMS_EXPECTS(spectrum.size() == config_.mz_bins);

    // One scan: the positive bins (NaN compares false) and their maximum.
    std::vector<std::size_t> peaks;
    double maxv = 0.0;
    for (std::size_t i = 0; i < spectrum.size(); ++i)
        if (spectrum[i] > 0.0) {
            peaks.push_back(i);
            maxv = std::max(maxv, spectrum[i]);
        }
    HTIMS_EXPECTS(std::isfinite(maxv));
    if (peaks.empty()) return Hypervector(config_.dim);
    // Top peaks by intensity, index as a deterministic tiebreak. No peak is
    // NaN, so the order is strict and total: selection keeps the set a full
    // sort keeps, and the bundle below does not depend on the order in it.
    if (peaks.size() > config_.top_peaks) {
        const auto cut = peaks.begin() + static_cast<std::ptrdiff_t>(config_.top_peaks);
        std::nth_element(peaks.begin(), cut, peaks.end(),
                         [&](std::size_t a, std::size_t b) {
                             if (spectrum[a] != spectrum[b]) return spectrum[a] > spectrum[b];
                             return a < b;
                         });
        peaks.resize(config_.top_peaks);
    }

    // Carry-save bundle: each word's per-bit vote count lives in `planes`
    // bit planes (counters[w * planes + p] holds bit p of the 64 counts),
    // and each bound word is added in by ripple carry. A count never
    // exceeds n < 2^planes, so the carry dies inside the planes.
    const std::size_t n = peaks.size();
    const auto planes = static_cast<std::size_t>(std::bit_width(n));
    const std::size_t words = config_.dim / 64;
    std::vector<std::uint64_t> counters(words * planes, 0);
    for (const std::size_t bin : peaks) {
        const double rel = spectrum[bin] / maxv;
        const auto rung = std::min<std::size_t>(
            static_cast<std::size_t>(rel * static_cast<double>(config_.levels - 1) + 0.5),
            config_.levels - 1);
        const std::uint64_t* id = id_[bin].data();
        const std::uint64_t* lvl = level_[rung].data();
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t* count = counters.data() + w * planes;
            for (std::uint64_t carry = id[w] ^ lvl[w]; carry != 0; ++count) {
                const std::uint64_t next = *count & carry;
                *count ^= carry;
                carry = next;
            }
        }
    }

    // Majority: 2 * count > n, or an even split settled by the tiebreak
    // word. Compare each count against floor(n / 2) plane by plane from the
    // top: a bit stays `eq` while the count matches the half so far, and
    // turns `gt` at the first plane where the count has a 1 and the half a 0.
    const std::size_t half = n / 2;
    Hypervector out(config_.dim);
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t* count = counters.data() + w * planes;
        std::uint64_t gt = 0;
        std::uint64_t eq = ~std::uint64_t{0};
        for (std::size_t p = planes; p-- > 0;) {
            if ((half >> p) & 1u) {
                eq &= count[p];
            } else {
                gt |= eq & count[p];
                eq &= ~count[p];
            }
        }
        out.data()[w] = gt | (n % 2 == 0 ? eq & tiebreak_.data()[w] : 0);
    }
    return out;
}

Hypervector SpectrumEncoder::encode_reference(std::span<const double> spectrum) const {
    HTIMS_EXPECTS(spectrum.size() == config_.mz_bins);

    // Top peaks by intensity, index as a deterministic tiebreak.
    std::vector<std::size_t> peaks;
    for (std::size_t i = 0; i < spectrum.size(); ++i)
        if (spectrum[i] > 0.0) peaks.push_back(i);
    if (peaks.empty()) return Hypervector(config_.dim);
    std::sort(peaks.begin(), peaks.end(), [&](std::size_t a, std::size_t b) {
        if (spectrum[a] != spectrum[b]) return spectrum[a] > spectrum[b];
        return a < b;
    });
    if (peaks.size() > config_.top_peaks) peaks.resize(config_.top_peaks);

    // Bind each peak (ID XOR level) and bundle with a per-bit majority vote.
    const double maxv = spectrum[peaks.front()];
    HTIMS_EXPECTS(std::isfinite(maxv));
    std::vector<std::uint16_t> votes(config_.dim, 0);
    for (const std::size_t bin : peaks) {
        const double rel = spectrum[bin] / maxv;
        const auto rung = std::min<std::size_t>(
            static_cast<std::size_t>(rel * static_cast<double>(config_.levels - 1) + 0.5),
            config_.levels - 1);
        const Hypervector& id = id_[bin];
        const Hypervector& lvl = level_[rung];
        for (std::size_t w = 0; w < id.word_count(); ++w) {
            std::uint64_t bound = id.data()[w] ^ lvl.data()[w];
            while (bound != 0) {
                const auto bit = static_cast<std::size_t>(std::countr_zero(bound));
                ++votes[w * 64 + bit];
                bound &= bound - 1;
            }
        }
    }

    const std::size_t n = peaks.size();
    Hypervector out(config_.dim);
    for (std::size_t bit = 0; bit < config_.dim; ++bit) {
        const std::size_t v = 2 * static_cast<std::size_t>(votes[bit]);
        if (v > n || (v == n && tiebreak_.test(bit))) out.set(bit);
    }
    return out;
}

std::vector<double> mz_intensity_profile(const pipeline::Frame& frame) {
    std::vector<double> profile(frame.mz_bins());
    positive_column_sums(frame.data().data(), frame.drift_bins(), frame.mz_bins(),
                         profile.data());
    return profile;
}

}  // namespace htims::analysis
