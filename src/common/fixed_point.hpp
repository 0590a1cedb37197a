// fixed_point.hpp — software model of FPGA fixed-point (Q-format) arithmetic.
//
// The paper's FPGA component performs data capture, accumulation and
// deconvolution in fixed point. To answer the same questions the authors
// asked on the Cray XD1 — does the algorithm fit the word widths a Virtex-II
// Pro offers, and what precision penalty does fixed point incur? — we model
// Q(total_bits, frac_bits) two's-complement quantization with explicit,
// *saturating* overflow behaviour, exactly as a DSP48/BRAM datapath would be
// configured. The representation is runtime-parameterised (rather than a
// template on the widths) because the precision sweep in experiment E8 needs
// to iterate over formats. ShiftQuantizer is the integer form of the
// FPGA model's output register (pipeline/fpga.cpp); Fixed is the
// double-valued quantizer it is tested against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace htims {

/// Describes a signed two's-complement Q-format: `total_bits` including the
/// sign bit, of which `frac_bits` are fractional.
struct QFormat {
    int total_bits = 32;
    int frac_bits = 16;

    constexpr double scale() const { return static_cast<double>(std::int64_t{1} << frac_bits); }
    constexpr std::int64_t max_raw() const { return (std::int64_t{1} << (total_bits - 1)) - 1; }
    constexpr std::int64_t min_raw() const { return -(std::int64_t{1} << (total_bits - 1)); }
    constexpr double max_value() const { return static_cast<double>(max_raw()) / scale(); }
    constexpr double min_value() const { return static_cast<double>(min_raw()) / scale(); }
    /// Quantization step (value of one LSB).
    constexpr double lsb() const { return 1.0 / scale(); }

    constexpr bool operator==(const QFormat&) const = default;
};

/// Validate that a format is representable in our 64-bit raw carrier.
inline void validate(const QFormat& q) {
    if (q.total_bits < 2 || q.total_bits > 63)
        throw ConfigError("QFormat total_bits must be in [2, 63]");
    if (q.frac_bits < 0 || q.frac_bits >= q.total_bits)
        throw ConfigError("QFormat frac_bits must be in [0, total_bits)");
}

/// A value quantized into a QFormat: rounded to the nearest LSB (half away
/// from zero) and saturated at the rails, never wrapped — the reference the
/// FPGA model's integer output register (ShiftQuantizer) is checked against.
class Fixed {
public:
    Fixed(double v, QFormat q) : fmt_(q), raw_(quantize(v, q)) {}

    double to_double() const { return static_cast<double>(raw_) / fmt_.scale(); }

private:
    static std::int64_t quantize(double v, QFormat q) {
        const double scaled = v * q.scale();
        if (std::isnan(scaled)) return 0;
        if (scaled >= static_cast<double>(q.max_raw())) return q.max_raw();
        if (scaled <= static_cast<double>(q.min_raw())) return q.min_raw();
        return static_cast<std::int64_t>(std::llround(scaled));
    }

    QFormat fmt_;
    std::int64_t raw_;
};

/// The output register of an integer datapath whose words carry `shift`
/// fractional bits (a word w stands for w / 2^shift): requantizes w into
/// `fmt`, rounding and saturating exactly as Fixed(w / 2^shift, fmt) does,
/// in integers. When fmt keeps fewer fractional bits than the word it
/// shifts right, rounding half away from zero, and clamps to the rails;
/// otherwise it shifts left, saturating at the rails. The two agree wherever
/// the Fixed path's double is exact (|w| < 2^53).
class ShiftQuantizer {
public:
    ShiftQuantizer(int shift, QFormat fmt)
        : fmt_(fmt),
          down_(fmt.frac_bits < shift),
          k_(down_ ? shift - fmt.frac_bits : fmt.frac_bits - shift),
          lsb_(fmt.lsb()) {
        validate(fmt);
        if (shift < 0 || shift > 62) throw ConfigError("quantizer shift must be in [0, 62]");
    }

    std::int64_t raw(std::int64_t w) const {
        if (down_) {
            // floor((|w| + half) / 2^k) with w's sign: for w < 0 that is
            // floor((w + half - 1) / 2^k), so one arithmetic shift serves both.
            const std::int64_t half = std::int64_t{1} << (k_ - 1);
            const std::int64_t r = (w + half - (w < 0 ? 1 : 0)) >> k_;
            return std::clamp(r, fmt_.min_raw(), fmt_.max_raw());
        }
        if (w > (fmt_.max_raw() >> k_)) return fmt_.max_raw();
        if (w < (fmt_.min_raw() >> k_)) return fmt_.min_raw();
        return w * (std::int64_t{1} << k_);
    }

    /// raw(w) in value units; lsb is a power of two, so the product is
    /// Fixed::to_double()'s quotient bit for bit.
    double value(std::int64_t w) const { return static_cast<double>(raw(w)) * lsb_; }

private:
    QFormat fmt_;
    bool down_;
    int k_;
    double lsb_;
};

}  // namespace htims
