#include "transform/fwht.hpp"

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace htims::transform {

namespace {

template <typename T>
void fwht_block(T* data, std::size_t n) {
    // Callers validated n as a power of two; let the optimizer drop the
    // partial-tail paths the loop bounds could otherwise imply.
    HTIMS_ASSUME(n == 0 || (n & (n - 1)) == 0);
    for (std::size_t h = 1; h < n; h <<= 1) {
        for (std::size_t i = 0; i < n; i += h << 1) {
            for (std::size_t j = i; j < i + h; ++j) {
                const T a = data[j];
                const T b = data[j + h];
                data[j] = a + b;
                data[j + h] = a - b;
            }
        }
    }
}

}  // namespace

void fwht(std::span<double> data) {
    HTIMS_EXPECTS(is_pow2(data.size()));
    fwht_block(data.data(), data.size());
}

void fwht_i64(std::span<long long> data) {
    HTIMS_EXPECTS(is_pow2(data.size()));
    fwht_block(data.data(), data.size());
}

}  // namespace htims::transform
