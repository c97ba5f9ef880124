#include "atf/kernels/reference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace atf::kernels::reference {

void saxpy(float a, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = a * x[i] + y[i];
  }
}

void gemm(std::size_t m, std::size_t n, std::size_t k,
          std::span<const float> a, std::span<const float> b,
          std::span<float> c) {
  assert(a.size() >= m * k);
  assert(b.size() >= k * n);
  assert(c.size() >= m * n);
  // i-p-j order: b and c are walked along rows. Each element still sums
  // a[i][p] * b[p][j] for p ascending from 0.0f, the inner-product loop's
  // float operations in its order, so the result is bit-identical to it.
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c.data() + i * n;
    std::fill(row, row + n, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      const float a_ip = a[i * k + p];
      const float* b_row = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        row[j] += a_ip * b_row[j];
      }
    }
  }
}

bool matches(std::span<const float> got, std::span<const float> want,
             float tolerance) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // "<=" rather than ">": every comparison with NaN is false.
    if (!(std::abs(got[i] - want[i]) <= tolerance)) return false;
  }
  return true;
}

}  // namespace atf::kernels::reference
