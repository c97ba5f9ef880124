// Scalar reference implementations used to verify the functional results of
// the simulated kernels (the analogue of ATF's optional OpenCL result
// checking).
#pragma once

#include <cstddef>
#include <span>

namespace atf::kernels::reference {

/// y[i] = a * x[i] + y[i] for all i.
void saxpy(float a, std::span<const float> x, std::span<float> y);

/// C[m x n] = A[m x k] * B[k x n], row-major, C overwritten; C must not
/// overlap A or B. Each element is the sum over p ascending, from 0.0f.
void gemm(std::size_t m, std::size_t n, std::size_t k,
          std::span<const float> a, std::span<const float> b,
          std::span<float> c);

/// True when `got` and `want` have the same length and every element of
/// `got` lies within `tolerance` of its counterpart. A NaN on either side
/// fails, so a kernel that writes NaN never passes a reference check.
[[nodiscard]] bool matches(std::span<const float> got,
                           std::span<const float> want, float tolerance);

}  // namespace atf::kernels::reference
