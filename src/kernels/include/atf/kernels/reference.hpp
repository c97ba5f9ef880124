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

}  // namespace atf::kernels::reference
