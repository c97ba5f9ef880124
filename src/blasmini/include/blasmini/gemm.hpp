// blasmini::gemm — a CLBlast-style auto-tuned GEMM routine on top of the
// simulator and ATF: the downstream-consumer layer of the auto-tuning
// pipeline.
//
//   blasmini::gemm_executor gemm(device);
//   auto p = gemm.tune(m, n, k, opts);           // opts.journal: where to keep it
//   auto t = gemm.run_with(p, m, n, k, A, B, C);  // executes with those params
//
// The tuned result lives in the tune's session journal; blasmini::dispatcher
// reads those journals back and picks the parameters for any shape, falling
// back to the kernel's built-in defaults — the same fallback logic CLBlast
// applies, whose performance consequences Section VI-B quantifies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "atf/kernels/xgemm_direct.hpp"
#include "ocls/ocls.hpp"

namespace blasmini {

/// Knobs of one tuning run. The defaults reproduce the historical
/// tune(m, n, k) behaviour exactly: ensemble search, 20'000 evaluations,
/// seed 1, no session journal (pinned by a regression test).
struct tune_options {
  /// Any atf::kernels::registry::make_technique name; `opentuner` is the
  /// AUC-bandit ensemble (the historical default), `surrogate` the
  /// model-guided search.
  std::string technique = "opentuner";
  std::uint64_t evaluations = 20'000;
  std::uint64_t seed = 1;
  /// Non-empty: attach a crash-safe session journal (DESIGN.md §9) at this
  /// path — a killed tune resumed on the same journal replays its measured
  /// prefix from the store and converges to the uninterrupted result.
  std::string journal;
  /// Called once per *fresh* cost-function invocation (store hits replayed
  /// from a journal never reach the cost function). Progress reporting —
  /// and the honest crash the kill-and-resume harness stages.
  std::function<void()> on_measure;
};

/// Technique tag of the journal record the never-below-defaults guard of
/// gemm_executor::tune appends.
inline constexpr std::string_view defaults_technique = "defaults";

class gemm_executor {
public:
  explicit gemm_executor(ocls::device dev);

  /// Tunes XgemmDirect for this shape with ATF under an evaluation budget
  /// and returns the best-found parameters — never slower than the kernel
  /// defaults. This overload keeps the historical defaults (ensemble
  /// search, no journal).
  atf::kernels::xgemm::params tune(std::size_t m, std::size_t n,
                                   std::size_t k,
                                   std::uint64_t evaluations = 20'000,
                                   std::uint64_t seed = 1);

  /// Full-control overload: technique, budget, seed and session journal.
  /// When the defaults beat the tuned best, they are returned and, with a
  /// journal, appended to it as one measured record: the journal's best,
  /// which every reader serves, is then never slower than the defaults.
  atf::kernels::xgemm::params tune(std::size_t m, std::size_t n,
                                   std::size_t k, const tune_options& opts);

  /// Computes C[m x n] = A[m x k] * B[k x n] functionally on the simulated
  /// device with parameters `p`; returns the modeled kernel time in
  /// nanoseconds. The size dispatcher executes its decisions through this.
  double run_with(const atf::kernels::xgemm::params& p, std::size_t m,
                  std::size_t n, std::size_t k, std::span<const float> a,
                  std::span<const float> b, std::span<float> c) const;

  /// Modeled kernel time (ns) of one configuration on this device, without
  /// computing the result matrix — the measurement behind every tuning run
  /// and the dispatched-vs-oracle-vs-defaults quality comparisons. Throws
  /// ocls::error when the configuration cannot launch.
  [[nodiscard]] double modeled_time_ns(
      std::size_t m, std::size_t n, std::size_t k,
      const atf::kernels::xgemm::params& p) const;

  [[nodiscard]] const ocls::device& device() const noexcept {
    return device_;
  }

  [[nodiscard]] static std::string problem_signature(std::size_t m,
                                                     std::size_t n,
                                                     std::size_t k);

private:
  ocls::device device_;
};

}  // namespace blasmini
