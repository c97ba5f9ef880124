// blasmini::gemm — a CLBlast-style auto-tuned GEMM routine on top of the
// simulator and ATF: the downstream-consumer layer of the auto-tuning
// pipeline.
//
//   blasmini::gemm_executor gemm(device, &db);
//   gemm.tune(m, n, k);                   // once per device/shape; fills db
//   auto t = gemm.run(m, n, k, A, B, C);  // dispatches with tuned params
//
// run() uses, in order of preference: the database entry for the exact
// (device, shape); otherwise the kernel's built-in defaults — the same
// fallback logic CLBlast applies, whose performance consequences Section
// VI-B quantifies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "atf/kernels/xgemm_direct.hpp"
#include "blasmini/tuning_db.hpp"
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

/// Rebuilds kernel parameters from a database record, falling back to the
/// kernel defaults *per parameter* for missing or unparsable values — a
/// hand-edited or corrupt database line degrades gracefully, it never
/// throws at dispatch time.
[[nodiscard]] atf::kernels::xgemm::params params_from_record(
    const record& config);

class gemm_executor {
public:
  /// `db` may be null: every dispatch then uses the kernel defaults.
  explicit gemm_executor(ocls::device dev, tuning_db* db = nullptr);

  /// Tunes XgemmDirect for this shape with ATF under an evaluation budget
  /// and stores the best configuration in the database. Returns the
  /// best-found parameters. This overload keeps the historical defaults
  /// (ensemble search, no journal).
  atf::kernels::xgemm::params tune(std::size_t m, std::size_t n,
                                   std::size_t k,
                                   std::uint64_t evaluations = 20'000,
                                   std::uint64_t seed = 1);

  /// Full-control overload: technique, budget, seed and session journal.
  atf::kernels::xgemm::params tune(std::size_t m, std::size_t n,
                                   std::size_t k, const tune_options& opts);

  /// Computes C[m x n] = A[m x k] * B[k x n] functionally on the simulated
  /// device using the best-known parameters; returns the modeled kernel
  /// time in nanoseconds.
  double run(std::size_t m, std::size_t n, std::size_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c) const;

  /// run() with explicit parameters instead of the db/defaults chain — the
  /// entry point the size dispatcher executes its decisions through.
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

  /// The parameters run() would use for this shape (db entry or defaults).
  [[nodiscard]] atf::kernels::xgemm::params params_for(std::size_t m,
                                                       std::size_t n,
                                                       std::size_t k) const;

  [[nodiscard]] const ocls::device& device() const noexcept {
    return device_;
  }
  [[nodiscard]] tuning_db* db() const noexcept { return db_; }

  [[nodiscard]] static std::string problem_signature(std::size_t m,
                                                     std::size_t n,
                                                     std::size_t k);

private:
  ocls::device device_;
  tuning_db* db_;
};

}  // namespace blasmini
