// Reproduction of Figure 2: speedup of the XgemmDirect kernel auto-tuned by
// ATF over auto-tuning by CLTune and OpenTuner, on the CPU (left) and GPU
// (right) device profiles, for the four Caffe input sizes IS1-IS4.
//
// Methodology per the paper, Section VI:
//  * CLTune runs CLBlast's program with the artificially restricted
//    parameter lists (WGD in {8,16,32}, constrained to divide the result
//    matrix extents). For IS1-IS4 this space is empty, so the kernel falls
//    back to CLTune's device-optimized values tuned on 256 x 256.
//  * OpenTuner searches the unconstrained space with a penalty for invalid
//    configurations; when 10,000 evaluations find no valid configuration it
//    falls back to the kernel's built-in defaults.
//  * ATF generates the constrained space (< 1 s) and explores it with
//    simulated annealing.
//
// Expected shape (paper): ATF wins everywhere; CPU speedups (1.66-17.60x vs
// CLTune, 1.98-5.31x vs OpenTuner) exceed GPU speedups (1.33-3.62x and
// 1.20-1.65x). Auxiliary rows reproduce the Section VI-B observation that
// the kernel defaults usually beat CLTune's 256x256-tuned values here.
#include <cstdio>

#include "bench_common.hpp"

using namespace bench;

int main() {
  std::printf("=== Figure 2: XgemmDirect speedups, ATF vs CLTune and "
              "OpenTuner ===\n\n");

  const ocls::device cpu = ocls::find_device("Intel", "Xeon");
  const ocls::device gpu = ocls::find_device("NVIDIA", "K20m");

  for (const auto* dev : {&cpu, &gpu}) {
    const bool is_cpu = dev->profile().kind == ocls::device_kind::cpu;
    std::printf("--- Device: %s (%s) ---\n", dev->name().c_str(),
                is_cpu ? "CPU" : "GPU");

    // CLTune's device-optimized fallback: tuned once per device on 256x256.
    const xg::params cltune_fallback = cltune_device_optimized(*dev);
    std::printf("CLTune device-optimized values (tuned on 256x256): %s\n\n",
                cltune_fallback.to_string().c_str());

    std::printf("%-4s | %-22s | %10s | %10s | %10s | %9s | %9s\n", "IS",
                "problem (m,n,k)", "ATF [us]", "CLTune[us]", "OpenT[us]",
                "vs CLTune", "vs OpenT");
    print_rule();

    for (int is = 1; is <= 4; ++is) {
      const xg::problem prob = xg::caffe_input_size(is);

      // --- CLTune path ---------------------------------------------------
      // CLBlast's restricted program; the space is empty for these shapes.
      bool cltune_space_empty = false;
      xg::params cltune_used = cltune_fallback;
      try {
        auto program = make_clblast_cltune_program(prob, *dev);
        program.UseFullSearch();
        program.Tune();
        cltune_used = atf::kernels::params_from_values<xg::params>(
            program.GetBestResult());
      } catch (const baselines::cltune::empty_space&) {
        cltune_space_empty = true;  // fall back to device-optimized values
      }
      const double t_cltune =
          measure(prob, cltune_used, *dev, xg::size_mode::general);

      // --- OpenTuner path --------------------------------------------------
      const auto ot = tune_with_opentuner(prob, *dev);
      const double t_opentuner =
          measure(prob, ot.used, *dev, xg::size_mode::general);

      // --- ATF path ---------------------------------------------------------
      const auto atf = tune_with_atf(prob, *dev, xg::size_mode::general);

      std::printf(
          "IS%d  | m=%-4zu n=%-4zu k=%-4zu | %10.2f | %10.2f | %10.2f | "
          "%8.2fx | %8.2fx\n",
          is, prob.m, prob.n, prob.k, atf.best_ns / 1e3, t_cltune / 1e3,
          t_opentuner / 1e3, t_cltune / atf.best_ns,
          t_opentuner / atf.best_ns);

      std::printf(
          "     |   CLTune restricted space %s; OpenTuner valid "
          "%llu/%llu evals%s; ATF space %llu (gen %.2f s)\n",
          cltune_space_empty ? "EMPTY -> 256x256 fallback" : "non-empty",
          static_cast<unsigned long long>(ot.valid_evaluations),
          static_cast<unsigned long long>(ot.evaluations),
          ot.found_valid ? "" : " -> kernel defaults",
          static_cast<unsigned long long>(atf.space_size),
          atf.generation_seconds);
      std::printf("     |   ATF best: %s\n", atf.best.to_string().c_str());
    }

    // Section VI-B: the kernel defaults vs CLTune's device-optimized values.
    std::printf("\nVI-B check: kernel defaults vs CLTune 256x256-optimized "
                "values\n");
    for (int is = 1; is <= 4; ++is) {
      const xg::problem prob = xg::caffe_input_size(is);
      const double t_default = measure(prob, xg::params::defaults(), *dev,
                                       xg::size_mode::general);
      const double t_fallback =
          measure(prob, cltune_fallback, *dev, xg::size_mode::general);
      std::printf(
          "  IS%d: defaults %.2f us, CLTune-optimized %.2f us -> defaults "
          "are %s (%.2fx)\n",
          is, t_default / 1e3, t_fallback / 1e3,
          t_default < t_fallback ? "better" : "worse",
          t_fallback / t_default);
    }
    std::printf("\n");
  }
  return 0;
}
