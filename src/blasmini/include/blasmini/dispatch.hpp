// blasmini::dispatcher — multi-size dynamic dispatch for the auto-tuned
// GEMM (the production-traffic half of the CLBlast story; the Kernel Tuning
// Toolkit paper demonstrates the same dynamic-autotuning-for-varying-inputs
// workflow).
//
// A library tune targets one problem size; production traffic has arbitrary
// sizes. The dispatcher closes the gap in three stages, all on the store
// and queue of an in-process atf::service::tuning_service (DESIGN.md §13):
// one crash-safe journal per key {"xgemm", device name, "MxNxK"}, named by
// service_key::file_stem(), which is also exactly what atf_served serves.
//
//   1. Grid tuning. tune_grid() tunes the kernel over a configurable
//      problem-size grid, each grid point under its own per-key journal
//      (DESIGN.md §9) — a SIGKILLed grid tune resumed on the same journal
//      directory replays every measured prefix from the stores and
//      converges bit-identically to the uninterrupted run.
//   2. Size-aware dispatch. dispatch(m, n, k) serves a key's journal best
//      directly; an *unseen* size gets the configuration of its nearest
//      tuned neighbour under the log-size metric
//          d = sqrt(sum_i (ln a_i - ln b_i)^2),  i in {m, n, k}
//      (relative size differences matter, absolute ones do not). A
//      surrogate forest trained on the journals' search measurements
//      re-ranks the nearest neighbours' best configurations at the query
//      size and may overrule plain nearest-neighbour. Every served configuration is
//      constraint-checked against the query shape; the kernel defaults
//      remain the final fallback.
//   3. Background refinement. A dispatch miss enqueues the exact shape on
//      the service's bounded refinement queue; refine() drains it by
//      exact-shape tuning, so a hot production size graduates from
//      "served nearest config" to "served its own tuned config".
//
// Journals written before the per-key naming ("<device>-MxNxK.jsonl") and
// the old tab-separated tuning databases are not read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search/surrogate_model.hpp"
#include "atf/service/service.hpp"
#include "blasmini/gemm.hpp"
#include "ocls/ocls.hpp"

namespace blasmini {

/// A set of problem shapes to grid-tune. Built explicitly, from per-axis
/// factor lists (cross product), or parsed from a compact spec string.
struct size_grid {
  std::vector<atf::kernels::xgemm::problem> sizes;

  /// Cross product of per-axis extents: every (m, n, k) with m in ms,
  /// n in ns, k in ks, in lexicographic order.
  [[nodiscard]] static size_grid cross(const std::vector<std::size_t>& ms,
                                       const std::vector<std::size_t>& ns,
                                       const std::vector<std::size_t>& ks);

  /// Parses "8,32x8,32x8,64" (per-axis comma lists, 'x'-separated — the
  /// cross product) or "10x500x64;20x576x25" (';'-separated explicit
  /// shapes); the two forms combine across ';'. Throws std::invalid_argument
  /// on malformed specs or zero extents.
  [[nodiscard]] static size_grid parse(const std::string& spec);

  [[nodiscard]] bool empty() const noexcept { return sizes.empty(); }
};

/// Dispatch policy knobs. The defaults serve nearest-neighbour with
/// surrogate re-ranking over 3 neighbours.
struct dispatch_options {
  /// Budget/technique/seed template for grid and refinement tunes. The
  /// per-size seed is derived from this seed and the problem signature, so
  /// grid points explore independent streams deterministically. The
  /// journal field is ignored (journal_dir owns per-size paths).
  tune_options tuning;
  /// Required: the per-key journal directory ("<file_stem>.jsonl"), the
  /// same layout atf_served --journal-dir reads. Must exist.
  std::string journal_dir;
  /// Re-rank the neighbours' configurations with a surrogate forest trained
  /// on the per-size journal records.
  bool surrogate_rerank = true;
  /// Valid journal records required before the re-ranker trains; below the
  /// gate dispatch stays plain nearest-neighbour.
  std::size_t min_rerank_samples = 64;
  /// Refinement-queue bound; older pending shapes are kept, new misses
  /// beyond the bound are dropped (and counted).
  std::size_t max_pending = 64;
};

class dispatcher {
public:
  /// Loads every journal under opts.journal_dir. Throws
  /// atf::service::service_error when journal_dir is empty.
  dispatcher(ocls::device dev, dispatch_options opts);

  /// Tunes every grid size in order (skipping nothing — completed sizes
  /// resume instantly from their journals) and reloads the dispatch state.
  /// Returns the number of grid points tuned.
  std::size_t tune_grid(const size_grid& grid);

  /// Where a dispatch decision came from, strongest to weakest.
  enum class source { exact, reranked, nearest, defaults };

  struct decision {
    atf::kernels::xgemm::params params;
    source from = source::defaults;
    /// Signature of the stored size whose configuration was served
    /// (empty for exact hits and default fallbacks).
    std::string neighbor;
    /// Log-space distance to that size (0 for exact hits).
    double distance = 0.0;
  };

  /// The dispatch decision for an arbitrary shape. Cold shapes (anything
  /// but an exact hit) are enqueued for refinement as a side effect.
  decision dispatch(std::size_t m, std::size_t n, std::size_t k);

  /// Dispatches and executes in one step; returns the modeled kernel time.
  double run(std::size_t m, std::size_t n, std::size_t k,
             std::span<const float> a, std::span<const float> b,
             std::span<float> c);

  /// Shapes waiting for exact-shape refinement (the service queue depth).
  [[nodiscard]] std::size_t pending_refinements() const;

  /// Drains up to `max_tunes` pending shapes by exact-shape tuning
  /// (journaled like grid points); returns the number tuned. Subsequent
  /// dispatches of a refined shape are exact hits.
  std::size_t refine(std::size_t max_tunes = 1);

  /// Journal path of one problem signature under journal_dir. Exposed so
  /// tests and tools can stage crashes.
  [[nodiscard]] std::string journal_path(const std::string& signature) const;

  /// Re-reads every per-key journal and refits the re-ranker — a fresh
  /// process pointed at an existing journal directory gets this from the
  /// constructor (tune_grid and refine do it automatically).
  void reload();

  /// Stored sizes dispatch currently selects among (ascending signature).
  [[nodiscard]] std::vector<std::string> known_sizes() const;

  /// Valid journal records backing the re-ranker (0 = re-ranking off).
  [[nodiscard]] std::size_t rerank_samples() const noexcept {
    return rerank_samples_;
  }

  /// Misses dropped because the refinement queue was full. Operators watch
  /// this to size max_pending; it only ever grows, refine() does not reset
  /// it.
  [[nodiscard]] std::uint64_t dropped_refinements() const;

  [[nodiscard]] const dispatch_options& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] gemm_executor& executor() noexcept { return executor_; }

private:
  struct stored_size {
    atf::kernels::xgemm::problem shape;
    std::string signature;
    atf::kernels::xgemm::params params;  ///< the journal best for this shape
  };

  [[nodiscard]] atf::service::service_key key_of(
      const std::string& signature) const;
  /// Tunes one shape under its per-key journal and seed.
  void tune_one(const atf::kernels::xgemm::problem& shape);
  /// Rebuilds stored_ and the re-ranker from the service's snapshot.
  void rebuild();

  ocls::device device_;
  dispatch_options opts_;
  gemm_executor executor_;

  std::vector<stored_size> stored_;         ///< ascending signature
  atf::search::surrogate_model reranker_;
  std::size_t rerank_samples_ = 0;
  atf::service::tuning_service service_;    ///< refine_fn calls tune_one
};

}  // namespace blasmini
