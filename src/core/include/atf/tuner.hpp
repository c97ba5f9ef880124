// The tuning driver: generates the search space from the declared tuning
// parameters, then explores it with the chosen search technique until the
// abort condition fires (paper, Section II). The cost function may return
// any type with operator< (multi-objective tuning via lexicographic
// composites); the best configuration under that order is returned.
//
// The exploration loop itself is a thin shell: the tuner asks the technique
// for a batch of configurations (one, unless the technique supports batch
// proposals and batched evaluation is enabled), hands the batch to the
// evaluation engine — which owns the measure/cache/log/best-tracking
// pipeline, see evaluation_engine.hpp — and reports the committed costs
// back. Batched evaluation measures independent configurations concurrently
// and is bit-identical to sequential evaluation for pure cost functions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "atf/abort_condition.hpp"
#include "atf/common/logging.hpp"
#include "atf/configuration.hpp"
#include "atf/cost.hpp"
#include "atf/evaluation_engine.hpp"
#include "atf/exhaustive.hpp"
#include "atf/fault_policy.hpp"
#include "atf/search_space.hpp"
#include "atf/search_technique.hpp"
#include "atf/session/session.hpp"
#include "atf/tp.hpp"

namespace atf {

/// Thrown when the generated search space contains no valid configuration —
/// the situation CLBlast runs into when CLTune's restricted WGD range cannot
/// divide the result-matrix extents (paper, Section VI-A).
class empty_search_space_error : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

class tuner {
public:
  tuner() = default;

  /// Declares the tuning parameters as a single dependency group, in
  /// declaration order. Constraints may only reference parameters declared
  /// earlier in the list.
  template <typename... Ts>
  tuner& tuning_parameters(const tp<Ts>&... params) {
    groups_.clear();
    groups_.push_back(G(params...));
    space_.reset();
    return *this;
  }

  /// Declares the tuning parameters as explicit dependency groups (paper,
  /// Section V); the groups' sub-spaces are generated in parallel.
  template <typename... Gs>
    requires(std::conjunction_v<std::is_same<std::decay_t<Gs>, tp_group>...>)
  tuner& tuning_parameters(Gs&&... groups) {
    groups_ = {std::forward<Gs>(groups)...};
    space_.reset();
    return *this;
  }

  /// Declares the tuning parameters from a runtime-built list of dependency
  /// groups — the form generic drivers (the kernel registry) use, where the
  /// group structure is only known at run time.
  tuner& tuning_parameters(std::vector<tp_group> groups) {
    groups_ = std::move(groups);
    space_.reset();
    return *this;
  }

  /// Chooses the search technique; defaults to exhaustive search.
  tuner& search_technique(std::unique_ptr<atf::search_technique> technique) {
    technique_ = std::move(technique);
    return *this;
  }

  /// Sets the abort condition; defaults to evaluations(S) — one sweep over
  /// the whole space.
  tuner& abort_condition(atf::abort_condition condition) {
    abort_ = std::move(condition);
    return *this;
  }

  /// Chooses how the search space is generated (default: intra_group — the
  /// nested groups-by-chunks parallel mode; all modes produce bit-identical
  /// spaces, so tuning results do not depend on this choice).
  tuner& generation(generation_mode mode) {
    generation_mode_ = mode;
    space_.reset();
    return *this;
  }

  /// Chooses the generation mode *and* tunes the adaptive chunk scheduler
  /// behind intra_group mode — the over-partition factor and the hot-chunk
  /// re-split policy (see generation_policy). The policy affects generation
  /// speed only; the generated space stays bit-identical across all
  /// settings.
  tuner& generation(generation_mode mode,
                    const atf::generation_policy& policy) {
    generation_mode_ = mode;
    generation_policy_ = policy;
    space_.reset();
    return *this;
  }

  /// Back-compat toggle: disables parallel generation entirely (false) or
  /// selects the full nested mode (true). Diagnostics/benches.
  tuner& parallel_generation(bool enabled) {
    return generation(enabled ? generation_mode::intra_group
                              : generation_mode::sequential);
  }

  /// Chooses how proposed configurations are evaluated. The default is
  /// sequential — safe for every cost function. Batched mode measures the
  /// configurations of a batch concurrently on worker threads (each one
  /// replayed into a private evaluation context) and is the right choice
  /// for pure cost functions such as the simulator-backed ones; results
  /// are bit-identical to sequential mode there. A cost function that is
  /// not annotated thread-safe (see atf::declares_thread_safe_cost) earns
  /// a warning but the explicit choice is honoured.
  tuner& evaluation(evaluation_mode mode) {
    evaluation_mode_ = mode;
    return *this;
  }

  /// Worker count for batched evaluation (0 = hardware concurrency).
  /// Clamped to the number of leasable evaluation contexts
  /// (detail::max_eval_contexts - 1), with a logged warning.
  tuner& concurrency(std::size_t workers) {
    concurrency_ = workers;
    return *this;
  }

  /// Appends every evaluation to a CSV file.
  tuner& log_file(std::string path) {
    log_path_ = std::move(path);
    return *this;
  }

  /// Caches evaluation results by configuration content: when a search
  /// technique proposes a configuration it has already measured, the cost
  /// is served from the cache instead of re-running the cost function
  /// (the results-database idea of OpenTuner). Off by default — real
  /// measurements are noisy and some users want re-measurement. Results
  /// replayed from a resumed session (see session()) are always served
  /// regardless of this flag.
  tuner& cache_evaluations(bool enabled) {
    cache_ = enabled;
    return *this;
  }

  /// Attaches a crash-safe tuning session backed by the JSONL journal at
  /// `path` (created if absent; DESIGN.md §9). Every measured evaluation
  /// is appended to the journal, and an existing journal warm-starts the
  /// run: previously measured configurations are served from the replayed
  /// store — counted toward the abort condition but never re-measured —
  /// and the prior best seeds the best tracker, so a killed run resumed
  /// with the same seed converges to the same result as an uninterrupted
  /// one. A locked or unreadable journal degrades to a non-persistent
  /// session with a warning; it never aborts the run.
  tuner& session(const std::string& path,
                 const atf::session::options& session_opts = {}) {
    session_ = atf::session::tuning_session::open(path, session_opts);
    return *this;
  }

  /// Attaches an already opened session (sharing one across tuners, or
  /// passing a preconfigured fsync policy/read-only store).
  tuner& session(std::shared_ptr<atf::session::tuning_session> session) {
    session_ = std::move(session);
    return *this;
  }

  /// The attached session, if any — for inspecting the store after tuning.
  [[nodiscard]] const std::shared_ptr<atf::session::tuning_session>&
  current_session() const noexcept {
    return session_;
  }

  /// Fault tolerance for the cost function: retries, catch-all exception
  /// conversion, a post-hoc timeout and the penalty scalar reported for
  /// invalid evaluations (see atf/fault_policy.hpp). Default: only
  /// atf::evaluation_error is tolerated, no retries, no deadline.
  tuner& fault_tolerance(const fault_policy& policy) {
    faults_ = policy;
    return *this;
  }

  /// Prints best-cost improvements to stderr while tuning. verbose(false)
  /// restores the log level that was active before verbose(true) raised it
  /// (and is a no-op if verbosity was never enabled), so toggling verbosity
  /// does not permanently hijack the process-wide log threshold.
  tuner& verbose(bool enabled) {
    if (enabled) {
      if (!pre_verbose_log_level_.has_value()) {
        pre_verbose_log_level_ = common::get_log_level();
      }
      common::set_log_level(common::log_level::info);
    } else if (pre_verbose_log_level_.has_value()) {
      common::set_log_level(*pre_verbose_log_level_);
      pre_verbose_log_level_.reset();
    }
    return *this;
  }

  /// The search space, generated lazily on first use and reused afterwards.
  /// Declaring parameters or changing the generation mode discards the
  /// cached space; call invalidate_space() to force regeneration by hand.
  const search_space& space() {
    if (!space_.has_value()) {
      space_ = search_space::generate(groups_, generation_mode_,
                                      /*threads=*/0, generation_policy_);
    }
    return *space_;
  }

  /// Discards the cached search space so the next space()/tune() call
  /// regenerates it from the declared parameters — for callers that mutate
  /// ranges or constraints behind the tp handles and genuinely need a
  /// fresh generation.
  tuner& invalidate_space() {
    space_.reset();
    return *this;
  }

  /// Runs the exploration loop. CF is any callable taking a
  /// const configuration& and returning a type with operator<.
  template <typename CF>
  auto tune(CF&& cost_function)
      -> tuning_result<std::decay_t<std::invoke_result_t<CF&, const configuration&>>> {
    using cost_t =
        std::decay_t<std::invoke_result_t<CF&, const configuration&>>;

    const search_space& sp = space();
    if (sp.empty()) {
      throw empty_search_space_error(
          "atf::tuner: the constrained search space is empty");
    }

    if (!technique_) {
      technique_ = std::make_unique<exhaustive>();
    }

    typename evaluation_engine<cost_t>::options opts;
    opts.mode = evaluation_mode_;
    opts.concurrency = concurrency_;
    opts.cache = cache_;
    opts.log_path = log_path_;
    // The engine warns (once per tune, deduped across batches) when
    // batched mode meets a cost function without a purity annotation.
    opts.cost_thread_safe = declares_thread_safe_cost(cost_function);
    opts.session = session_;
    opts.faults = faults_;
    opts.technique = technique_->name();

    evaluation_engine<cost_t> engine(
        sp,
        [&cost_function](const configuration& config) -> cost_t {
          return cost_function(config);
        },
        abort_.valid() ? abort_ : cond::evaluations(sp.size()),
        std::move(opts));

    technique_->initialize(sp);
    if (session_) {
      // Replayed journal history shapes warm-start-capable techniques (the
      // surrogate's training set) before the first proposal.
      technique_->warm_start(session_->store());
    }
    const std::size_t batch_limit = engine.batch_limit();
    for (;;) {
      const std::vector<configuration> batch =
          technique_->propose_batch(batch_limit);
      if (batch.empty()) {
        break;  // the technique has nothing left to propose
      }
      const auto outcome = engine.evaluate(batch);
      technique_->report_batch(batch, outcome.scalars);
      if (outcome.aborted) {
        break;
      }
    }
    technique_->finalize();
    return engine.finish();
  }

  /// Paper-style spelling: the tuner object is callable.
  template <typename CF>
  auto operator()(CF&& cost_function) {
    return tune(std::forward<CF>(cost_function));
  }

private:
  std::vector<tp_group> groups_;
  std::unique_ptr<atf::search_technique> technique_;
  atf::abort_condition abort_;
  std::optional<search_space> space_;
  generation_mode generation_mode_ = generation_mode::intra_group;
  atf::generation_policy generation_policy_;
  evaluation_mode evaluation_mode_ = evaluation_mode::sequential;
  std::size_t concurrency_ = 0;
  std::optional<common::log_level> pre_verbose_log_level_;
  bool cache_ = false;
  std::string log_path_;
  std::shared_ptr<atf::session::tuning_session> session_;
  fault_policy faults_;
};

}  // namespace atf
