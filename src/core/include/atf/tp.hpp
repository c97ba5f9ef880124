// Tuning parameters (paper, Section II Step 1).
//
// A tuning parameter has a *name* (its unique identifier), a *range* of
// candidate values, and an optional *constraint* — a callable that receives a
// candidate value and returns false for values to filter out. Constraints may
// read the values of previously declared parameters: a tp<T> is a cheap
// handle sharing a mutable value slot, and the search-space generator assigns
// slots in declaration order while expanding the space, so a constraint such
// as atf::divides(N / WPT) sees the WPT value of the prefix currently being
// expanded. This is the mechanism behind ATF's contribution (iii): invalid
// configurations are pruned while iterating *ranges*, never materializing the
// Cartesian product.
//
// Evaluation contexts. Because constraints and launch-geometry expressions
// capture tp *handles* (not values), the handles cannot be cloned per thread
// without re-capturing every closure — so instead of one slot per parameter
// there is one slot per parameter per *evaluation context*. A context id is
// thread-local: context 0 is the ambient context every thread starts in (the
// tuner, sequential generation and the per-group generation threads all live
// there), and concurrent expansions of the *same* group — the intra-group
// parallel generation — run each chunk under a scoped_eval_context that
// leases a private id, so their writes land in disjoint slots and the very
// same captured handles read the right prefix on every thread.
//
// Purity contract. A constraint must be a pure, deterministic function of
// its candidate value and of the values it reads through tp handles of
// parameters declared *before* it in the same group: no reads of later (or
// its own) parameters, of other groups' parameters, or of mutable state
// outside tp handles. Parallel generation already relies on this (chunks
// evaluate the same closures concurrently). Shared-suffix generation
// (DESIGN.md §7) relies on it too: while a group is generated, every
// tp::eval() on the generating thread reports its parameter to a
// thread-local read_recorder, and a subtree is reused for every prefix that
// agrees on the values the subtree read. Reads of handles outside the group
// or at/after the reading parameter's level are detected and turn sharing
// off for the group; reads of state outside tp handles cannot be detected.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "atf/range.hpp"
#include "atf/value.hpp"

namespace atf {

namespace detail {

/// Number of value slots per parameter — the maximum number of evaluation
/// contexts that can be live at once. Context 0 is the ambient context;
/// ids 1..max_eval_contexts-1 are leased through eval_context_registry.
inline constexpr std::size_t max_eval_contexts = 64;

/// Largest number of *leased* contexts that can be live simultaneously
/// (context 0 is never leased). Thread pools and evaluation batches are
/// clamped to this width: a wider pool whose tasks all lease a context
/// would leave the excess tasks blocked in eval_context_registry::acquire,
/// and any future nesting of leases could then deadlock the registry.
[[nodiscard]] inline constexpr std::size_t max_leased_contexts() noexcept {
  return max_eval_contexts - 1;
}

/// The evaluation context this thread reads and writes tp slots through.
/// Plain thread_local integer: no dynamic initialization, so the access in
/// tp::eval() compiles to a single TLS load.
inline thread_local std::size_t eval_context_id = 0;

[[nodiscard]] inline std::size_t current_eval_context() noexcept {
  return eval_context_id;
}

/// Process-wide lease pool for context ids 1..max_eval_contexts-1. acquire()
/// blocks until an id is free; holders run one chunk expansion and release,
/// so the number of *concurrent* holders is bounded by the number of running
/// threads and waiting cannot deadlock (every holder makes progress without
/// acquiring a second id).
class eval_context_registry {
public:
  [[nodiscard]] static std::size_t acquire() {
    std::unique_lock lock(mutex());
    cv().wait(lock, [] { return !free_ids().empty(); });
    const std::size_t id = free_ids().back();
    free_ids().pop_back();
    return id;
  }

  static void release(std::size_t id) {
    {
      std::lock_guard lock(mutex());
      free_ids().push_back(id);
    }
    cv().notify_one();
  }

private:
  static std::mutex& mutex() {
    static std::mutex m;
    return m;
  }
  static std::condition_variable& cv() {
    static std::condition_variable c;
    return c;
  }
  static std::vector<std::size_t>& free_ids() {
    static std::vector<std::size_t> ids = [] {
      std::vector<std::size_t> v;
      v.reserve(max_eval_contexts - 1);
      for (std::size_t id = max_eval_contexts; id-- > 1;) {
        v.push_back(id);
      }
      return v;
    }();
    return ids;
  }
};

/// RAII switch of the calling thread onto an already-leased context id; the
/// previous context is restored on destruction. Lets one thread hold several
/// scoped_eval_context leases and hop between them (e.g. replaying a second
/// configuration while the first stays applied in its own context).
class eval_context_switch {
public:
  explicit eval_context_switch(std::size_t id) noexcept
      : previous_(eval_context_id) {
    eval_context_id = id;
  }

  eval_context_switch(const eval_context_switch&) = delete;
  eval_context_switch& operator=(const eval_context_switch&) = delete;

  ~eval_context_switch() { eval_context_id = previous_; }

private:
  std::size_t previous_;
};

/// RAII lease of a private evaluation context: acquires an id, installs it as
/// this thread's context, and restores the previous context on destruction.
/// Used by the intra-group parallel generator around each chunk expansion and
/// by the evaluation engine around each batched cost evaluation.
class scoped_eval_context {
public:
  scoped_eval_context()
      : id_(eval_context_registry::acquire()), previous_(eval_context_id) {
    eval_context_id = id_;
  }

  scoped_eval_context(const scoped_eval_context&) = delete;
  scoped_eval_context& operator=(const scoped_eval_context&) = delete;

  ~scoped_eval_context() {
    eval_context_id = previous_;
    eval_context_registry::release(id_);
  }

  [[nodiscard]] std::size_t id() const noexcept { return id_; }

  /// Switches the calling thread onto this lease's context for the guard's
  /// lifetime — expressions over tuning parameters then read the values
  /// replayed into this context (see search_space::apply(index, context)).
  [[nodiscard]] eval_context_switch activate() const noexcept {
    return eval_context_switch(id_);
  }

private:
  std::size_t id_;
  std::size_t previous_;
};

/// Records which tuning parameters the constraint evaluations of one
/// generating thread read. While a recorder is installed in
/// active_read_recorder, every tp::eval() on that thread reports its shared
/// state; without one, the check costs one TLS load and a branch.
struct read_recorder {
  const void* const* states = nullptr;  ///< the group's tp states, level order
  std::size_t depth = 0;
  std::uint64_t mask = 0;  ///< bit l: the parameter at level l was read
  bool foreign = false;    ///< a handle outside the group was read

  void record(const void* state) noexcept {
    for (std::size_t lvl = 0; lvl < depth; ++lvl) {
      if (states[lvl] == state) {
        mask |= std::uint64_t{1} << lvl;
        return;
      }
    }
    foreign = true;
  }
};

inline thread_local read_recorder* active_read_recorder = nullptr;

/// The shared, mutable state a tp handle points at. The generator writes the
/// candidate value into the *current context's* slot before evaluating
/// dependent constraints; slots are cache-line padded so concurrent chunk
/// expansions do not false-share.
template <typename T>
struct tp_state {
  std::string name;
  range<T> values;
  std::function<bool(T)> constraint;  // empty => unconstrained

  struct alignas(64) padded_slot {
    T value{};
  };
  std::array<padded_slot, max_eval_contexts> current{};
};

}  // namespace detail

/// Public spelling of the private-context lease: callers that keep several
/// applied configurations alive at once (batched cost evaluation) hold one
/// scoped_eval_context per configuration and replay through
/// search_space::apply(index, context).
using scoped_eval_context = detail::scoped_eval_context;

/// User-facing tuning-parameter handle. Copies share state, so a parameter
/// can appear both in the tuner's parameter list and inside the constraints
/// or global/local-size expressions of other parameters.
template <typename T>
class tp {
public:
  using value_type = T;

  /// Unconstrained parameter.
  tp(std::string name, range<T> values)
      : state_(std::make_shared<detail::tp_state<T>>()) {
    state_->name = std::move(name);
    state_->values = std::move(values);
  }

  /// Constrained parameter; `constraint` is any callable bool(T).
  template <typename Constraint>
    requires std::predicate<Constraint, T>
  tp(std::string name, range<T> values, Constraint constraint)
      : tp(std::move(name), std::move(values)) {
    state_->constraint = std::move(constraint);
  }

  /// Convenience: range given as an initializer list.
  tp(std::string name, std::initializer_list<T> values)
      : tp(std::move(name), atf::set<T>(values)) {}

  template <typename Constraint>
    requires std::predicate<Constraint, T>
  tp(std::string name, std::initializer_list<T> values, Constraint constraint)
      : tp(std::move(name), atf::set<T>(values), std::move(constraint)) {}

  [[nodiscard]] const std::string& name() const noexcept {
    return state_->name;
  }
  [[nodiscard]] const range<T>& values() const noexcept {
    return state_->values;
  }
  [[nodiscard]] bool has_constraint() const noexcept {
    return static_cast<bool>(state_->constraint);
  }

  /// The value of the prefix currently being expanded/evaluated *in this
  /// thread's evaluation context*. Expression templates call this, which is
  /// what makes `N / WPT` lazy — and context-indexed, which is what lets
  /// concurrent chunk expansions reuse the same captured handles.
  [[nodiscard]] T eval() const noexcept {
    if (detail::active_read_recorder != nullptr) [[unlikely]] {
      detail::active_read_recorder->record(state_.get());
    }
    return state_->current[detail::current_eval_context()].value;
  }

  /// Identity of the shared state (equal for all copies of a handle).
  [[nodiscard]] const void* state_id() const noexcept { return state_.get(); }

  /// Writes the current value into this thread's context slot (used by the
  /// generator and the tuner).
  void set_current(T v) const noexcept {
    state_->current[detail::current_eval_context()].value = std::move(v);
  }

  /// Checks this parameter's own constraint against a candidate value.
  [[nodiscard]] bool satisfies_constraint(T v) const {
    return !state_->constraint || state_->constraint(v);
  }

private:
  std::shared_ptr<detail::tp_state<T>> state_;
};

/// Deduction helpers so `atf::tp("WPT", atf::interval<std::size_t>(1, N))`
/// works without spelling the value type twice.
template <typename T>
tp(std::string, range<T>) -> tp<T>;
template <typename T, typename C>
tp(std::string, range<T>, C) -> tp<T>;

/// Type-erased view of a tuning parameter, used by the search-space tree.
class itp {
public:
  virtual ~itp() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual std::uint64_t range_size() const = 0;

  /// Sets the calling thread's context slot to range[i] and returns whether
  /// the parameter's own constraint accepts that value (given the prefix
  /// already set in the same context). The constraint runs on the calling
  /// thread, so its captured handles read the caller's context.
  virtual bool set_and_check(std::uint64_t i) const = 0;

  /// Sets the calling thread's context slot to range[i] without checking.
  virtual void set_index(std::uint64_t i) const = 0;

  /// The type-erased value of range[i].
  [[nodiscard]] virtual tp_value value_at(std::uint64_t i) const = 0;

  /// Writes a type-erased value into the calling thread's context slot (used
  /// when replaying a configuration so that dependent expressions — e.g.
  /// global size — see it).
  virtual void set_value(const tp_value& v) const = 0;

  [[nodiscard]] virtual std::shared_ptr<itp> clone() const = 0;

  /// Identity of the parameter's shared state, as read_recorder sees it.
  [[nodiscard]] virtual const void* state_id() const noexcept = 0;
};

namespace detail {

template <typename T>
class itp_impl final : public itp {
public:
  explicit itp_impl(tp<T> param) : param_(std::move(param)) {}

  [[nodiscard]] const std::string& name() const override {
    return param_.name();
  }
  [[nodiscard]] std::uint64_t range_size() const override {
    return param_.values().size();
  }
  bool set_and_check(std::uint64_t i) const override {
    const T v = param_.values()[i];
    param_.set_current(v);
    return param_.satisfies_constraint(v);
  }
  void set_index(std::uint64_t i) const override {
    param_.set_current(param_.values()[i]);
  }
  [[nodiscard]] tp_value value_at(std::uint64_t i) const override {
    return to_tp_value<T>(param_.values()[i]);
  }
  void set_value(const tp_value& v) const override {
    param_.set_current(from_tp_value<T>(v));
  }
  [[nodiscard]] std::shared_ptr<itp> clone() const override {
    return std::make_shared<itp_impl<T>>(param_);
  }
  [[nodiscard]] const void* state_id() const noexcept override {
    return param_.state_id();
  }

private:
  tp<T> param_;
};

}  // namespace detail

/// An ordered group of interdependent tuning parameters. Parameters in
/// different groups must not reference each other; each group's sub-space is
/// generated independently — and in parallel (paper, Section V).
class tp_group {
public:
  tp_group() = default;

  template <typename T>
  void add(const tp<T>& param) {
    params_.push_back(std::make_shared<detail::itp_impl<T>>(param));
  }

  [[nodiscard]] std::size_t size() const noexcept { return params_.size(); }
  [[nodiscard]] const itp& param(std::size_t i) const { return *params_[i]; }
  [[nodiscard]] const std::vector<std::shared_ptr<itp>>& params()
      const noexcept {
    return params_;
  }

private:
  std::vector<std::shared_ptr<itp>> params_;
};

/// The grouping function from Section V: G(tp1, tp2, ...) declares that the
/// listed parameters form one dependency group.
template <typename... Ts>
tp_group G(const tp<Ts>&... params) {
  tp_group group;
  (group.add(params), ...);
  return group;
}

}  // namespace atf
