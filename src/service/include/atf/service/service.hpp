// tuning_service — the daemon's engine, socket-free and fully testable
// in-process (DESIGN.md §13).
//
// State model. All answers come from an immutable *snapshot*: a map from
// service key to that key's result_store (rebuilt from its crash-safe
// journal), the precomputed best record and the serialized hit reply
// built from it. The snapshot lives behind a shared_ptr, so the request
// hot path — parse, snapshot pointer copy, map lookup, copy of the
// published reply bytes — serializes nothing and never waits on a
// refinement: a `get` that hits is answered entirely from the snapshot
// while the background refiner builds the next one. Mutations (refine,
// merge, compact, load) serialize on a writer mutex, build each changed
// key's reply there, and publish by swapping the pointer (under a mutex
// held only for the swap or a reader's copy).
//
// Miss path. A `get` for an unknown (or not-yet-measured) key is enqueued
// on a bounded dedup queue — the one refinement queue, which
// blasmini::dispatcher also routes its misses through — and answered
// immediately with a miss. The background refiner thread
// drains the queue in batches: for each key it calls the pluggable
// refine_fn, which appends measurements to the key's journal (typically by
// running a journaled, warm-started tune), then the service re-reads the
// journal and publishes a new snapshot. When the queue is full, new misses
// are *counted* (dropped_refinements, surfaced in stats so operators can
// size the queue) instead of vanishing silently.
//
// Durability. Every key's state is exactly its journal: restart = re-scan
// the journal directory, so a SIGKILLed daemon warm-starts bit-identically
// (the torn tail a kill can leave is dropped by the tolerant reader).
// Journal file names are the lossless service_key::file_stem() encoding —
// no sidecar index to keep consistent. compact_all() rewrites
// superseded-heavy journals in place (atomic rename); merge_journal()
// folds a foreign daemon's journal into a key with content-hash dedup and
// the result_store::supersedes total order, appending only winners.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "atf/service/protocol.hpp"
#include "atf/session/journal.hpp"
#include "atf/session/result_store.hpp"

namespace atf::service {

struct service_options {
  /// Directory of per-key journals ("<file_stem>.jsonl"). Must exist.
  std::string journal_dir;
  /// Refinement-queue bound; misses beyond it are counted as dropped.
  std::size_t max_pending = 64;
  /// Keys drained per refiner wakeup.
  std::size_t refine_batch = 4;
  /// Durability of refinement appends made by the service itself (merge).
  session::fsync_policy fsync = session::fsync_policy::flush;
};

/// Produces new measurements for `key` by appending to the crash-safe
/// journal at `journal_path` (typically a journaled tune warm-started from
/// the existing records). Returns true when the journal may have changed.
/// Runs on the background refiner thread, never on a request thread.
using refine_fn =
    std::function<bool(const service_key& key, const std::string& journal_path)>;

/// Optional gate: a non-empty return marks `key` permanently unrefinable
/// (wrong kernel, foreign device, unparsable size) — the miss reply says so
/// and nothing is enqueued.
using validate_fn = std::function<std::string(const service_key& key)>;

struct service_stats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t dropped_refinements = 0;
  std::uint64_t unrefinable = 0;
  std::uint64_t malformed = 0;
  std::uint64_t refines = 0;         ///< refine_fn invocations that returned true
  std::uint64_t failed_refines = 0;  ///< refine_fn false or threw
  std::uint64_t keys = 0;            ///< keys in the current snapshot
  std::uint64_t records = 0;         ///< records across all key stores
  std::uint64_t snapshot_version = 0;
  std::uint64_t pending = 0;         ///< queue depth right now
};

class tuning_service {
public:
  /// One key's immutable published state.
  struct key_state {
    service_key key;
    std::string journal_path;
    session::result_store store;
    std::optional<session::tuning_record> best;  ///< store.best()
    /// The exact `get` reply line for a hit, serialized once when the
    /// state is built (a pure function of key, best and store size).
    /// Empty while `best` is empty: such a key still answers as a miss.
    std::string hit_reply;
  };

  struct snapshot {
    /// key.to_string() -> state; shared_ptr values so publishing a new
    /// snapshot copies pointers, not stores.
    std::map<std::string, std::shared_ptr<const key_state>> keys;
    std::uint64_t version = 0;
  };

  tuning_service(service_options opts, refine_fn refine,
                 validate_fn validate = {});
  ~tuning_service();

  tuning_service(const tuning_service&) = delete;
  tuning_service& operator=(const tuning_service&) = delete;

  /// Scans journal_dir and publishes the initial snapshot. Unreadable or
  /// foreign files are skipped; returns the number of keys loaded.
  std::size_t load();

  /// Handles one request line, returns one reply line (no newline). Thread
  /// safe; a hit copies the snapshot pointer and the published reply and
  /// bumps counters, nothing more.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Starts the background refiner thread (idempotent).
  void start();

  /// Stops the refiner: the in-flight refine completes (its journal append
  /// is never torn), queued keys are discarded — they are only hints and
  /// will re-enqueue on their next miss. Idempotent; called by ~.
  void stop();

  /// Queues `key` for refinement unless it is already pending; a full
  /// queue counts the miss as dropped. Returns {enqueued, dropped}.
  std::pair<bool, bool> enqueue(const service_key& key);

  /// Synchronously drains up to `max_keys` queued refinements on the
  /// caller's thread — deterministic alternative to start() for tests and
  /// tools. Must not race a running refiner thread.
  std::size_t refine_pending(std::size_t max_keys);

  /// Folds a foreign journal file into `key`: winners under the
  /// result_store::supersedes total order are appended to the key's own
  /// journal and published. Creates the key when new.
  session::result_store::merge_stats merge_journal(
      const service_key& key, const std::string& foreign_journal);

  /// Compacts every key journal (journal_writer::compact); returns the
  /// number of journals rewritten. Snapshot answers are unchanged by
  /// construction — compaction keeps exactly the records the store indexes.
  std::size_t compact_all();

  [[nodiscard]] service_stats stats() const;
  [[nodiscard]] std::shared_ptr<const snapshot> current_snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return snapshot_;
  }
  [[nodiscard]] std::string journal_path(const service_key& key) const;
  [[nodiscard]] const service_options& options() const noexcept {
    return opts_;
  }

private:
  [[nodiscard]] std::string handle_get(const service_key& key);
  /// Reads `key`'s journal into a complete state, hit reply included.
  /// Writer side only: load() and publish_key().
  [[nodiscard]] static std::shared_ptr<const key_state> build_state(
      const service_key& key, std::string path);
  /// Pops one key; nullopt when empty.
  std::optional<service_key> pop();
  /// Runs refine_fn for one key and publishes its new state.
  void refine_one(const service_key& key);
  /// Re-reads one key's journal and publishes a snapshot containing it.
  void publish_key(const service_key& key);
  void refiner_loop();
  /// Makes `next` the snapshot every later request reads.
  void publish(std::shared_ptr<const snapshot> next);

  service_options opts_;
  refine_fn refine_;
  validate_fn validate_;

  // The published snapshot. snapshot_mutex_ is held only to copy or swap
  // the pointer, never while a snapshot is read or built. (libstdc++'s
  // std::atomic<std::shared_ptr> releases the spin lock of its load() with
  // relaxed order, so a load races the next store under the memory model,
  // and ThreadSanitizer reports it.)
  std::shared_ptr<const snapshot> snapshot_;
  mutable std::mutex snapshot_mutex_;
  mutable std::mutex writer_mutex_;  ///< serializes snapshot mutations

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<service_key> queue_;
  std::set<service_key> queued_;  ///< dedup view of queue_
  bool stopping_ = false;

  std::thread refiner_;
  bool refiner_running_ = false;

  // Counters on the request path are atomics: requests arrive from the
  // socket server's loop and in-process callers while the refiner
  // publishes snapshots.
  std::atomic<std::uint64_t> requests_{0}, hits_{0}, misses_{0},
      enqueued_{0}, dropped_{0}, unrefinable_{0}, malformed_{0},
      refines_{0}, failed_refines_{0};
};

}  // namespace atf::service
