#include "atf/service/service.hpp"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "atf/common/logging.hpp"
#include "atf/session/tuning_record.hpp"

namespace atf::service {

namespace {

namespace json = atf::session::json;

json::value error_reply(const std::string& message) {
  json::value out{json::object{}};
  out.set("ok", false);
  out.set("error", message);
  return out;
}

/// Fixed-width hex rendering of a configuration hash (matches the journal
/// record format).
std::string hash_hex(std::uint64_t hash) {
  char text[32];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

/// The `get` reply for a key whose best record exists. Field order is the
/// wire format (protocol.hpp); the miss reply in handle_get shares the
/// ok/op/key/hit prefix.
std::string serialize_hit_reply(const tuning_service::key_state& state) {
  const session::tuning_record& best = *state.best;
  json::value out{json::object{}};
  out.set("ok", true);
  out.set("op", "get");
  out.set("key", state.key.to_string());
  out.set("hit", true);
  out.set("hash", hash_hex(best.config_hash));
  out.set("scalar", best.scalar);
  json::value config{json::object{}};
  for (const auto& [name, value] : best.values) {
    config.set(name, atf::to_string(value));
  }
  out.set("config", std::move(config));
  // Distinct measured configurations — invariant under journal
  // compaction, so kill/compact/restart replies stay byte-identical.
  out.set("configs", std::uint64_t{state.store.size()});
  return json::serialize(out);
}

}  // namespace

tuning_service::tuning_service(service_options opts, refine_fn refine,
                               validate_fn validate)
    : opts_(std::move(opts)),
      refine_(std::move(refine)),
      validate_(std::move(validate)) {
  if (opts_.journal_dir.empty()) {
    throw service_error("tuning_service: journal_dir must be set");
  }
  publish(std::make_shared<const snapshot>());
}

tuning_service::~tuning_service() { stop(); }

std::string tuning_service::journal_path(const service_key& key) const {
  return opts_.journal_dir + "/" + key.file_stem() + ".jsonl";
}

std::shared_ptr<const tuning_service::key_state> tuning_service::build_state(
    const service_key& key, std::string path) {
  auto state = std::make_shared<key_state>();
  state->key = key;
  state->journal_path = std::move(path);
  state->store = session::result_store::from_report(
      session::read_journal(state->journal_path));
  state->best = state->store.best();
  if (state->best.has_value()) {
    state->hit_reply = serialize_hit_reply(*state);
  }
  return state;
}

std::size_t tuning_service::load() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  auto next = std::make_shared<snapshot>();
  next->version = current_snapshot()->version + 1;

  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(opts_.journal_dir, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".jsonl") {
      continue;
    }
    const std::string stem = entry.path().stem().string();
    const auto key = service_key::from_file_stem(stem);
    if (!key.has_value()) {
      common::log_warn("service: skipping journal with foreign name '",
                       entry.path().string(), "'");
      continue;
    }
    next->keys.emplace(key->to_string(),
                       build_state(*key, entry.path().string()));
  }
  if (ec) {
    throw service_error("tuning_service: cannot scan journal directory '" +
                        opts_.journal_dir + "': " + ec.message());
  }
  const std::size_t loaded = next->keys.size();
  publish(std::move(next));
  return loaded;
}

std::string tuning_service::handle_line(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::string error;
  const auto parsed = parse_request(line, error);
  if (!parsed.has_value()) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    return json::serialize(error_reply(error));
  }
  switch (parsed->operation) {
    case request::op::ping: {
      json::value out{json::object{}};
      out.set("ok", true);
      out.set("op", "ping");
      return json::serialize(out);
    }
    case request::op::stats: {
      const service_stats s = stats();
      json::value counters{json::object{}};
      counters.set("requests", std::uint64_t{s.requests});
      counters.set("hits", std::uint64_t{s.hits});
      counters.set("misses", std::uint64_t{s.misses});
      counters.set("enqueued", std::uint64_t{s.enqueued});
      counters.set("dropped_refinements",
                   std::uint64_t{s.dropped_refinements});
      counters.set("unrefinable", std::uint64_t{s.unrefinable});
      counters.set("malformed", std::uint64_t{s.malformed});
      counters.set("refines", std::uint64_t{s.refines});
      counters.set("failed_refines", std::uint64_t{s.failed_refines});
      counters.set("keys", std::uint64_t{s.keys});
      counters.set("records", std::uint64_t{s.records});
      counters.set("snapshot_version", std::uint64_t{s.snapshot_version});
      counters.set("pending", std::uint64_t{s.pending});
      json::value out{json::object{}};
      out.set("ok", true);
      out.set("op", "stats");
      out.set("stats", std::move(counters));
      return json::serialize(out);
    }
    case request::op::get:
      return handle_get(parsed->key);
  }
  return json::serialize(error_reply("unreachable"));
}

std::string tuning_service::handle_get(const service_key& key) {
  const std::string name = key.to_string();
  // The hot path: one snapshot pointer copy, one map lookup, one copy of
  // the reply bytes published with the key's state — no JSON.
  const std::shared_ptr<const snapshot> snap = current_snapshot();
  const auto it = snap->keys.find(name);
  if (it != snap->keys.end() && it->second->best.has_value()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->hit_reply;
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  json::value out{json::object{}};
  out.set("ok", true);
  out.set("op", "get");
  out.set("key", name);
  out.set("hit", false);
  if (validate_) {
    const std::string reason = validate_(key);
    if (!reason.empty()) {
      unrefinable_.fetch_add(1, std::memory_order_relaxed);
      out.set("enqueued", false);
      out.set("dropped", false);
      out.set("unrefinable", true);
      out.set("reason", reason);
      return json::serialize(out);
    }
  }
  const auto [enqueued, dropped] = enqueue(key);
  out.set("enqueued", enqueued);
  out.set("dropped", dropped);
  out.set("unrefinable", false);
  return json::serialize(out);
}

std::pair<bool, bool> tuning_service::enqueue(const service_key& key) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (queued_.count(key) != 0) {
    return {false, false};  // already pending: a repeat miss is not a drop
  }
  if (queue_.size() >= opts_.max_pending) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return {false, true};
  }
  queue_.push_back(key);
  queued_.insert(key);
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  queue_cv_.notify_one();
  return {true, false};
}

std::optional<service_key> tuning_service::pop() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (queue_.empty()) {
    return std::nullopt;
  }
  service_key key = std::move(queue_.front());
  queue_.pop_front();
  queued_.erase(key);
  return key;
}

void tuning_service::publish_key(const service_key& key) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  std::shared_ptr<const key_state> state = build_state(key, journal_path(key));

  const std::shared_ptr<const snapshot> current = current_snapshot();
  auto next = std::make_shared<snapshot>(*current);
  next->version = current->version + 1;
  next->keys[key.to_string()] = std::move(state);
  publish(std::move(next));
}

void tuning_service::publish(std::shared_ptr<const snapshot> next) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_.swap(next);
  // `next` now holds the old snapshot; it is released after the unlock.
}

void tuning_service::refine_one(const service_key& key) {
  bool changed = false;
  try {
    changed = refine_(key, journal_path(key));
  } catch (const std::exception& error) {
    common::log_warn("service: refinement of '", key.to_string(),
                     "' failed — ", error.what());
  }
  if (changed) {
    refines_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_refines_.fetch_add(1, std::memory_order_relaxed);
  }
  // Publish even after a failure: the tune may have journaled a partial
  // prefix before dying, and those measurements are already paid for.
  publish_key(key);
}

void tuning_service::refiner_loop() {
  for (;;) {
    std::vector<service_key> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) {
        return;  // queued keys are hints; they re-enqueue on the next miss
      }
      while (batch.size() < opts_.refine_batch && !queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        queued_.erase(batch.back());
      }
    }
    for (const service_key& key : batch) {
      refine_one(key);
    }
  }
}

void tuning_service::start() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (refiner_running_) {
    return;
  }
  stopping_ = false;
  refiner_ = std::thread([this] { refiner_loop(); });
  refiner_running_ = true;
}

void tuning_service::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!refiner_running_) {
      return;
    }
    stopping_ = true;
    queue_cv_.notify_all();
  }
  refiner_.join();
  std::lock_guard<std::mutex> lock(queue_mutex_);
  refiner_running_ = false;
}

std::size_t tuning_service::refine_pending(std::size_t max_keys) {
  std::size_t refined = 0;
  while (refined < max_keys) {
    const auto key = pop();
    if (!key.has_value()) {
      break;
    }
    refine_one(*key);
    ++refined;
  }
  return refined;
}

session::result_store::merge_stats tuning_service::merge_journal(
    const service_key& key, const std::string& foreign_journal) {
  const session::journal_read_report foreign =
      session::read_journal(foreign_journal);

  // Rebuild the key's current store, append only the winners under the
  // supersedes total order to our own journal, then publish. The append
  // lock also excludes a concurrent refinement of the same key.
  session::result_store store = session::result_store::from_report(
      session::read_journal(journal_path(key)));
  session::result_store::merge_stats stats;
  {
    session::journal_writer writer(journal_path(key), opts_.fsync);
    for (const session::tuning_record& record : foreign.records) {
      const session::tuning_record* current = store.find(record.config_hash);
      if (current == nullptr) {
        ++stats.added;
      } else if (session::result_store::supersedes(record, *current)) {
        ++stats.superseded;
      } else {
        ++stats.ignored;
        continue;
      }
      writer.append(record);
      store.insert(record);
    }
  }
  publish_key(key);
  return stats;
}

std::size_t tuning_service::compact_all() {
  const std::shared_ptr<const snapshot> snap = current_snapshot();
  std::size_t compacted = 0;
  for (const auto& [name, state] : snap->keys) {
    try {
      session::journal_writer writer(state->journal_path);
      writer.compact();
      ++compacted;
    } catch (const session::journal_locked_error&) {
      continue;  // being refined right now; it can compact next time
    } catch (const session::journal_error& error) {
      common::log_warn("service: compaction of '", state->journal_path,
                       "' failed — ", error.what());
      continue;
    }
    publish_key(state->key);
  }
  return compacted;
}

service_stats tuning_service::stats() const {
  service_stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.dropped_refinements = dropped_.load(std::memory_order_relaxed);
  s.unrefinable = unrefinable_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.refines = refines_.load(std::memory_order_relaxed);
  s.failed_refines = failed_refines_.load(std::memory_order_relaxed);
  const std::shared_ptr<const snapshot> snap = current_snapshot();
  s.keys = snap->keys.size();
  for (const auto& [name, state] : snap->keys) {
    s.records += state->store.records().size();
  }
  s.snapshot_version = snap->version;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.pending = queue_.size();
  }
  return s;
}

}  // namespace atf::service
