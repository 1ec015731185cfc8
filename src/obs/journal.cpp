#include "obs/journal.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>

namespace powerlens::obs {

namespace {

std::uint64_t next_journal_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Journal::Journal(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), id_(next_journal_id()) {}

Journal::Shard& Journal::local_shard() {
  // The thread's key is process-unique and never reused (a std::thread::id
  // can be, and a new thread must not inherit an exited one's shard and its
  // monotone keys). The one-entry cache holds the journal the thread last
  // appended to, keyed by the journal's process-unique id rather than its
  // address, so a destroyed journal's shard can never be revived by address
  // reuse. A thread that moves to another journal looks its shard up in
  // that journal's own table: O(1), and per-thread state stays three words
  // however many journals the thread has used. A journal must outlive
  // every append to it (the server joins workers before serve() returns;
  // the default journal is a leaked static).
  static std::atomic<std::uint64_t> next_thread_key{1};
  thread_local const std::uint64_t thread_key =
      next_thread_key.fetch_add(1, std::memory_order_relaxed);
  thread_local std::uint64_t cached_journal = 0;
  thread_local Shard* cached_shard = nullptr;
  if (cached_journal == id_) return *cached_shard;

  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    std::unique_ptr<Shard>& shard = shards_[thread_key];
    if (shard == nullptr) shard = std::make_unique<Shard>();
    cached_shard = shard.get();
  }
  cached_journal = id_;
  return *cached_shard;
}

void Journal::append(std::uint64_t run, std::uint64_t task, std::uint32_t seq,
                     std::string_view event, std::string_view fields) {
  if (!enabled()) return;
  Record rec;
  rec.run = run;
  rec.task = task;
  rec.seq = seq;
  rec.line.reserve(fields.size() + event.size() + 64);
  rec.line += "{\"run\": ";
  append_json_number(rec.line, static_cast<double>(run));
  rec.line += ", \"task\": ";
  append_json_number(rec.line, static_cast<double>(task));
  rec.line += ", \"seq\": ";
  append_json_number(rec.line, static_cast<double>(seq));
  rec.line += ", \"event\": \"";
  append_json_escaped(rec.line, event);
  rec.line += '"';
  if (!fields.empty()) {
    rec.line += ", ";
    rec.line += fields;
  }
  rec.line += '}';

  Shard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.ring.size() < capacity_) {
    shard.ring.push_back(std::move(rec));
  } else {
    // Per-thread keys are monotone, so the overwrite cursor always points
    // at the shard's oldest record.
    shard.ring[shard.next] = std::move(rec);
    shard.next = (shard.next + 1) % capacity_;
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  appended_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Journal::resident() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::size_t total = 0;
  for (const auto& [key, shard] : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    total += shard->ring.size();
  }
  return total;
}

void Journal::write_jsonl(std::ostream& os) const {
  std::vector<Record> merged;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    for (const auto& [key, shard] : shards_) {
      std::lock_guard<std::mutex> slock(shard->mu);
      merged.insert(merged.end(), shard->ring.begin(), shard->ring.end());
    }
  }
  const auto key = [](const Record& r) {
    return std::make_tuple(r.run, r.task, r.seq);
  };
  std::sort(merged.begin(), merged.end(),
            [&](const Record& a, const Record& b) { return key(a) < key(b); });
  // Keep the newest `capacity_` records: everything a shard ring-evicted is
  // below this cut, so the exported window is worker-layout independent.
  const std::size_t skip =
      merged.size() > capacity_ ? merged.size() - capacity_ : 0;
  for (std::size_t i = skip; i < merged.size(); ++i) {
    os << merged[i].line << '\n';
  }
  std::string meta = "{\"event\": \"journal_meta\", \"records\": ";
  append_json_number(meta, static_cast<double>(merged.size() - skip));
  meta += ", \"appended\": ";
  append_json_number(
      meta, static_cast<double>(appended_.load(std::memory_order_relaxed)));
  meta += ", \"capacity\": ";
  append_json_number(meta, static_cast<double>(capacity_));
  meta += '}';
  os << meta << '\n';
}

std::string Journal::jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return os.str();
}

void Journal::clear() {
  std::lock_guard<std::mutex> lock(shards_mu_);
  for (const auto& [key, shard] : shards_) {
    std::lock_guard<std::mutex> slock(shard->mu);
    shard->ring.clear();
    shard->next = 0;
  }
  appended_.store(0, std::memory_order_relaxed);
  evicted_.store(0, std::memory_order_relaxed);
}

Journal& default_journal() {
  // Leaked so appends from late-exiting threads never race destruction.
  static Journal* journal = new Journal();
  return *journal;
}

}  // namespace powerlens::obs
