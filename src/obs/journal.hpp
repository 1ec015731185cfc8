// Bounded, deterministic structured-event journal for the serving path.
//
// The journal records one pre-rendered JSON object per event under a
// (run, task, seq) key — run is claimed per serve() call, task is the
// request id inside the run, seq orders the events of one request. Export
// merges everything into ascending (run, task, seq) order and emits JSONL,
// so the bytes a reader sees are a pure function of the *keys appended*,
// never of which worker thread appended them or when.
//
// Why that holds even though appends race:
//   * Each thread writes to its own ring shard, so appends never interleave
//     inside a shard. Every appending thread in the serving layer emits
//     keys in strictly increasing order (the dispatch queue hands a worker
//     ascending task indices; the fold thread walks tasks in order; run ids
//     increase per serve call), so each shard is independently sorted.
//   * Every shard ring holds up to the journal's full capacity. When the
//     merged total exceeds capacity, export keeps the TOP `capacity` keys.
//     A shard can only have ring-evicted keys that are below its own top
//     (capacity) keys, which are themselves below the merged top — so the
//     survivor set is the same whether one thread appended everything or
//     eight threads split the work. The merged view is byte-identical at
//     any worker count; only the (unexported) eviction counter varies.
//
// Appends are cheap: one thread-local shard lookup (O(1): a one-entry
// per-thread cache, else a probe of the journal's own per-thread table),
// one mutex acquire on an uncontended per-thread lock, one string move into
// the ring. A disabled
// journal costs a single relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace powerlens::obs {

// Default ring bound: generous for tests and benches (a serve run emits a
// handful of records per request) while keeping worst-case memory modest.
inline constexpr std::size_t kDefaultJournalCapacity = 16384;

class Journal {
 public:
  explicit Journal(std::size_t capacity = kDefaultJournalCapacity);
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Claims the id for one serve run. Monotone per journal; all records of a
  // run share it so interleaved serve() calls stay separable.
  std::uint64_t begin_run() noexcept {
    return next_run_.fetch_add(1, std::memory_order_relaxed);
  }

  // Appends one record. `fields` is a pre-rendered JSON fragment (the
  // JsonWriter::body() form, no braces, may be empty); the record becomes
  //   {"run": R, "task": T, "seq": S, "event": "<event>", <fields>}
  // Callers must append strictly increasing (run, task, seq) keys per
  // thread — the determinism contract above depends on it.
  void append(std::uint64_t run, std::uint64_t task, std::uint32_t seq,
              std::string_view event, std::string_view fields);

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return capacity_; }
  // Records accepted since construction/clear() — deterministic.
  std::uint64_t appended() const noexcept {
    return appended_.load(std::memory_order_relaxed);
  }
  // Ring evictions. Shard-layout dependent, so this is diagnostics only and
  // never exported into the JSONL stream.
  std::uint64_t evicted() const noexcept {
    return evicted_.load(std::memory_order_relaxed);
  }
  // Records currently resident across all shards (pre-merge-trim).
  std::size_t resident() const;

  // Merged deterministic export: min(appended(), capacity()) records in
  // ascending (run, task, seq) order, one JSON object per line, followed by
  // one `journal_meta` trailer line with deterministic totals.
  void write_jsonl(std::ostream& os) const;
  std::string jsonl() const;

  // Drops all records and resets counters. Run ids keep increasing so keys
  // stay monotone across a clear().
  void clear();

 private:
  struct Record {
    std::uint64_t run = 0;
    std::uint64_t task = 0;
    std::uint32_t seq = 0;
    std::string line;
  };
  // One appending thread's bounded ring. `mu` is uncontended in steady
  // state (only export/clear cross-lock) but keeps export TSan-clean.
  struct Shard {
    mutable std::mutex mu;
    std::vector<Record> ring;
    std::size_t next = 0;  // overwrite cursor once the ring is full
  };
  Shard& local_shard();

  const std::size_t capacity_;
  const std::uint64_t id_;  // process-unique key for the thread-local cache
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_run_{0};
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> evicted_{0};
  mutable std::mutex shards_mu_;  // guards the shard table itself
  // One shard per appending thread, by the thread's process-unique key.
  std::unordered_map<std::uint64_t, std::unique_ptr<Shard>> shards_;
};

// The process-wide journal the serving layer appends to by default.
// Enabled but only materialised into a file when something (the CLI's
// --journal flag, a bench, a test) exports it.
Journal& default_journal();

}  // namespace powerlens::obs
