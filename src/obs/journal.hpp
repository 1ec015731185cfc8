// Bounded, deterministic structured-event journal for the serving path.
//
// The journal records one pre-rendered JSON object per event under a
// (run, task, seq) key — run is claimed per serve() call, task is the
// request id inside the run, seq orders the events of one request. Export
// sorts everything into ascending (run, task, seq) order and emits JSONL,
// so the bytes a reader sees are a pure function of the *keys appended*,
// never of which thread appended them or in what order.
//
// Why that holds:
//   * All records live in one vector behind one mutex. When it reaches
//     2 x capacity it is sorted (skipped when it already is) and trimmed
//     to its TOP `capacity` keys; export does the same on a copy. A trim
//     drops a key only while `capacity` larger keys are resident, and it
//     drops one of those only while `capacity` still larger ones are, so
//     every dropped key lies outside the top `capacity` of everything
//     appended. The export is therefore exactly those top keys, whatever
//     the append order. (Equal keys are ordered by their rendered line.)
//   * resident() <= 2 x capacity() always, however many threads or serve
//     calls append.
//
// The serving layer appends every record of a serve() call from the
// calling thread in ascending key order (the fold walks tasks in order), so
// the trim's sort check passes and a trim is one erase of the oldest half.
// The journal has no off-switch of its own: a server that should not
// journal is configured with ServerConfig::journal_enabled = false and
// never calls append.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace powerlens::obs {

// Default bound: generous for tests and benches (a serve run emits a
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
  // Any thread may append, in any key order.
  void append(std::uint64_t run, std::uint64_t task, std::uint32_t seq,
              std::string_view event, std::string_view fields);

  std::size_t capacity() const noexcept { return capacity_; }
  // Records accepted since construction/clear() — deterministic.
  std::uint64_t appended() const noexcept {
    return appended_.load(std::memory_order_relaxed);
  }
  // Records currently held (pre-export-trim); never above 2 x capacity().
  std::size_t resident() const;

  // Deterministic export: the top min(appended(), capacity()) keys in
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

  const std::size_t capacity_;
  std::atomic<std::uint64_t> next_run_{0};
  std::atomic<std::uint64_t> appended_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

// The process-wide journal the serving layer appends to by default. Only
// materialised into a file when something (the CLI's --journal flag, a
// bench, a test) exports it.
Journal& default_journal();

}  // namespace powerlens::obs
