#include "obs/journal.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>

namespace powerlens::obs {

namespace {

// Export order. The rendered line breaks ties between equal keys, so even a
// caller that reuses a key exports the same bytes in any append order.
template <typename R>
bool key_less(const R& a, const R& b) {
  return std::tie(a.run, a.task, a.seq, a.line) <
         std::tie(b.run, b.task, b.seq, b.line);
}

// Sorts `records` (unless already sorted) and keeps its top `keep`.
template <typename R>
void keep_top(std::vector<R>& records, std::size_t keep) {
  if (!std::is_sorted(records.begin(), records.end(), key_less<R>)) {
    std::sort(records.begin(), records.end(), key_less<R>);
  }
  if (records.size() > keep) {
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(keep));
  }
}

}  // namespace

Journal::Journal(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void Journal::append(std::uint64_t run, std::uint64_t task, std::uint32_t seq,
                     std::string_view event, std::string_view fields) {
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

  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(rec));
  if (records_.size() >= 2 * capacity_) keep_top(records_, capacity_);
  appended_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Journal::resident() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Journal::write_jsonl(std::ostream& os) const {
  std::vector<Record> top;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    top = records_;
  }
  keep_top(top, capacity_);
  for (const Record& r : top) os << r.line << '\n';
  std::string meta = "{\"event\": \"journal_meta\", \"records\": ";
  append_json_number(meta, static_cast<double>(top.size()));
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
  const std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  appended_.store(0, std::memory_order_relaxed);
}

Journal& default_journal() {
  // Leaked so appends from late-exiting threads never race destruction.
  static Journal* journal = new Journal();
  return *journal;
}

}  // namespace powerlens::obs
