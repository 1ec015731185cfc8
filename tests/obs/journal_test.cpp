// obs::Journal: the bounded deterministic event journal.
//
// The load-bearing property is the export contract: the JSONL bytes are a
// pure function of the (run, task, seq, event, fields) records appended —
// never of which thread appended them, in what order, or when the bound
// trimmed. These tests drive that directly: multi-threaded and shuffled
// append patterns must export byte-identically to an in-order
// single-threaded reference, with and without capacity overflow.
#include "obs/journal.hpp"

#include "support/json_parser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace powerlens::obs {
namespace {

using test_support::JsonParser;
using test_support::JsonValue;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(JournalTest, ExportsRecordsInKeyOrderWithMetaTrailer) {
  Journal journal(/*capacity=*/16);
  const std::uint64_t run = journal.begin_run();
  journal.append(run, 2, 1, "request", "\"model\": \"alexnet\"");
  journal.append(run, 3, 1, "request", "");
  const std::string text = journal.jsonl();
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_EQ(lines.size(), 3u);  // 2 records + journal_meta trailer

  const JsonValue first = JsonParser(lines[0]).parse();
  EXPECT_EQ(first.object().at("run").number(), static_cast<double>(run));
  EXPECT_EQ(first.object().at("task").number(), 2.0);
  EXPECT_EQ(first.object().at("seq").number(), 1.0);
  EXPECT_EQ(first.object().at("event").string(), "request");
  EXPECT_EQ(first.object().at("model").string(), "alexnet");

  const JsonValue meta = JsonParser(lines.back()).parse();
  EXPECT_EQ(meta.object().at("event").string(), "journal_meta");
  EXPECT_EQ(meta.object().at("records").number(), 2.0);
  EXPECT_EQ(meta.object().at("appended").number(), 2.0);
  EXPECT_EQ(meta.object().at("capacity").number(), 16.0);
}

TEST(JournalTest, EveryExportedLineIsValidJson) {
  Journal journal;
  const std::uint64_t run = journal.begin_run();
  for (std::uint64_t task = 0; task < 20; ++task) {
    journal.append(run, task, 1, "request",
                   "\"value\": " + std::to_string(task));
  }
  for (const std::string& line : lines_of(journal.jsonl())) {
    EXPECT_NO_THROW(JsonParser(line).parse()) << line;
  }
}

TEST(JournalTest, KeepsTopCapacityRecordsOnOverflow) {
  constexpr std::size_t kCapacity = 8;
  Journal journal(kCapacity);
  const std::uint64_t run = journal.begin_run();
  for (std::uint64_t task = 0; task < 20; ++task) {
    journal.append(run, task, 0, "e", "");
  }
  EXPECT_EQ(journal.appended(), 20u);
  const std::vector<std::string> lines = lines_of(journal.jsonl());
  ASSERT_EQ(lines.size(), kCapacity + 1);  // capacity records + trailer
  // Survivors are the TOP keys: tasks 12..19.
  const JsonValue first = JsonParser(lines.front()).parse();
  EXPECT_EQ(first.object().at("task").number(), 12.0);
  const JsonValue last_record = JsonParser(lines[kCapacity - 1]).parse();
  EXPECT_EQ(last_record.object().at("task").number(), 19.0);
}

// The core determinism claim: per-thread monotone appends export the same
// bytes as a single thread appending everything in order.
TEST(JournalTest, MultiThreadedExportMatchesSingleThreadReference) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kTasks = 64;

  Journal reference;
  const std::uint64_t ref_run = reference.begin_run();
  for (std::uint64_t task = 0; task < kTasks; ++task) {
    reference.append(ref_run, task, 1, "request",
                     "\"task_sq\": " + std::to_string(task * task));
  }

  Journal racy;
  const std::uint64_t run = racy.begin_run();
  ASSERT_EQ(run, ref_run);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    // Thread k appends tasks k, k + kThreads, ... — strictly increasing
    // keys per thread, interleaved across threads.
    threads.emplace_back([&racy, run, k] {
      for (std::uint64_t task = k; task < kTasks; task += kThreads) {
        racy.append(run, task, 1, "request",
                    "\"task_sq\": " + std::to_string(task * task));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(racy.jsonl(), reference.jsonl());
}

TEST(JournalTest, MultiThreadedOverflowStillMatchesReference) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kTasks = 100;
  constexpr std::size_t kCapacity = 32;  // forces ring wraps everywhere

  Journal reference(kCapacity);
  const std::uint64_t ref_run = reference.begin_run();
  for (std::uint64_t task = 0; task < kTasks; ++task) {
    reference.append(ref_run, task, 0, "e", "");
  }

  Journal racy(kCapacity);
  const std::uint64_t run = racy.begin_run();
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&racy, run, k] {
      for (std::uint64_t task = k; task < kTasks; task += kThreads) {
        racy.append(run, task, 0, "e", "");
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(racy.jsonl(), reference.jsonl());
}

// Keys arriving in any order, from any threads, export the top `capacity`
// of them: the same bytes as appending them in order, and the journal never
// holds more than twice its capacity.
TEST(JournalTest, AnyAppendOrderExportsTheTopCapacityKeys) {
  constexpr std::size_t kCapacity = 32;
  constexpr std::uint64_t kTasks = 100;  // x 2 seqs = 200 keys
  struct Key {
    std::uint64_t task;
    std::uint32_t seq;
  };
  std::vector<Key> keys;
  for (std::uint64_t task = 0; task < kTasks; ++task) {
    for (std::uint32_t seq = 1; seq <= 2; ++seq) keys.push_back({task, seq});
  }
  const auto append = [](Journal& journal, std::uint64_t run, const Key& k) {
    journal.append(run, k.task, k.seq, k.seq == 1 ? "request" : "attempt",
                   "\"task_sq\": " + std::to_string(k.task * k.task));
  };

  Journal reference(kCapacity);
  const std::uint64_t run = reference.begin_run();
  for (const Key& k : keys) append(reference, run, k);

  {
    SCOPED_TRACE("one thread, seeded shuffle");
    std::vector<Key> shuffled = keys;
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(17));
    Journal journal(kCapacity);
    ASSERT_EQ(journal.begin_run(), run);
    for (const Key& k : shuffled) {
      append(journal, run, k);
      ASSERT_LE(journal.resident(), 2 * journal.capacity());
    }
    EXPECT_EQ(journal.jsonl(), reference.jsonl());
  }
  {
    SCOPED_TRACE("four threads, interleaved non-monotone keys");
    constexpr std::size_t kThreads = 4;
    Journal journal(kCapacity);
    ASSERT_EQ(journal.begin_run(), run);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      // Thread t takes every fourth key, walks them in a per-thread
      // shuffled order, and re-checks the bound after each append.
      threads.emplace_back([&, t] {
        std::vector<Key> mine;
        for (std::size_t i = t; i < keys.size(); i += kThreads) {
          mine.push_back(keys[i]);
        }
        std::shuffle(mine.begin(), mine.end(), std::mt19937_64(100 + t));
        for (const Key& k : mine) {
          append(journal, run, k);
          EXPECT_LE(journal.resident(), 2 * journal.capacity());
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(journal.appended(), keys.size());
    EXPECT_EQ(journal.jsonl(), reference.jsonl());
  }
}

TEST(JournalTest, ClearDropsRecordsButRunIdsKeepIncreasing) {
  Journal journal;
  const std::uint64_t first = journal.begin_run();
  journal.append(first, 0, 0, "e", "");
  journal.clear();
  EXPECT_EQ(journal.appended(), 0u);
  EXPECT_EQ(journal.resident(), 0u);
  const std::uint64_t second = journal.begin_run();
  EXPECT_GT(second, first);
  // Post-clear appends still export.
  journal.append(second, 0, 0, "e", "");
  const std::vector<std::string> lines = lines_of(journal.jsonl());
  ASSERT_EQ(lines.size(), 2u);
}

// One thread appends to thousands of short-lived journals, returning to a
// long-lived one between them. Each export holds exactly that journal's
// records: a new journal (often at a destroyed one's address) never sees a
// predecessor's shard, and the long-lived journal keeps its own.
TEST(JournalTest, ShortLivedJournalsOnOneThreadExportOnlyTheirOwnRecords) {
  constexpr std::uint64_t kJournals = 3000;
  Journal keeper;
  const std::uint64_t keeper_run = keeper.begin_run();
  for (std::uint64_t j = 0; j < kJournals; ++j) {
    auto journal = std::make_unique<Journal>(/*capacity=*/8);
    const std::uint64_t run = journal->begin_run();
    journal->append(run, j, 0, "request", "\"journal\": " + std::to_string(j));
    journal->append(run, j, 1, "attempt", "");
    keeper.append(keeper_run, j, 0, "tick", "");
    const std::vector<std::string> lines = lines_of(journal->jsonl());
    ASSERT_EQ(lines.size(), 3u) << "journal " << j;  // 2 records + trailer
    const JsonValue first = JsonParser(lines[0]).parse();
    ASSERT_EQ(first.object().at("journal").number(), static_cast<double>(j));
    ASSERT_EQ(first.object().at("task").number(), static_cast<double>(j));
    const JsonValue second = JsonParser(lines[1]).parse();
    ASSERT_EQ(second.object().at("event").string(), "attempt");
    ASSERT_EQ(journal->resident(), 2u);
  }
  EXPECT_EQ(keeper.appended(), kJournals);
  EXPECT_EQ(keeper.resident(), kJournals);
  const std::vector<std::string> lines = lines_of(keeper.jsonl());
  ASSERT_EQ(lines.size(), kJournals + 1);
  for (std::uint64_t j = 0; j < kJournals; j += 499) {
    const JsonValue rec = JsonParser(lines[j]).parse();
    EXPECT_EQ(rec.object().at("event").string(), "tick");
    EXPECT_EQ(rec.object().at("task").number(), static_cast<double>(j));
  }
}

TEST(JournalTest, WriteJsonlMatchesStringForm) {
  Journal journal;
  const std::uint64_t run = journal.begin_run();
  journal.append(run, 1, 1, "request", "\"x\": 1");
  std::ostringstream os;
  journal.write_jsonl(os);
  EXPECT_EQ(os.str(), journal.jsonl());
}

TEST(JournalTest, DefaultJournalIsEnabledSingleton) {
  Journal& a = default_journal();
  Journal& b = default_journal();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.capacity(), kDefaultJournalCapacity);
}

}  // namespace
}  // namespace powerlens::obs
