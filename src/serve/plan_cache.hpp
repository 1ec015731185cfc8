// Optionally bounded memoization of PowerLens::optimize results.
//
// The offline-instrumentation story of the paper becomes a serving-layer
// cache: the first request for a model pays the optimize() cost, every
// subsequent request reuses the stored plan. Keys are stable structural
// graph signatures (serve/signature.hpp); optimize() is a pure function of
// the graph for a trained framework, so a hit is byte-identical to a fresh
// plan — test-asserted, not assumed.
//
// The API is keyed by the signature itself: get_or_compute(sig, graph,
// factory) and lookup(sig). A caller that serves a fixed model set (the
// Server, the adaptation controller) hashes each graph once and passes the
// stored signature, so a warm hit costs one map probe under the cache lock
// and never walks the graph. The graph rides along only for the factory on
// a miss; debug builds assert that it hashes to `sig` there. One graph-keyed
// adapter remains, get_or_compute(graph, factory), which hashes and
// forwards — for callers that hold a graph and no signature.
//
// One mutex guards one signature map, one LRU list and one in-flight map.
//
// Miss protocol — one plan per miss, never computed under the lock:
//   * A miss registers an in-flight entry for its signature, RELEASES the
//     lock, calls the factory on its own graph, then relocks to publish the
//     plan and notify the waiters. Misses on distinct signatures therefore
//     compute concurrently.
//   * A request for a signature that is already in flight waits on the
//     cache's condition variable and receives the published plan — it
//     never recomputes and never holds the lock while anyone computes.
//   * Hits only ever take the lock for the map probe + LRU splice, so a
//     hot key stays fast no matter what cold keys are being computed.
//   * Completed plans live in the in-flight entry until every waiter has
//     woken, so LRU eviction can never race a waiter out of its result.
//
// Counting is deterministic for a given request set with unbounded
// capacity, whatever the worker count: each distinct resident signature's
// first computation counts one miss, every other serving-path resolution —
// map hit or in-flight wait — counts one hit. A factory exception is
// rethrown to the computing thread and every waiter and counts nothing,
// leaving the signature uncached. lookup() is a read-only probe with its
// own probe_hits counter; it sees only completed plans and touches neither
// the serving-path counters nor LRU recency.
//
// A positive `capacity` bounds the number of resident plans with exact
// least-recently-used eviction over the whole cache, so resident() <=
// capacity always holds and a working set that fits is never evicted. An
// evicted signature recomputes on next use, so under concurrency the
// counters become access-order dependent — plans themselves stay
// byte-identical either way.
//
// Observability: every computed plan observes its own factory wall time in
// the powerlens_serve_plan_compute_ms histogram, so cold-cache plan cost is
// visible next to the cache hit/miss counters.
#pragma once

#include "core/powerlens.hpp"
#include "dnn/graph.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace powerlens::serve {

class PlanCache {
 public:
  using PlanPtr = std::shared_ptr<const core::OptimizationPlan>;
  using PlanFactory =
      std::function<core::OptimizationPlan(const dnn::Graph&)>;

  // `capacity` = maximum resident plans (0 = unbounded).
  explicit PlanCache(std::size_t capacity = 0);

  // The plan cached under `signature`, computing it as factory(graph) on
  // first use and refreshing LRU recency on reuse. `signature` must be
  // graph_signature(graph) (asserted on a miss in debug builds).
  // Thread-safe; each distinct signature is computed exactly once while it
  // stays resident, and computation never holds the cache lock.
  PlanPtr get_or_compute(std::uint64_t signature, const dnn::Graph& graph,
                         const PlanFactory& factory);

  // Graph-keyed adapter: hashes `graph` and forwards.
  PlanPtr get_or_compute(const dnn::Graph& graph, const PlanFactory& factory);

  // Read-only probe: the plan cached under `signature` if present, nullptr
  // otherwise. Counts only probe_hits (never hits/misses) and does not
  // refresh recency.
  PlanPtr lookup(std::uint64_t signature) const;

  // Snapshot warm start (src/io plan snapshots): installs a plan under a
  // precomputed signature without touching the hit/miss counters — a
  // preloaded plan is neither a serving-path hit nor a cold compute.
  // First-wins: a signature that is already resident (or in flight) is left
  // alone. Returns true when the plan was installed; installed plans count
  // toward capacity and participate in LRU eviction like any other.
  bool preload(std::uint64_t signature, PlanPtr plan);
  // Plans installed by preload() since construction (eviction does not
  // decrement) — the serving report's proof that a warm start covered the
  // deployed models.
  std::uint64_t preloaded() const noexcept {
    return preloaded_.load(std::memory_order_relaxed);
  }

  // Every resident (signature, plan) pair, sorted by signature — the export
  // half of the snapshot story. Completed plans only; in-flight
  // computations are skipped.
  std::vector<std::pair<std::uint64_t, PlanPtr>> snapshot() const;

  // --- Adaptation interface (serve/adapt) ---

  // Replaces (or installs) the resident plan for `signature` with a re-plan
  // and refreshes its LRU recency. Counts toward capacity like any other
  // resident plan; touches neither the hit/miss nor the preload counters.
  // Returns false — installing nothing — while the signature is in flight.
  bool install(std::uint64_t signature, PlanPtr plan);

  // Serving-path counters (get_or_compute).
  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  // Probe-path counter (lookup).
  std::uint64_t probe_hits() const noexcept {
    return probe_hits_.load(std::memory_order_relaxed);
  }
  // Plans displaced by the capacity bound.
  std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const;
  // Resident plan count — size() under its contract name: the capacity
  // bound's test surface (resident() <= capacity() whenever bounded).
  std::size_t resident() const { return size(); }
  void clear();

 private:
  struct Entry {
    PlanPtr plan;
    std::list<std::uint64_t>::iterator lru_pos;
  };
  // One signature mid-computation. Waiters hold a shared_ptr and read their
  // result from here, so neither eviction nor clear() can race them.
  struct InFlight {
    PlanPtr plan;
    std::exception_ptr error;
    bool ready = false;
  };
  // Inserts under the capacity bound, evicting the LRU plan if full.
  // Caller holds mu_.
  void insert_resident(std::uint64_t sig, const PlanPtr& plan);

  const std::size_t capacity_;  // 0 = unbounded
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, Entry> plans_;  // guarded by mu_
  std::list<std::uint64_t> lru_;  // most-recently-used at the front
  // Signatures whose first computation is running.
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> probe_hits_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> preloaded_{0};
};

}  // namespace powerlens::serve
