// PlanCache + graph signatures: hits are byte-identical to fresh plans,
// each key is computed exactly once under concurrency, and the hit/miss
// counters surface in the Prometheus export.
#include "serve/plan_cache.hpp"

#include "core/powerlens.hpp"
#include "dnn/models.hpp"
#include "hw/platform.hpp"
#include "io/interchange.hpp"
#include "obs/metrics.hpp"
#include "serve/signature.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace powerlens::serve {
namespace {

TEST(GraphSignatureTest, StableAcrossRebuilds) {
  const dnn::Graph a = dnn::make_alexnet(4);
  const dnn::Graph b = dnn::make_alexnet(4);
  EXPECT_EQ(graph_signature(a), graph_signature(b));
}

TEST(GraphSignatureTest, DiscriminatesModelAndBatch) {
  const std::uint64_t alex4 = graph_signature(dnn::make_alexnet(4));
  const std::uint64_t alex8 = graph_signature(dnn::make_alexnet(8));
  const std::uint64_t res4 = graph_signature(dnn::make_model("resnet34", 4));
  EXPECT_NE(alex4, alex8);
  EXPECT_NE(alex4, res4);
  EXPECT_NE(alex8, res4);
}

TEST(GraphSignatureTest, ZooModelsAllDistinct) {
  std::vector<std::uint64_t> sigs;
  for (const dnn::ModelSpec& spec : dnn::model_zoo()) {
    sigs.push_back(graph_signature(spec.build(10)));
  }
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    for (std::size_t j = i + 1; j < sigs.size(); ++j) {
      EXPECT_NE(sigs[i], sigs[j]) << "zoo models " << i << " and " << j;
    }
  }
}

// The zoo's signatures at batch 10, recorded when the hash still ran per
// call in the serving layer. Graphs now hash once at construction; these
// values, the snapshot files and every golden keyed by them must not move.
TEST(GraphSignatureTest, ZooSignaturesMatchRecordedValues) {
  const std::pair<std::string_view, std::uint64_t> kRecorded[] = {
      {"alexnet", 0x19af7ccaa20411b3ULL},
      {"googlenet", 0x27f0cc81f8a7ec26ULL},
      {"vgg19", 0x0882504630358818ULL},
      {"mobilenet_v3", 0x2530f88431c98f00ULL},
      {"densenet201", 0xd29d8d0bfdc6d408ULL},
      {"resnext101", 0xcc1092907ca5c2b8ULL},
      {"resnet34", 0xe125a10027886205ULL},
      {"resnet152", 0x062d1fadd45108ecULL},
      {"regnet_x_32gf", 0x8e774460a3678933ULL},
      {"regnet_y_128gf", 0xca7151759aacf80aULL},
      {"vit_base_16", 0xc4fa6ba8c1e925eaULL},
      {"vit_base_32", 0xc2292b5729fe83b6ULL},
  };
  ASSERT_EQ(dnn::model_zoo().size(), std::size(kRecorded));
  for (std::size_t i = 0; i < std::size(kRecorded); ++i) {
    const dnn::ModelSpec& spec = dnn::model_zoo()[i];
    ASSERT_EQ(spec.name, kRecorded[i].first);
    const dnn::Graph g = spec.build(10);
    EXPECT_EQ(graph_signature(g), kRecorded[i].second) << spec.name;
    EXPECT_EQ(dnn::hash_graph(g), kRecorded[i].second) << spec.name;
  }
}

TEST(GraphSignatureTest, CopiesCarryTheSignature) {
  const dnn::Graph g = dnn::make_model("resnet34", 4);
  const dnn::Graph copy = g;
  dnn::Graph assigned;
  assigned = g;
  dnn::Graph moved_from = g;
  const dnn::Graph moved = std::move(moved_from);
  EXPECT_EQ(graph_signature(copy), graph_signature(g));
  EXPECT_EQ(graph_signature(assigned), graph_signature(g));
  EXPECT_EQ(graph_signature(moved), graph_signature(g));
}

TEST(GraphSignatureTest, DecodedAndRebuiltGraphsKeepTheSignature) {
  const dnn::Graph g = dnn::make_model("googlenet", 8);
  const dnn::Graph decoded = io::decode_graph(io::encode_graph(g));
  EXPECT_EQ(graph_signature(decoded), graph_signature(g));

  std::vector<dnn::Layer> layers(g.layers().begin(), g.layers().end());
  std::vector<std::vector<dnn::NodeId>> producers;
  for (dnn::NodeId id = 0; id < g.size(); ++id) {
    const auto p = g.producers(id);
    producers.emplace_back(p.begin(), p.end());
  }
  const dnn::Graph rebuilt(g.name(), std::move(layers), std::move(producers));
  EXPECT_EQ(graph_signature(rebuilt), graph_signature(g));
}

TEST(GraphSignatureTest, EmptyGraphKeepsItsValue) {
  EXPECT_EQ(graph_signature(dnn::Graph{}), 0xa31e272015f12c43ULL);
  EXPECT_EQ(dnn::hash_graph(dnn::Graph{}), 0xa31e272015f12c43ULL);
  EXPECT_EQ(graph_signature(dnn::Graph("", {}, {})), 0xa31e272015f12c43ULL);
}

TEST(PlanCacheTest, MissThenHitReturnsSamePlan) {
  PlanCache cache;
  const dnn::Graph g = dnn::make_alexnet(4);
  std::atomic<int> calls{0};
  const PlanCache::PlanFactory factory = [&](const dnn::Graph&) {
    ++calls;
    core::OptimizationPlan plan;
    plan.block_levels = {3, 5};
    plan.schedule.points = {{0, 3}, {4, 5}};
    return plan;
  };

  const PlanCache::PlanPtr first = cache.get_or_compute(g, factory);
  const PlanCache::PlanPtr second = cache.get_or_compute(g, factory);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(first.get(), second.get());  // the same stored object
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// Regression: lookup() used to bump the serving-path hit counter, so one
// get_or_compute hit plus one diagnostic probe double-counted as two hits
// and the exported hit rate overstated cache effectiveness. Probes now have
// their own counter and leave hits()/misses() to the serving path.
TEST(PlanCacheTest, LookupCountsProbesNotServingPathHits) {
  PlanCache cache;
  const dnn::Graph g = dnn::make_alexnet(4);
  EXPECT_EQ(cache.lookup(graph_signature(g)), nullptr);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.probe_hits(), 0u);  // a probe miss counts nothing

  cache.get_or_compute(g, [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  });
  EXPECT_NE(cache.lookup(graph_signature(g)), nullptr);
  EXPECT_NE(cache.lookup(graph_signature(g)), nullptr);
  EXPECT_EQ(cache.probe_hits(), 2u);
  EXPECT_EQ(cache.hits(), 0u);  // probes no longer leak into serving hits
  EXPECT_EQ(cache.misses(), 1u);

  cache.get_or_compute(g, [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  });
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.probe_hits(), 2u);
}

TEST(PlanCacheTest, ClearResetsPlansButKeepsCounters) {
  PlanCache cache;
  const dnn::Graph g = dnn::make_alexnet(4);
  cache.get_or_compute(g, [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  });
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);  // counters are lifetime totals
}

TEST(PlanCacheTest, BoundedCacheEvictsLeastRecentlyUsed) {
  PlanCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.capacity(), 2u);
  const dnn::Graph a = dnn::make_alexnet(2);
  const dnn::Graph b = dnn::make_alexnet(4);
  const dnn::Graph c = dnn::make_alexnet(8);
  std::atomic<int> calls{0};
  const PlanCache::PlanFactory factory = [&](const dnn::Graph&) {
    ++calls;
    return core::OptimizationPlan{};
  };

  cache.get_or_compute(a, factory);
  cache.get_or_compute(b, factory);  // resident: {b, a}
  cache.get_or_compute(a, factory);  // hit refreshes a: {a, b}
  cache.get_or_compute(c, factory);  // evicts b, the LRU entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(graph_signature(b)), nullptr);  // the victim
  // a survived via the hit refresh.
  EXPECT_NE(cache.lookup(graph_signature(a)), nullptr);
  EXPECT_NE(cache.lookup(graph_signature(c)), nullptr);

  // An evicted signature recomputes on next use.
  EXPECT_EQ(calls.load(), 3);
  cache.get_or_compute(b, factory);
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(cache.evictions(), 2u);  // b's return displaced a (now LRU)
}

TEST(PlanCacheTest, ProbeDoesNotRefreshRecency) {
  PlanCache cache(/*capacity=*/2);
  const dnn::Graph a = dnn::make_alexnet(2);
  const dnn::Graph b = dnn::make_alexnet(4);
  const dnn::Graph c = dnn::make_alexnet(8);
  const PlanCache::PlanFactory factory = [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  };

  cache.get_or_compute(a, factory);
  cache.get_or_compute(b, factory);  // MRU order: b, a
  EXPECT_NE(cache.lookup(graph_signature(a)), nullptr);  // read-only probe
  cache.get_or_compute(c, factory);
  // The probe must not have kept `a` alive — it was still the LRU entry.
  EXPECT_EQ(cache.lookup(graph_signature(a)), nullptr);
  EXPECT_NE(cache.lookup(graph_signature(b)), nullptr);
}

TEST(PlanCacheTest, ZeroCapacityMeansUnbounded) {
  PlanCache cache(/*capacity=*/0);
  const PlanCache::PlanFactory factory = [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  };
  for (const std::int64_t batch : {1, 2, 4, 8, 16, 32}) {
    cache.get_or_compute(dnn::make_alexnet(batch), factory);
  }
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_EQ(cache.evictions(), 0u);
}

// Regression: the capacity budget used to be split across signature
// shards, first rounded up (`--plan-cache-capacity 9` over 8 shards retained
// up to 16 plans) and then down (a shard with a zero slice cached nothing).
// resident() <= capacity() must hold for EVERY signature distribution.
TEST(PlanCacheTest, CapacityBoundHoldsAcrossAdversarialDistributions) {
  struct Case {
    std::size_t capacity;
    std::uint64_t stride;  // signature spacing
    const char* what;
  };
  const Case cases[] = {
      {9, 1, "consecutive signatures"},
      {9, 8, "signatures congruent mod 8"},
      {3, 4, "capacity below the old shard count"},
      {7, 1, "odd capacity"},
      {1, 5, "single slot"},
  };
  for (const Case& c : cases) {
    PlanCache cache(c.capacity);
    const auto plan = std::make_shared<const core::OptimizationPlan>();
    for (std::uint64_t k = 1; k <= 64; ++k) {
      cache.preload(k * c.stride, plan);
      ASSERT_LE(cache.resident(), cache.capacity())
          << c.what << " after " << k << " inserts";
    }
    EXPECT_EQ(cache.resident(), c.capacity) << c.what;
  }
}

TEST(PlanCacheTest, SpreadDistributionFillsTheWholeBudget) {
  // The bound must be exact, not just safe: a capacity-9 cache holds 9
  // plans whatever their signatures — including ones the old 8-way shard
  // split would have sent to one slice.
  PlanCache cache(/*capacity=*/9);
  const auto plan = std::make_shared<const core::OptimizationPlan>();
  for (std::uint64_t sig = 1; sig <= 8; ++sig) cache.preload(sig * 8, plan);
  cache.preload(16 * 8, plan);
  EXPECT_EQ(cache.resident(), 9u);
  EXPECT_EQ(cache.capacity(), 9u);
}

TEST(PlanCacheTest, InstallReplacesResidentPlanInPlace) {
  PlanCache cache(/*capacity=*/2);
  const dnn::Graph g = dnn::make_alexnet(4);
  cache.get_or_compute(g, [](const dnn::Graph&) {
    core::OptimizationPlan plan;
    plan.block_levels = {3};
    return plan;
  });

  auto replan = std::make_shared<const core::OptimizationPlan>();
  EXPECT_TRUE(cache.install(graph_signature(g), replan));
  // Swapped, not duplicated.
  EXPECT_EQ(cache.lookup(graph_signature(g)).get(), replan.get());
  EXPECT_EQ(cache.resident(), 1u);

  // Install on a vacant signature inserts under the capacity bound.
  auto fresh = std::make_shared<const core::OptimizationPlan>();
  EXPECT_TRUE(cache.install(12345u, fresh));
  EXPECT_EQ(cache.resident(), 2u);
  EXPECT_TRUE(cache.install(67890u, fresh));  // evicts the LRU entry
  EXPECT_LE(cache.resident(), cache.capacity());
  EXPECT_THROW(cache.install(1u, nullptr), std::invalid_argument);
}

TEST(PlanCacheTest, EachSignatureComputedExactlyOnceUnderConcurrency) {
  PlanCache cache;
  std::vector<dnn::Graph> graphs;
  graphs.push_back(dnn::make_alexnet(2));
  graphs.push_back(dnn::make_alexnet(4));
  graphs.push_back(dnn::make_model("mobilenet_v3", 2));

  std::atomic<int> calls{0};
  const PlanCache::PlanFactory factory = [&](const dnn::Graph&) {
    ++calls;
    return core::OptimizationPlan{};
  };

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        for (const dnn::Graph& g : graphs) {
          EXPECT_NE(cache.get_or_compute(g, factory), nullptr);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Misses equal the distinct signatures no matter how the threads
  // interleaved, and the counters balance.
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(),
            static_cast<std::uint64_t>(kThreads * kRounds * 3 - 3));
  EXPECT_EQ(cache.size(), 3u);
}

// The acceptance criterion: a cache hit is byte-identical to a freshly
// computed optimize() result for a real trained framework.
TEST(PlanCacheTest, HitEqualsFreshOptimizeForTrainedFramework) {
  const hw::Platform platform = hw::make_tx2();
  core::PowerLensConfig cfg;
  cfg.dataset.num_networks = 40;
  cfg.dataset.seed = 5;
  cfg.train_hyper.epochs = 20;
  cfg.train_decision.epochs = 20;
  core::PowerLens framework(platform, cfg);
  framework.train();

  const PlanCache::PlanFactory factory = [&](const dnn::Graph& g) {
    return framework.optimize(g);
  };

  PlanCache cache;
  for (const char* name : {"alexnet", "resnet34"}) {
    const dnn::Graph g = dnn::make_model(name, 4);
    const PlanCache::PlanPtr warm = cache.get_or_compute(g, factory);
    const PlanCache::PlanPtr hit = cache.get_or_compute(g, factory);
    const core::OptimizationPlan fresh = framework.optimize(g);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit.get(), warm.get());
    // Field-exact (operator== is defaulted memberwise equality down to the
    // schedule points and block levels).
    EXPECT_TRUE(*hit == fresh) << name;
  }
}

// A latch-style gate the blocking-factory tests use to hold a miss inside
// its compute while the test arranges concurrent traffic.
class Gate {
 public:
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }
  bool is_open() {
    const std::lock_guard<std::mutex> lock(mu_);
    return open_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// A hit must complete while a miss compute is still running: misses never
// compute under the cache lock, so a hot key's hits never queue behind a
// cold key's optimize().
TEST(PlanCacheTest, HitsDoNotBlockBehindAnInFlightMissCompute) {
  PlanCache cache;
  const dnn::Graph hot = dnn::make_alexnet(2);
  const dnn::Graph cold = dnn::make_alexnet(4);
  cache.get_or_compute(hot, [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  });

  Gate entered;
  Gate release;
  std::thread miss([&] {
    cache.get_or_compute(cold, [&](const dnn::Graph&) {
      entered.open();
      release.wait();
      return core::OptimizationPlan{};
    });
  });
  entered.wait();
  // The cold compute is in flight and parked inside its factory. A hit
  // must be served right now, not after release.
  EXPECT_NE(cache.get_or_compute(hot, [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  }),
            nullptr);
  EXPECT_FALSE(release.is_open());
  release.open();
  miss.join();
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

// Two misses on distinct signatures compute at the same time: each factory
// waits until both threads are inside their factories, which only
// completes if neither miss holds the cache lock (or waits behind the
// other). A timeout turns a serialized protocol into a failure, not a hang.
TEST(PlanCacheTest, DistinctMissesOnOneShardComputeConcurrently) {
  PlanCache cache;
  const dnn::Graph a = dnn::make_alexnet(2);
  const dnn::Graph b = dnn::make_alexnet(4);

  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  std::atomic<int> timed_out{0};
  const PlanCache::PlanFactory factory = [&](const dnn::Graph&) {
    std::unique_lock<std::mutex> lock(mu);
    ++inside;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return inside == 2; })) {
      ++timed_out;
    }
    return core::OptimizationPlan{};
  };

  std::thread first([&] { cache.get_or_compute(a, factory); });
  std::thread second([&] { cache.get_or_compute(b, factory); });
  first.join();
  second.join();
  EXPECT_EQ(timed_out.load(), 0) << "the two misses were serialized";
  EXPECT_EQ(inside, 2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 2u);
}

// A factory error reaches the computing thread and every thread waiting on
// the same signature, and nothing is cached.
TEST(PlanCacheTest, FactoryErrorReachesEveryWaiter) {
  PlanCache cache;
  const dnn::Graph g = dnn::make_alexnet(4);
  Gate entered;
  Gate release;
  const PlanCache::PlanFactory failing =
      [&](const dnn::Graph&) -> core::OptimizationPlan {
    entered.open();
    release.wait();
    throw std::runtime_error("no plan for you");
  };
  std::atomic<int> errors{0};
  const auto get = [&] {
    try {
      cache.get_or_compute(g, failing);
    } catch (const std::runtime_error&) {
      ++errors;
    }
  };
  std::thread computing(get);
  entered.wait();  // the miss is in flight, parked inside its factory
  std::thread waiter(get);
  // Give the waiter time to find the in-flight entry; if it arrives after
  // the failure it computes (and fails) itself, which the counts allow.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.open();
  computing.join();
  waiter.join();
  EXPECT_EQ(errors.load(), 2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PlanCacheTest, FactoryExceptionPropagatesAndCachesNothing) {
  PlanCache cache;
  const dnn::Graph g = dnn::make_alexnet(4);
  EXPECT_THROW(cache.get_or_compute(g, [](const dnn::Graph&)
                                           -> core::OptimizationPlan {
    throw std::runtime_error("no plan for you");
  }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0u);  // failed computes count nothing
  EXPECT_EQ(cache.hits(), 0u);

  // The signature is left uncached, so a healthy factory retries cleanly.
  EXPECT_NE(cache.get_or_compute(g, [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  }),
            nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCacheTest, PlanComputeHistogramSurfacesInPrometheusExport) {
  PlanCache cache;
  cache.get_or_compute(dnn::make_alexnet(4), [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  });
  std::ostringstream os;
  obs::global_metrics().write_prometheus(os);
  EXPECT_NE(os.str().find("powerlens_serve_plan_compute_ms"),
            std::string::npos);
}

TEST(PlanCacheTest, CountersSurfaceInPrometheusExport) {
  PlanCache cache;
  const dnn::Graph g = dnn::make_alexnet(4);
  cache.get_or_compute(g, [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  });
  cache.get_or_compute(g, [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  });

  std::ostringstream os;
  obs::global_metrics().write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("powerlens_serve_plan_cache_hits_total"),
            std::string::npos);
  EXPECT_NE(text.find("powerlens_serve_plan_cache_misses_total"),
            std::string::npos);
}

// The signature API and the graph-keyed adapter file plans under the same
// key: whichever resolves first computes, the other hits the same object.
TEST(PlanCacheTest, SignatureHitReturnsSamePlanAsGraphAdapter) {
  PlanCache cache;
  const dnn::Graph g = dnn::make_alexnet(4);
  int calls = 0;
  const PlanCache::PlanPtr via_graph =
      cache.get_or_compute(g, [&](const dnn::Graph&) {
        ++calls;
        return core::OptimizationPlan{};
      });
  const PlanCache::PlanFactory counted = [&](const dnn::Graph&) {
    ++calls;
    return core::OptimizationPlan{};
  };
  const PlanCache::PlanPtr via_sig =
      cache.get_or_compute(graph_signature(g), g, counted);
  EXPECT_EQ(via_sig.get(), via_graph.get());
  EXPECT_EQ(cache.lookup(graph_signature(g)).get(), via_graph.get());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCacheTest, EachSignatureComputedOnceUnderConcurrencyOnSignatureApi) {
  PlanCache cache;
  std::vector<dnn::Graph> graphs;
  for (const std::int64_t batch : {1, 2, 4, 8, 16}) {
    graphs.push_back(dnn::make_alexnet(batch));
  }
  std::vector<std::uint64_t> sigs;
  for (const dnn::Graph& g : graphs) sigs.push_back(graph_signature(g));

  std::mutex mu;
  std::vector<std::uint64_t> computed;
  const PlanCache::PlanFactory factory = [&](const dnn::Graph& g) {
    const std::lock_guard<std::mutex> lock(mu);
    computed.push_back(graph_signature(g));
    return core::OptimizationPlan{};
  };

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < graphs.size(); ++i) {
          // Each thread walks the models from a different offset, so the
          // first requests for every signature genuinely race.
          const std::size_t k = (i + static_cast<std::size_t>(t)) %
                                graphs.size();
          EXPECT_NE(cache.get_or_compute(sigs[k], graphs[k], factory),
                    nullptr);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::sort(computed.begin(), computed.end());
  std::vector<std::uint64_t> expected = sigs;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(computed, expected);  // every signature exactly once
  EXPECT_EQ(cache.misses(), graphs.size());
  EXPECT_EQ(cache.hits(),
            static_cast<std::uint64_t>(kThreads * kRounds) * graphs.size() -
                graphs.size());
}

// A signature that is not the graph's would file the graph's plan under
// another model's key. Debug builds assert on the miss; release builds
// (NDEBUG) trust the caller, which EXPECT_DEBUG_DEATH checks runs through.
TEST(PlanCacheDeathTest, MismatchedSignatureAssertsInDebugBuilds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlanCache cache;
  const dnn::Graph g = dnn::make_alexnet(4);
  const std::uint64_t wrong = graph_signature(g) + 1;
  const PlanCache::PlanFactory factory = [](const dnn::Graph&) {
    return core::OptimizationPlan{};
  };
  EXPECT_DEBUG_DEATH(cache.get_or_compute(wrong, g, factory),
                     "graph_signature");
}

}  // namespace
}  // namespace powerlens::serve
