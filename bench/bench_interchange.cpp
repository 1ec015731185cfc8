// google-benchmark microbenchmarks for the binary interchange (src/io):
// encode/decode throughput per record type and whole-file save/load. The
// interchange sits on the serving cold-start path (snapshot warm start,
// model-dir population), so its cost should stay microseconds, not
// milliseconds.
#include "io/interchange.hpp"

#include "dnn/models.hpp"
#include "hw/cost_table.hpp"
#include "hw/platform.hpp"
#include "serve/signature.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

namespace {

using namespace powerlens;

const dnn::Graph& probe_graph() {
  static const dnn::Graph g = dnn::make_resnet152(8);
  return g;
}

const hw::CostTable& probe_cost_table() {
  static const hw::CostTable table = [] {
    const hw::Platform platform = hw::make_tx2();
    return hw::CostTable(platform, probe_graph().layers());
  }();
  return table;
}

std::string temp_file(const char* leaf) {
  return ::std::string("/tmp/powerlens_bench_") + leaf;
}

void BM_EncodeGraph(benchmark::State& state) {
  const dnn::Graph& g = probe_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::encode_graph(g));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() *
                                io::encode_graph(g).size()));
}

void BM_DecodeGraph(benchmark::State& state) {
  const std::vector<std::byte> bytes = io::encode_graph(probe_graph());
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::decode_graph(bytes));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
}

void BM_EncodeCostTable(benchmark::State& state) {
  const hw::CostTable& table = probe_cost_table();
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::encode_cost_table(table));
  }
}

void BM_DecodeCostTableHeap(benchmark::State& state) {
  const std::vector<std::byte> bytes =
      io::encode_cost_table(probe_cost_table());
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::decode_cost_table(bytes));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * bytes.size()));
}

void BM_LoadCostTable(benchmark::State& state) {
  const std::string path = temp_file("costs.plbin");
  io::save_cost_table(path, probe_cost_table());
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::load_cost_table(path));
  }
  std::remove(path.c_str());
}

void BM_GraphFileRoundTrip(benchmark::State& state) {
  const std::string path = temp_file("graph.plbin");
  const dnn::Graph& g = probe_graph();
  for (auto _ : state) {
    io::save_graph(path, g);
    benchmark::DoNotOptimize(io::load_graph(path));
  }
  std::remove(path.c_str());
}

void BM_SignatureAfterDecode(benchmark::State& state) {
  // The warm-start key derivation: decode + signature, the per-model cost
  // of populating a server from a model directory.
  const std::vector<std::byte> bytes = io::encode_graph(probe_graph());
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::graph_signature(io::decode_graph(bytes)));
  }
}

BENCHMARK(BM_EncodeGraph);
BENCHMARK(BM_DecodeGraph);
BENCHMARK(BM_EncodeCostTable);
BENCHMARK(BM_DecodeCostTableHeap);
BENCHMARK(BM_LoadCostTable);
BENCHMARK(BM_GraphFileRoundTrip);
BENCHMARK(BM_SignatureAfterDecode);

}  // namespace

BENCHMARK_MAIN();
