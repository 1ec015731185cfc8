// Versioned binary interchange for the three artifacts the offline→serving
// pipeline hands between processes (DESIGN.md §5h):
//
//   - dnn::Graph          — nodes (type, name, shapes, FLOPs/params/bytes,
//                           deep attributes) + producer edge lists;
//   - core::OptimizationPlan — clustering hyperparameters, block boundaries,
//                           per-block frequency levels, the preset schedule,
//                           and the predicted per-pass cost fields, tagged
//                           with the graph signature it was computed for;
//   - hw::CostTable       — the ladder × layer prefix-sum cost grid, written
//                           with its arrays page-aligned (a format-1 layout
//                           detail; every load is one heap decode).
//
// The fourth record type, the trained model bundle, sits below this layer
// (core::encode_model_bundle) on the same byte primitives (io/binary.hpp).
//
// Encode/decode work on in-memory byte buffers (what the fuzz harness
// mutates); save/load wrap them in whole-file helpers. Every decoder
// validates magic → version → type → bounds → checksum before touching the
// payload, and converts any structural violation in a checksum-valid
// payload into io::MalformedError — malformed bytes can produce a typed
// error or a value-equal object, never UB.
//
// Compatibility policy: the format version is a single monotonic u16.
// Readers accept exactly the versions they know how to decode (currently
// only kFormatVersion) and reject everything else with VersionMismatchError
// — no silent best-effort parsing of future layouts. Additive evolution
// bumps the version and teaches the reader both layouts.
#pragma once

#include "core/powerlens.hpp"
#include "dnn/graph.hpp"
#include "hw/cost_table.hpp"
#include "io/binary.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace powerlens::io {

// --- Graph records ---

std::vector<std::byte> encode_graph(const dnn::Graph& graph);
dnn::Graph decode_graph(std::span<const std::byte> record);

void save_graph(const std::string& path, const dnn::Graph& graph);
dnn::Graph load_graph(const std::string& path);

// --- Plan records ---

struct PlanRecord {
  // serve::graph_signature of the graph the plan was computed for; 0 for a
  // standalone plan with no provenance.
  std::uint64_t graph_signature = 0;
  core::OptimizationPlan plan;

  bool operator==(const PlanRecord&) const noexcept = default;
};

std::vector<std::byte> encode_plan(const core::OptimizationPlan& plan,
                                   std::uint64_t graph_signature = 0);
PlanRecord decode_plan(std::span<const std::byte> record);

void save_plan(const std::string& path, const core::OptimizationPlan& plan,
               std::uint64_t graph_signature = 0);
PlanRecord load_plan(const std::string& path);

// A plan snapshot is a concatenation of plan records — the PlanCache's
// cross-process warm-start artifact (serve::Server::warm_start_from_snapshot).
void save_plan_snapshot(const std::string& path,
                        std::span<const PlanRecord> records);
std::vector<PlanRecord> load_plan_snapshot(const std::string& path);

// --- Cost-table records ---

// Cost tables are written one per file with the prefix-sum arrays aligned
// to kPageAlign relative to the file start; encode_cost_table therefore
// assumes the record begins at file offset 0.
std::vector<std::byte> encode_cost_table(const hw::CostTable& table);
hw::CostTable decode_cost_table(std::span<const std::byte> record);

void save_cost_table(const std::string& path, const hw::CostTable& table);
hw::CostTable load_cost_table(const std::string& path);

// --- Inspection + fuzzing ---

// Header summary of the record at the head of `bytes` (validates through
// the checksum). Used by `powerlens_cli import`.
struct RecordInfo {
  RecordType type = RecordType::kGraph;
  std::size_t payload_bytes = 0;
  std::size_t total_bytes = 0;
};
RecordInfo inspect_record(std::span<const std::byte> bytes);

// Fuzz entry point shared by tools/plfuzz and the libFuzzer target: tries
// to decode `bytes` as a graph, a plan, a cost table and a model bundle
// (core::decode_model_bundle). io::Error is the expected outcome for
// malformed input and is swallowed; any other exception escapes (the fuzz
// driver's failure signal). Returns how many of the four decoders accepted
// the input (0 for garbage, 1 for a valid record).
int fuzz_try_decode(std::span<const std::byte> bytes);

}  // namespace powerlens::io
