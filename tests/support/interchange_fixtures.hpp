// Shared golden-fixture builders for the binary interchange (src/io).
//
// The golden tests assert that today's writers reproduce the committed
// tests/data/interchange_golden/{graph,plan,cost_table}.plbin byte-for-byte,
// and the regen tool (tools/regen_goldens) rewrites those files after a
// DELIBERATE format change — both sides must build the fixtures from the
// same source, so the builders live here.
//
// Every value is either integer-derived or a double literal: no libm, no
// platform math, so the encoded bytes are identical on every host and both
// kernel dispatch paths. Keep it that way — a fixture that depends on
// exp()/pow() bitwise behaviour would make the goldens host-specific.
#pragma once

#include "clustering/power_view.hpp"
#include "core/powerlens.hpp"
#include "dnn/graph.hpp"
#include "dnn/models.hpp"
#include "hw/cost_table.hpp"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace powerlens::testing {

// Integer-built model graph: shapes, FLOPs, params and byte counts in
// make_alexnet are all integer arithmetic.
inline dnn::Graph golden_graph() { return dnn::make_alexnet(4); }

// Hand-built plan over a fictional 10-layer graph. The signature is an
// arbitrary fixed tag, not a real graph's — provenance is opaque to the
// codec and the goldens only pin the byte layout.
inline std::uint64_t golden_plan_signature() { return 0x9e3779b97f4a7c15ULL; }

inline core::OptimizationPlan golden_plan() {
  core::OptimizationPlan plan;
  plan.hyper.eps = 0.375;  // exactly representable
  plan.hyper.min_pts = 4;
  plan.view = clustering::PowerView(
      {{0, 3}, {3, 7}, {7, 10}}, /*num_layers=*/10);
  plan.block_levels = {2, 7, 5};
  plan.schedule.points = {{0, 2}, {3, 7}, {7, 5}};
  plan.schedule.cpu_points = {{0, 3}};
  plan.predicted_pass_time_s = 1.5;
  plan.predicted_pass_energy_j = 12.25;
  return plan;
}

// Tiny owned cost table: 2 layers, 2 gpu levels, 2 cpu slots (cpu levels
// 1 and 3 of a 4-level ladder), prefix arrays as literals. Layout matches
// CostTable::plane(): one (num_layers + 1)-length run per (gpu, slot).
inline hw::CostTable golden_cost_table() {
  const std::size_t kNoSlot = hw::CostTable::kNoSlot;
  std::vector<std::size_t> cpu_slot = {kNoSlot, 0, kNoSlot, 1};
  // 2 gpu * 2 slots * (2 + 1) = 12 entries, monotone per 3-entry run.
  std::vector<double> time = {0.0, 1.5,  3.25,  0.0, 1.25, 2.75,
                              0.0, 2.0,  4.5,   0.0, 1.75, 3.875};
  std::vector<double> energy = {0.0, 10.5, 22.25, 0.0, 9.75, 20.5,
                                0.0, 8.0,  17.5,  0.0, 7.25, 16.125};
  return hw::CostTable::from_parts(/*num_layers=*/2, /*gpu_levels=*/2,
                                   std::move(cpu_slot), /*cpu_slots=*/2,
                                   std::move(time), std::move(energy));
}

}  // namespace powerlens::testing
