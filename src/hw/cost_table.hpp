// Memoized analytic costs for one graph: per-layer (time, energy) at every
// (gpu_level, cpu_level) pair, stored as prefix sums over the layer axis.
//
// The offline labelling sweeps (dataset generation, oracle planning) evaluate
// the same layer ranges at the same frequency levels thousands of times per
// network — enforce_min_block_duration re-times shrinking views per merge
// step, best_hyperparam_class sweeps a 24-point hyperparameter grid, and
// every block is swept across the whole GPU ladder. A CostTable pays the
// per-layer model evaluation exactly once per (layer, gpu, cpu) triple and
// then answers any contiguous block query in O(1) by prefix-sum subtraction.
//
// Accumulation order matches analytic_block_cost layer-by-layer, so a query
// starting at layer 0 is bitwise identical to the direct computation;
// queries starting mid-graph differ only by one floating-point subtraction.
//
// A table is a plain value: it owns its prefix arrays in vectors, so copies,
// moves and equality are the compiler's memberwise ones.
#pragma once

#include "hw/analytic.hpp"

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace powerlens::hw {

class CostTable {
 public:
  // cpu_slot entries carry this sentinel for CPU levels that were not
  // precomputed (see raw()).
  static constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

  // An empty table: nothing precomputed, every query throws. Exists so a
  // caller can declare a table and assign it later.
  CostTable() = default;

  // Precomputes all (gpu_level, cpu_level) pairs of `platform`.
  CostTable(const Platform& platform, std::span<const dnn::Layer> layers,
            double cpu_load = 0.2);
  // Precomputes only the given cpu levels (all gpu levels); use when the
  // caller sweeps the GPU ladder at one or two known CPU operating points.
  // Duplicate cpu levels are stored once. Throws std::out_of_range on a
  // level outside the platform ladder.
  CostTable(const Platform& platform, std::span<const dnn::Layer> layers,
            std::span<const std::size_t> cpu_levels, double cpu_load = 0.2);
  // Same, from pre-extracted per-layer features (CostFeatures::extract on
  // the same platform/layers): the layer-major fill skips the per-cell
  // model re-derivation entirely. The layer-span constructors are exactly
  // extract-then-this, so all paths produce identical bits. The adaptation
  // layer extracts once per model and refills per epoch through this.
  CostTable(const Platform& platform, const CostFeatures& features,
            std::span<const std::size_t> cpu_levels, double cpu_load = 0.2);

  // --- Serialized-parts interface (the binary interchange, src/io) ---

  struct Raw {
    std::size_t num_layers = 0;
    std::size_t gpu_levels = 0;
    // cpu level -> dense slot index, kNoSlot when not precomputed.
    std::span<const std::size_t> cpu_slot;
    std::size_t cpu_slots = 0;
    std::span<const double> time_prefix;
    std::span<const double> energy_prefix;
  };
  Raw raw() const noexcept;

  // Rebuild from serialized parts (the interchange decoder). Validates
  // every structural invariant the constructors establish, dimension
  // overflow included, and throws std::invalid_argument on a violation.
  static CostTable from_parts(std::size_t num_layers, std::size_t gpu_levels,
                              std::vector<std::size_t> cpu_slot,
                              std::size_t cpu_slots,
                              std::vector<double> time_prefix,
                              std::vector<double> energy_prefix);

  // Value equality over metadata and prefix contents — the interchange
  // round-trip contract.
  bool operator==(const CostTable&) const = default;

  std::size_t num_layers() const noexcept { return num_layers_; }
  std::size_t gpu_levels() const noexcept { return gpu_levels_; }
  bool has_cpu_level(std::size_t cpu_level) const noexcept;

  // Cost of layers [begin, end) at the given levels; O(1). Throws
  // std::out_of_range on a bad range, gpu level, or a cpu level that was not
  // precomputed.
  BlockCost block_cost(std::size_t begin, std::size_t end,
                       std::size_t gpu_level, std::size_t cpu_level) const;

  // Energy-argmin GPU level for layers [begin, end); ties resolve to the
  // lower level, matching hw::optimal_gpu_level exactly.
  std::size_t optimal_gpu_level(std::size_t begin, std::size_t end,
                                std::size_t cpu_level) const;
  // Capped argmin: considers only levels [0, max_gpu_level]. The online
  // adaptation layer searches under a thermal cap without rebuilding the
  // table. `max_gpu_level` clamps to the ladder top, so passing SIZE_MAX
  // reproduces the unconstrained search bit for bit.
  std::size_t optimal_gpu_level(std::size_t begin, std::size_t end,
                                std::size_t cpu_level,
                                std::size_t max_gpu_level) const;

  // An owning copy with every prefix entry multiplied by the per-dimension
  // factor — the adaptation layer's observed/predicted correction applied to
  // the whole plane at once. Scaling a prefix sum scales every block query
  // by the same factor (subtraction distributes), so the argmin structure
  // changes only where the energy factor changes it. Throws
  // std::invalid_argument on non-finite or non-positive factors.
  CostTable scaled(double time_factor, double energy_factor) const;

 private:
  void init(const Platform& platform, const CostFeatures& features,
            std::span<const std::size_t> cpu_levels, double cpu_load);
  std::size_t plane(std::size_t gpu_level, std::size_t cpu_level) const;

  std::size_t num_layers_ = 0;
  std::size_t gpu_levels_ = 0;
  // cpu level -> dense slot index, or kNoSlot when not precomputed.
  std::vector<std::size_t> cpu_slot_;
  std::size_t cpu_slots_ = 0;
  // Prefix sums, one (num_layers_ + 1)-length run per (gpu, cpu-slot) plane:
  // index [plane * (L + 1) + i] holds the cost of layers [0, i).
  std::vector<double> time_prefix_;
  std::vector<double> energy_prefix_;
};

}  // namespace powerlens::hw
