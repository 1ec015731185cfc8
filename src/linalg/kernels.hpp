// Blocked, SIMD-dispatched linear-algebra kernels — the single hot-loop layer
// every dense computation in the reproduction funnels through.
//
// Scope: double-precision GEMM in the three orientations the codebase needs
// (A·B, A·Bᵀ, Aᵀ·B), GEMV, a fused affine(+ReLU) kernel for the dense layers
// of the prediction models, and column sums. Dimensions in this project are
// tens-to-hundreds, so the kernels block for cache reuse and tile output
// patches across registers. Since PR 6 there are three interchangeable
// execution paths behind one dispatch seam — portable scalar (always built),
// AVX2 (x86-64), and NEON (aarch64) — selected once at first use and
// overridable for tests and benches (set_path_override) or via the
// POWERLENS_KERNEL_PATH environment variable ("scalar" | "simd" | "auto").
//
// Determinism contract (load-bearing — the serving layer's byte-identical
// reports and the golden serialization file both depend on it):
//
//   * The reduction shape of every output element is fixed INDEPENDENTLY of
//     the host ISA, so scalar, AVX2, and NEON builds produce bitwise
//     identical results. Two fixed shapes exist:
//
//     - Kernels whose reduction axis is contiguous in both operands
//       (gemm_nt, affine, gemv) use a fixed kLanes=4 accumulator tree: lane
//       l accumulates the products with reduction index p ≡ l (mod 4) in
//       ascending p, and the lanes combine in the fixed order
//       (l0 + l1) + (l2 + l3). The lane width is a compile-time constant of
//       the CONTRACT, not of the host vector unit: AVX2 maps the tree onto
//       one 4-wide register, NEON onto two 2-wide registers, and the scalar
//       path onto four plain accumulators — all the same arithmetic in the
//       same order. Lane partial sums span the entire reduction extent (no
//       k-panel round-trips through memory, which would collapse the tree
//       to one double).
//
//     - Kernels whose OUTPUT index is contiguous in memory (gemm_nn,
//       gemm_tn, col_sums) keep ONE accumulator per output element walking
//       the reduction index in ascending order — bitwise identical to the
//       textbook `sum += a[k] * b[k]` loop and unchanged from PR 5. SIMD
//       vectorizes across independent output elements, which reorders no
//       additions. k-panels accumulate through exact stores, ascending k.
//
//   * Blocking constants and the lane width are fixed at compile time; they
//     are never derived from the thread count, the environment, the input
//     values, or the host CPU. Changing which DISPATCH PATH runs never
//     changes a bit of output; changing the CONTRACT (as PR 6 did, moving
//     gemm_nt/affine/gemv from one ascending accumulator to the 4-lane
//     tree) is a deliberate re-baselining event for the golden files.
//
//   * All kernel maths is compiled with -ffp-contract=off (top-level
//     CMakeLists): scalar a*b+c must not fuse into an FMA on hosts whose
//     baseline ISA has one (aarch64), or the scalar path would diverge from
//     the explicitly mul-then-add SIMD paths.
//
//   * The kernels themselves are single-threaded and re-entrant; callers
//     that shard work across threads (nn::train, serve workers) keep
//     determinism because each output element is written by exactly one
//     kernel call.
//
// Fused affine adds the bias AFTER the full lane-tree sum (exactly like
// `lane_dot(x, w) + b`), then applies ReLU (`v > 0 ? v : 0`, so NaN and
// -0.0 both normalize to +0.0 — AVX2 maxpd(v, 0) matches this exactly).
#pragma once

#include "linalg/matrix.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace powerlens::linalg::kernels {

// Fixed blocking schedule. kBlockDepth bounds the k-panel resident in L1
// for the output-contiguous kernels; kBlockCols keeps a B/W row panel hot
// in L2 while the full m extent streams past it.
inline constexpr std::size_t kBlockDepth = 256;
inline constexpr std::size_t kBlockCols = 64;
// Register tile extents used by the implementations (perf only — tile shape
// never affects numerics because every output element's reduction shape is
// fixed by the contract above).
inline constexpr std::size_t kRegRows = 4;
inline constexpr std::size_t kRegCols = 4;
// Contract-level lane count of the fixed accumulator tree. Independent of
// the host vector width by design: see the determinism contract.
inline constexpr std::size_t kLanes = 4;

// ---- Dispatch seam ----

enum class DispatchPath { kScalar, kAvx2, kNeon };

// The path the next kernel call will execute (after resolving auto-detect
// and any override).
DispatchPath active_path() noexcept;
const char* path_name(DispatchPath path) noexcept;
// True when `path` was compiled in AND the running CPU supports it. kScalar
// is always available.
bool path_available(DispatchPath path) noexcept;
// Test/bench seam: pin dispatch to one path (std::nullopt restores
// auto-detection). Throws std::invalid_argument if the path is unavailable.
// Not meant to race with in-flight kernel calls; callers quiesce first.
void set_path_override(std::optional<DispatchPath> path);

// ---- Kernels ----

// C (m x n, leading dim ldc) = A (m x k, lda) · B (k x n, ldb), or += when
// `accumulate`. Row-major buffers; regions may not alias. One ascending-k
// accumulator per element (output-contiguous shape).
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate = false);

// C (m x n) = A (m x k, lda) · Bᵀ where B is (n x k, ldb) — both operands
// walk contiguous rows; this is the orientation of the dense-layer forward
// (X · Wᵀ) and of Gram matrices (Y · Yᵀ). Fixed 4-lane tree per element;
// `accumulate` adds the existing C value AFTER the tree combines.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate = false);

// C (m x n) = Aᵀ · B where A is (k x m, lda) and B is (k x n, ldb) — the
// orientation of the dense-layer weight gradient (gᵀ · X). One ascending-k
// accumulator per element (output-contiguous shape).
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate = false);

// y (m) = A (m x n, lda) · x (n), or += when `accumulate` (existing y joins
// after the tree). Fixed 4-lane tree per element.
void gemv(std::size_t m, std::size_t n, const double* a, std::size_t lda,
          const double* x, double* y, bool accumulate = false);

// Fused dense-layer forward: out (batch x n) = X (batch x k, ldx) · Wᵀ + b,
// with W (n x k, ldw) in output-major layout and optional ReLU applied in
// the same pass. Bias joins after the complete 4-lane tree; bitwise equal
// to `lane_dot(x_row, w_row) + b[o]` followed by a ReLU sweep.
void affine(std::size_t batch, std::size_t n, std::size_t k, const double* x,
            std::size_t ldx, const double* w, std::size_t ldw,
            const double* bias, double* out, std::size_t ldo, bool relu);

// Column sums: out[j] (+)= sum_r G(r, j) for G (m x n, ldg), ascending r —
// the dense-layer bias gradient. One ascending-r accumulator per column.
void col_sums(std::size_t m, std::size_t n, const double* g, std::size_t ldg,
              double* out, bool accumulate = false);

// C lower triangle (j <= i, diagonal included) = A (n x k, lda) · Aᵀ. Each
// entry is ONE fused multiply-add chain over ascending p — acc =
// fma(a(i,p), a(j,p), acc) from 0 — with every fused rounding pinned by
// IEEE-754, so vfmadd/vfmaq/std::fma agree bitwise on every dispatch path
// regardless of which vector lane (or scalar edge) computes the entry.
// `at` is k x n caller scratch, clobbered: the kernel transposes A into it
// and runs the multiply as rank-1 updates (broadcast of A against
// contiguous rows of Aᵀ), which needs no horizontal reductions — the
// bottleneck of the lane-tree shape at this codebase's small k. syrk_nt's
// only consumer is the distance pipeline's Gram matrix, which no committed
// checkpoint pins, so it can take the fused throughput and the chain
// reduction shape the training kernels must forgo. The upper triangle of C
// is left untouched; the symmetric consumers only ever read one triangle,
// so skipping the mirror also halves the flops.
void syrk_nt(std::size_t n, std::size_t k, const double* a, std::size_t lda,
             double* at, double* c, std::size_t ldc);

// Triangular distance-pipeline prepass over a lower-triangle Gram matrix
// (as syrk_nt leaves it): fills `scratch` (n doubles) with the Gram
// diagonal and stores into *max_out the maximum of the pairwise distances
//   dist(i, j) = sqrt(max0(g(i,i) + g(j,j) - 2·g(max(i,j), min(i,j))))
// (max0 is the ReLU clamp v > 0 ? v : 0; NaN and -0.0 normalize to +0.0)
// without materializing them. The fold runs over the raw squared distances
// and applies max0 + sqrt once to the fold result; both maps are monotone
// non-decreasing and sqrt is correctly rounded, so the result is bitwise
// identical to scanning the full sqrt'd matrix. max over non-NaN doubles
// is reduction-order independent up to the sign of zero, which max0
// normalizes — every dispatch path agrees.
void gram_dist_max(std::size_t n, const double* g, std::size_t ldg,
                   double* scratch, double* max_out);

// Fused triangular distance + blend + symmetric ε-adjacency: one sweep
// over the lower Gram triangle writes the blended power distance
//   out(i, j) = alpha · (sqrt(max0(nᵢ + nⱼ - 2·g(i,j))) · inv_max)
//               + beta · penalty[i - j]
// for j < i plus a zero diagonal — every element bitwise identical to the
// scalar expression in that order (mul-then-add, correctly rounded sqrt),
// so the full symmetric matrix a scalar loop would write agrees with it
// entry for entry — and emits the full symmetric ε-bitmap + degrees in
// the same pass: bit (i, j) iff out(i, j) <= eps (self included: the
// diagonal is +0.0), bit (j, i) mirrored because blended values are
// symmetric. The upper triangle of `out` is never written; consumers index
// (max(i,j), min(i,j)).
// `scratch` must hold the Gram diagonal (gram_dist_max fills it), `bits`
// n·words words (zeroed by this kernel), `degree` n counters.
void gram_blend_adj(std::size_t n, const double* g, std::size_t ldg,
                    const double* scratch, double alpha, double inv_max,
                    double beta, const double* penalty, double* out,
                    std::size_t ldo, double eps, std::uint64_t* bits,
                    std::size_t words, std::size_t* degree);

// Per-plane analytic cost fill (hw::CostTable's layer axis): per-level
// constants hoisted by the caller, per-layer level-invariant features
// hoisted once per graph.
struct CostPlaneTerms {
  double peak = 0.0;      // (cores · flops_per_core) · gpu_f for this plane
  double dyn_coeff = 0.0; // ((c_eff · v) · v) · gpu_f — gpu dynamic prefix
  double static_w = 0.0;  // static_w_per_volt · v
  double stall = 0.0;     // gpu stall activity floor
  double launch_s = 0.0;  // launch_overhead · (cpu_f_max / cpu_f)
  double cpu_w = 0.0;     // full cpu_power_w(cpu_f, load) — load is fixed
  double mem_w = 0.0;     // mem active power at 100% bandwidth
  double base_w = 0.0;    // board base power
};

// For layer l (active[l] != 0; inactive layers write 0/0):
//   compute_s = flops[l] > 0 ? flops[l] / (eff[l] · peak) : 0
//   kernel_s  = max(compute_s, memory_s[l]);  time = kernel_s + launch_s
//   busy = kernel_s / time;  duty = max(compute_s / kernel_s, stall)
//   act_gpu = duty · busy;  act_mem = min(1, memory_s[l] / kernel_s) · busy
//   power = (((dyn_coeff · clamp01(act_gpu) + static_w) + cpu_w)
//            + mem_w · clamp01(act_mem)) + base_w
//   time_out[l] = time;  energy_out[l] = power · time
// Every expression matches hw::LatencyModel::time_layer +
// hw::PowerModel::total_w association-for-association, so the outputs are
// bitwise identical to the per-cell evaluation; each output element is
// independent scalar arithmetic (no reductions), so every dispatch path
// produces the same bits by construction.
void cost_plane_fill(std::size_t layers, const double* flops,
                     const double* eff, const double* memory_s,
                     const unsigned char* active, const CostPlaneTerms& terms,
                     double* time_out, double* energy_out);

// ---- Matrix conveniences (shape-checked; throw std::invalid_argument) ----

// out = a · b. `out` is reshaped; must not alias an operand.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);
// out = a · bᵀ.
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& out);
// out (+)= aᵀ · b.
void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& out,
                    bool accumulate = false);

Matrix matmul(const Matrix& a, const Matrix& b);
Matrix matmul_nt(const Matrix& a, const Matrix& b);
Matrix matmul_tn(const Matrix& a, const Matrix& b);

}  // namespace powerlens::linalg::kernels
