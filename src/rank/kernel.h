// Compute kernels for the PSR scan core (rank/psr_scan_core.h): the
// element-wise arithmetic of the three hot loops -- the Bernoulli
// multiply-in (`fold_factor`, shared by Advance and RebuildCounts), the
// stable divide-out pair (`divide_out_fwd` / `divide_out_bwd`, used by
// BuildExclusion), and the emission passes (`scale` for the per-rank
// rho buffer, `update_argmax` for the U-kRanks trackers) -- packaged as
// a table of function pointers so the scan can be retargeted at runtime
// between a portable scalar path and an AVX2 path.
//
// THE BITWISE CONTRACT. Every kernel computes the exact same IEEE-754
// double operation sequence per element, so scalar and AVX2 outputs are
// bitwise equal -- not merely close -- for every input. This is what
// lets the rest of the library ignore the kernel choice entirely: the
// engine's checkpoints, replays, pooled-session overlays and shard
// boundary hand-offs all rely on different drivers reproducing identical
// state, and a kernel that drifted by even one ulp would break those
// guarantees. Concretely:
//
//  * `fold_factor` / `scale` / `update_argmax` are element-wise maps
//    with no loop-carried rounding: each output lane is the same
//    mul/add/compare sequence in both paths (AVX2 packs four lanes per
//    instruction; per-lane IEEE semantics are identical to scalar).
//    The kernel translation units are compiled with -ffp-contract=off
//    and without -mfma, so no path ever fuses a multiply-add the other
//    path rounds in two steps.
//  * The divide-out recurrences are GENUINELY SEQUENTIAL: each element
//    is a mul+sub chain on its predecessor (the divisions are taken
//    once per call, as reciprocals, off the loop-carried path), and any
//    lane-parallel evaluation would necessarily re-associate those
//    roundings -- bitwise-exact vectorization is provably impossible
//    there. Both kernels therefore run the SAME scalar divide-out code
//    (the AVX2 table points at the scalar functions), which keeps the
//    contract exact instead of falling back to a tolerance gate. What
//    CAN overlap is several INDEPENDENT chains: `divide_out_lanes` runs
//    the divide-outs of a scan lane group (rank/psr_scan_core.h) in one
//    interleaved loop, each element with its solo op's exact mul, sub
//    and clamp -- scalar, shared by both tables, bitwise equal to the
//    solo calls by construction.
//
// Runtime dispatch: the AVX2 path is compiled into its own translation
// unit (kernel_avx2.cc) with -mavx2 applied to that file only -- the
// library itself carries no -march requirement and stays runnable on
// any x86-64 (or non-x86) host. SelectScanKernel picks the table from
// an exec-layer KernelKind: kAuto probes the CPU once (and honors the
// UCLEAN_DISABLE_AVX2 environment variable, the forced-scalar CI leg's
// switch); kScalar and kAvx2 force a specific path, with kAvx2 failing
// fast when the host cannot run it. An explicit kAvx2 request ignores
// the environment switch so equivalence tests can still pit both
// kernels against each other under a forced-scalar environment.

#ifndef UCLEAN_RANK_KERNEL_H_
#define UCLEAN_RANK_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"

namespace uclean {
namespace psr_internal {

/// Minimal C++17 aligned allocator: the scan core's structure-of-arrays
/// buffers are 32-byte aligned so the AVX2 kernels start on a full
/// vector lane (unaligned intrinsics are used throughout, so alignment
/// is a performance property, never a correctness one).
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// The scan core's double buffers (count vector, exclusion scratch,
/// emission scratch): contiguous, 32-byte aligned, value-semantics like
/// std::vector<double>.
using AlignedBuf =
    std::vector<double, AlignedAllocator<double, 32>>;

/// Most divide-outs one divide_out_lanes call interleaves: the width of
/// a scan lane group (rank/psr_scan_core.h's RunLadderScanLanes).
constexpr std::size_t kMaxDivideOutLanes = 4;

/// One divide-out recurrence part-way through its loop, in a form that
/// runs forward and backward alike: each step moves `in` and `out` by
/// `stride` (+1 forward, -1 backward) and writes
///     *out = max(0, *in * r - prev * s),   prev = *out
/// -- the exact mul, sub and clamp of divide_out_fwd / divide_out_bwd.
/// `in` and `out` point at the last element read and written (the seed
/// first); `len` elements remain.
struct DivideOutLane {
  const double* in;
  double* out;
  std::ptrdiff_t stride;
  double r;
  double s;
  double prev;
  std::size_t len;
};

/// Starts one lane of the divide-out divide_out_fwd (`forward`) or
/// divide_out_bwd would run on (excl, c, top, q): takes r and s and
/// writes the seed element exactly as that call does, and returns the
/// lane that writes the remaining top - 1 elements. Shared by every
/// kernel (defined in kernel.cc, under its FP pinning).
DivideOutLane StartDivideOutLane(double* excl, const double* c,
                                 std::size_t top, double q, bool forward);

/// One retargetable kernel table. All functions tolerate the degenerate
/// sizes the scan produces (top >= 1 for fold, top >= 1 for divide-out,
/// n == 0 for the emission ops).
struct ScanKernel {
  /// The concrete kind this table implements (never kAuto) and its
  /// display name ("scalar" / "avx2", announced by the CLI).
  KernelKind kind;
  const char* name;

  /// Multiplies a Bernoulli factor (success mass q) into a count vector:
  /// writes c[0..top] from base[0..top-1], where
  ///     c[top] = base[top-1] * q
  ///     c[j]   = base[j] * (1-q) + base[j-1] * q    (j = top-1 .. 1)
  ///     c[0]   = base[0] * (1-q)
  /// Alias-safe for c == base (writes descend; every read of an index
  /// happens before any write at or below it).
  void (*fold_factor)(double* c, const double* base, std::size_t top,
                      double q);

  /// Stable divide-out, forward direction (for q <= 1/2): writes
  /// excl[0..top-1] from c[0..top-1] on the reciprocals r = 1/(1-q),
  /// s = q*r (taken once per call) via
  ///     excl[0] = c[0] * r
  ///     excl[j] = max(0, c[j] * r - excl[j-1] * s)
  /// Sequential by construction; identical scalar code in every kernel.
  void (*divide_out_fwd)(double* excl, const double* c, std::size_t top,
                         double q);

  /// Stable divide-out, backward direction (for q > 1/2): writes
  /// excl[0..top-1] from c[1..top] on the reciprocals r = 1/q,
  /// s = (1-q)*r (taken once per call) via the top seed
  ///     excl[top-1] = c[top] * r
  ///     excl[j-1]   = max(0, c[j] * r - excl[j] * s)
  /// Sequential by construction; identical scalar code in every kernel.
  void (*divide_out_bwd)(double* excl, const double* c, std::size_t top,
                         double q);

  /// Runs `n` <= kMaxDivideOutLanes independent started divide-outs
  /// (StartDivideOutLane) to completion, interleaved: one loop body
  /// steps every lane over their common remaining length, so the lanes' loop-carried chains overlap
  /// instead of running back to back; lanes then drop out as they finish
  /// and the rest go on together. Each element sees exactly the ops of
  /// the solo call its lane started from, so every output is bitwise
  /// what divide_out_fwd / divide_out_bwd writes. The lanes' outputs
  /// must not overlap any lane's input; `lanes` is scratch (its contents
  /// are unspecified on return). Identical scalar code in every kernel.
  void (*divide_out_lanes)(DivideOutLane* lanes, std::size_t n);

  /// dst[i] = e * src[i] for i in [0, n). dst and src must not overlap.
  void (*scale)(double* dst, const double* src, std::size_t n, double e);

  /// Element-wise argmax update for the U-kRanks trackers: for each i in
  /// [0, n), when rho[i] > best_prob[i] (strict), set best_prob[i] =
  /// rho[i] and best_index[i] = rank_index.
  void (*update_argmax)(double* best_prob, int32_t* best_index,
                        const double* rho, std::size_t n, int32_t rank_index);

  /// Fused emission segment: dst[i] = e * src[i] for i in [0, n) with
  /// the sequential prefix accumulation p += dst[i] folded in (ascending
  /// index order -- the prefix is part of the arithmetic lineage and
  /// must never re-associate); returns the updated prefix. When
  /// best_prob is non-null, the update_argmax pass over the same window
  /// is folded in as well (best_index, rank_index as above). The scalar
  /// kernel runs everything in ONE sweep -- which is what keeps the
  /// structure-of-arrays scan as fast as the historical fused emission
  /// loop on the scalar path -- while the AVX2 kernel runs a vectorized
  /// scale, the same sequential accumulation, and a vectorized argmax:
  /// different pass structure, identical per-element arithmetic,
  /// bitwise-equal results.
  double (*emit_segment)(double* dst, const double* src, std::size_t n,
                         double e, double p, double* best_prob,
                         int32_t* best_index, int32_t rank_index);
};

/// The shared scalar element ops (defined in kernel.cc; the AVX2 table
/// reuses the divide-out pair verbatim -- see the header note on why
/// the divide-out cannot vectorize bitwise).
void FoldFactorScalar(double* c, const double* base, std::size_t top,
                      double q);
void DivideOutFwdScalar(double* excl, const double* c, std::size_t top,
                        double q);
void DivideOutBwdScalar(double* excl, const double* c, std::size_t top,
                        double q);
void DivideOutLanesScalar(DivideOutLane* lanes, std::size_t n);

/// The portable scalar kernel (always available).
const ScanKernel& ScalarScanKernel();

/// The AVX2 kernel, or null when it cannot run here (not compiled in,
/// or the CPU lacks AVX2). Deliberately IGNORES UCLEAN_DISABLE_AVX2 so
/// equivalence tests can exercise both kernels regardless of the
/// environment; use SelectScanKernel(KernelKind::kAuto) for the
/// production choice.
const ScanKernel* Avx2ScanKernelOrNull();

/// What kAuto resolves to right now (scalar, or AVX2 when supported and
/// not disabled via the environment). Never null.
const ScanKernel& DefaultScanKernel();

/// Defined in kernel_avx2.cc: the raw AVX2 table when that translation
/// unit was compiled with AVX2 support, null otherwise. Internal --
/// callers want Avx2ScanKernelOrNull, which adds the CPU probe.
const ScanKernel* Avx2ScanKernelImpl();

}  // namespace psr_internal

/// True when the AVX2 kernel was compiled into this binary.
bool Avx2CompiledIn();

/// True when the AVX2 kernel is compiled in AND this CPU reports AVX2.
bool Avx2Supported();

/// True when the UCLEAN_DISABLE_AVX2 environment variable is set to a
/// truthy value (anything but "", "0", "off", "OFF", "false"). Read on
/// every call -- never cached -- so tests can toggle it.
bool Avx2Disabled();

/// "auto" / "scalar" / "avx2".
const char* KernelKindName(KernelKind kind);

/// Resolves a KernelKind to a concrete kernel table. kAuto returns the
/// best kernel this host can run (honoring UCLEAN_DISABLE_AVX2);
/// kScalar always succeeds; kAvx2 fails with InvalidArgument when the
/// AVX2 path is unavailable on this host.
Result<const psr_internal::ScanKernel*> SelectScanKernel(KernelKind kind);

}  // namespace uclean

#endif  // UCLEAN_RANK_KERNEL_H_
