// Shared helpers for the figure-regeneration harnesses: repetition-median
// timing, uniform series printing (so every bench emits the same
// machine-readable table format), and the one-session pool that stands
// for a dedicated cleaning session.

#ifndef UCLEAN_BENCH_BENCH_UTIL_H_
#define UCLEAN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "clean/session_pool.h"
#include "common/stopwatch.h"
#include "model/database.h"
#include "rank/kernel.h"
#include "rank/psr.h"

namespace uclean {
namespace bench {

/// The concrete scan kernel KernelKind::kAuto resolves to on this
/// machine/build ("scalar" or "avx2") -- provenance every bench records
/// in its JSON, because throughput numbers are meaningless without the
/// kernel that produced them (tools/check_bench.py requires the field).
inline const char* ResolvedKernelName() {
  Result<const psr_internal::ScanKernel*> kernel =
      SelectScanKernel(KernelKind::kAuto);
  return kernel.ok() ? (*kernel)->name : "scalar";
}

/// True when `a` and `b` are the same double bit for bit -- the arms of
/// an equivalence check run the same arithmetic, so any difference, even
/// -0.0 against +0.0, is a bug (tools/check_bench.py gates on 0.0).
inline bool SameBits(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

/// A dedicated cleaning session: a pool of its own holding one session,
/// paying the full scan, checkpoint set and TP pass at Create.
struct OneSessionPool {
  SessionPool pool;
  SessionPool::SessionId id = 0;
};

/// Moves `db` (pass a copy to keep the original) into a fresh
/// one-session pool serving `ladder`.
inline Result<OneSessionPool> OpenOneSessionPool(ProbabilisticDatabase db,
                                                 const KLadder& ladder) {
  Result<SessionPool> pool = SessionPool::Create(std::move(db), ladder);
  if (!pool.ok()) return pool.status();
  OneSessionPool out{std::move(pool).value()};
  out.id = out.pool.OpenSession();
  return out;
}

/// Single-k scan through the request API (rank/psr.h).
inline Result<PsrOutput> ScanPsr(const ProbabilisticDatabase& db, size_t k,
                                 const PsrOptions& options = {}) {
  Result<ScanRequest> request = ScanRequest::ForK(k, options);
  if (!request.ok()) return request.status();
  Result<ScanResult> scan = ComputePsrLadder(db, *request);
  if (!scan.ok()) return scan.status();
  return std::move(scan->outputs[0]);
}

/// Ladder scan through the request API, unwrapped to the per-rung vector.
inline Result<std::vector<PsrOutput>> ScanPsrLadder(
    const ProbabilisticDatabase& db, const KLadder& ladder,
    const PsrOptions& options = {}, const ExecOptions& exec = {}) {
  ScanRequest request;
  request.ladder = ladder;
  request.psr = options;
  request.exec = exec;
  Result<ScanResult> scan = ComputePsrLadder(db, request);
  if (!scan.ok()) return scan.status();
  return std::move(scan->outputs);
}

/// Median wall-clock milliseconds of `fn` over `reps` runs (after one
/// untimed warm-up when cheap enough to afford it).
inline double MedianMillis(const std::function<void()>& fn, int reps = 3) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    samples.push_back(timer.ElapsedMillis());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Prints a figure banner: "# Figure 4(a): ...".
inline void Banner(const std::string& figure, const std::string& caption) {
  std::printf("\n# %s: %s\n", figure.c_str(), caption.c_str());
}

/// Prints a CSV header row.
inline void Header(const std::string& columns) {
  std::printf("%s\n", columns.c_str());
}

}  // namespace bench
}  // namespace uclean

#endif  // UCLEAN_BENCH_BENCH_UTIL_H_
