// The load generator: ONE thread multiplexing every client connection
// with ppoll(2). Each connection is the client end of a socketpair whose
// other end a serve::LineServer owns.
//
//  * Closed loop: every connection keeps exactly one request in flight
//    until the phase deadline; completed requests per second is the
//    server's capacity.
//  * Open loop: requests go out on a precomputed schedule whatever the
//    server does; each is timed from its DUE time, so generator lag and
//    server stalls are charged to the requests they delay.
//
// After the phase each connection is half-closed and read to EOF, which
// lets LineServer::Run drain and return.

#ifndef UCBENCH_LOADGEN_H_
#define UCBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats.h"

namespace ucbench {

/// Everything one connection sent and received, in order.
struct ConnLog {
  std::vector<std::string> requests;  ///< without the newline
  std::vector<std::string> replies;   ///< without the newline
  std::vector<RequestTimes> times;    ///< per request, ns
};

struct PhaseResult {
  bool ok = false;
  std::string error;
  std::vector<ConnLog> conns;
  int64_t start_ns = 0;
  int64_t end_ns = 0;          ///< deadline (closed) / last due time (open)
  size_t completed_in_window = 0;  ///< replies received by end_ns
  size_t backlog_at_end = 0;   ///< requests unanswered at end_ns
  size_t max_backlog = 0;      ///< most requests unanswered at any send
};

/// Closed loop for `seconds`: `next(conn)` yields the next request line
/// of connection `conn`.
PhaseResult RunClosedLoop(const std::vector<int>& fds,
                          const std::function<std::string(size_t)>& next,
                          double seconds);

struct Scheduled {
  int64_t due_ns = 0;  ///< offset from the phase start
  size_t conn = 0;
  std::string line;
};

/// Open loop over `schedule` (ascending due_ns).
PhaseResult RunOpenLoop(const std::vector<int>& fds,
                        const std::vector<Scheduled>& schedule);

/// Seeded Poisson arrivals at `rate_per_s` for `seconds`, spread over
/// `conns` connections uniformly at random; `next(conn)` makes each
/// request line, in schedule order.
std::vector<Scheduled> PoissonSchedule(
    uint64_t seed, double rate_per_s, double seconds, size_t conns,
    const std::function<std::string(size_t)>& next);

}  // namespace ucbench

#endif  // UCBENCH_LOADGEN_H_
