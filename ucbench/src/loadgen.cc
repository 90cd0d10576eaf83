#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <utility>

#include "common/rng.h"
#include "trace.h"

namespace ucbench {
namespace {

/// How long a phase waits for outstanding replies before giving up.
constexpr int64_t kReplyTimeoutNs = 60LL * 1000 * 1000 * 1000;

/// Per-connection client state inside one phase.
struct Client {
  int fd = -1;
  std::string outbox;          ///< bytes not yet accepted by the socket
  std::string inbox;           ///< bytes of an unfinished reply line
  std::deque<size_t> waiting;  ///< indices into log.times awaiting replies
  /// Requests whose bytes are still (partly) in the outbox, with the
  /// stream offset just past each one's newline.
  std::deque<std::pair<size_t, uint64_t>> unsent;
  uint64_t queued_bytes = 0;   ///< bytes ever appended to the outbox
  uint64_t written_bytes = 0;  ///< bytes ever accepted by the socket
  bool eof = false;
};

class Generator {
 public:
  explicit Generator(const std::vector<int>& fds) {
    // Sleep to within a microsecond of a due time instead of the default
    // 50 us timer slack, which would show up as generator lag. (A
    // generator that spins instead of sleeping held CPUs the server's
    // woken threads then queued behind: ~7 ms p99 stalls.)
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    result_.conns.resize(fds.size());
    clients_.resize(fds.size());
    for (size_t c = 0; c < fds.size(); ++c) {
      clients_[c].fd = fds[c];
      const int flags = fcntl(fds[c], F_GETFL, 0);
      fcntl(fds[c], F_SETFL, flags | O_NONBLOCK);
    }
  }

  /// Queues one request on `conn`, due at `due` (absolute ns).
  void Send(size_t conn, std::string line, int64_t due) {
    ConnLog& log = result_.conns[conn];
    Client& client = clients_[conn];
    client.outbox += line;
    client.outbox += '\n';
    client.queued_bytes += line.size() + 1;
    log.requests.push_back(std::move(line));
    log.replies.emplace_back();
    RequestTimes t;
    t.due = due;
    log.times.push_back(t);
    client.unsent.emplace_back(log.times.size() - 1, client.queued_bytes);
    client.waiting.push_back(log.times.size() - 1);
    ++outstanding_;
    if (outstanding_ > result_.max_backlog) result_.max_backlog = outstanding_;
    Flush(conn);
  }

  /// Waits up to `timeout_ns` for replies (and write space); appends one
  /// entry to `answered` per reply received, naming its connection.
  bool Poll(int64_t timeout_ns, std::vector<size_t>* answered) {
    answered->clear();
    std::vector<pollfd> fds;
    std::vector<size_t> which;
    for (size_t c = 0; c < clients_.size(); ++c) {
      if (clients_[c].eof) continue;
      short events = POLLIN;
      if (!clients_[c].outbox.empty()) events |= POLLOUT;
      fds.push_back(pollfd{clients_[c].fd, events, 0});
      which.push_back(c);
    }
    if (fds.empty()) return true;
    if (timeout_ns < 0) timeout_ns = 0;
    const timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                      static_cast<long>(timeout_ns % 1000000000)};
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) return true;
      return Fail(std::string("ppoll: ") + std::strerror(errno));
    }
    for (size_t j = 0; j < fds.size() && ready > 0; ++j) {
      const size_t c = which[j];
      if (fds[j].revents & POLLOUT) Flush(c);
      if ((fds[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!Read(c, answered)) return false;
    }
    return true;
  }

  /// Half-closes every connection and reads each to EOF.
  bool Finish() {
    const int64_t give_up = NowNs() + kReplyTimeoutNs;
    bool all_flushed = false;
    while (!all_flushed) {
      all_flushed = true;
      for (size_t c = 0; c < clients_.size(); ++c) {
        Flush(c);
        if (!clients_[c].outbox.empty()) all_flushed = false;
      }
      std::vector<size_t> answered;
      if (!all_flushed && !Poll(1000000, &answered)) return false;
      if (NowNs() > give_up) return Fail("timed out flushing requests");
    }
    for (Client& client : clients_) shutdown(client.fd, SHUT_WR);
    std::vector<size_t> answered;
    while (true) {
      bool all_eof = true;
      for (const Client& client : clients_) all_eof = all_eof && client.eof;
      if (all_eof) break;
      if (NowNs() > give_up) return Fail("timed out draining replies");
      if (!Poll(100000000, &answered)) return false;
    }
    if (outstanding_ != 0) {
      return Fail(std::to_string(outstanding_) + " requests got no reply");
    }
    return true;
  }

  size_t outstanding() const { return outstanding_; }
  size_t waiting(size_t conn) const { return clients_[conn].waiting.size(); }
  PhaseResult& result() { return result_; }

  bool Fail(const std::string& error) {
    if (result_.error.empty()) result_.error = error;
    return false;
  }

 private:
  void Flush(size_t conn) {
    Client& client = clients_[conn];
    while (!client.outbox.empty()) {
      const ssize_t n = write(client.fd, client.outbox.data(),
                              client.outbox.size());
      if (n <= 0) break;  // EAGAIN: wait for POLLOUT
      client.outbox.erase(0, static_cast<size_t>(n));
      client.written_bytes += static_cast<uint64_t>(n);
    }
    // A request counts as sent once its last byte left.
    const int64_t now = NowNs();
    ConnLog& log = result_.conns[conn];
    while (!client.unsent.empty() &&
           client.unsent.front().second <= client.written_bytes) {
      log.times[client.unsent.front().first].sent = now;
      client.unsent.pop_front();
    }
  }

  bool Read(size_t conn, std::vector<size_t>* answered) {
    Client& client = clients_[conn];
    char chunk[8192];
    while (true) {
      const ssize_t n = read(client.fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return Fail(std::string("read: ") + std::strerror(errno));
      }
      if (n == 0) {
        client.eof = true;
        break;
      }
      const int64_t now = NowNs();
      client.inbox.append(chunk, static_cast<size_t>(n));
      size_t begin = 0;
      while (true) {
        const size_t newline = client.inbox.find('\n', begin);
        if (newline == std::string::npos) break;
        if (client.waiting.empty()) {
          return Fail("reply without a request on connection " +
                      std::to_string(conn));
        }
        const size_t idx = client.waiting.front();
        client.waiting.pop_front();
        ConnLog& log = result_.conns[conn];
        log.replies[idx] = client.inbox.substr(begin, newline - begin);
        log.times[idx].received = now;
        --outstanding_;
        answered->push_back(conn);
        begin = newline + 1;
      }
      client.inbox.erase(0, begin);
    }
    return true;
  }

  PhaseResult result_;
  std::vector<Client> clients_;
  size_t outstanding_ = 0;
};

}  // namespace

PhaseResult RunClosedLoop(const std::vector<int>& fds,
                          const std::function<std::string(size_t)>& next,
                          double seconds) {
  Generator gen(fds);
  PhaseResult& result = gen.result();
  result.start_ns = NowNs();
  result.end_ns = result.start_ns + static_cast<int64_t>(seconds * 1e9);
  for (size_t c = 0; c < fds.size(); ++c) gen.Send(c, next(c), NowNs());
  std::vector<size_t> answered;
  const int64_t give_up = result.end_ns + kReplyTimeoutNs;
  while (gen.outstanding() > 0) {
    const int64_t now = NowNs();
    if (now > give_up) {
      gen.Fail("closed loop: replies stopped");
      break;
    }
    if (!gen.Poll(100000000, &answered)) break;
    const int64_t after = NowNs();
    for (size_t c : answered) {
      // One request in flight per connection: the next goes out as soon
      // as the previous reply is in, until the deadline.
      if (after < result.end_ns && gen.waiting(c) == 0) {
        gen.Send(c, next(c), after);
      }
    }
  }
  result.ok = result.error.empty() && gen.Finish();
  for (const ConnLog& log : result.conns) {
    for (const RequestTimes& t : log.times) {
      if (t.received <= result.end_ns) ++result.completed_in_window;
    }
  }
  return std::move(result);
}

PhaseResult RunOpenLoop(const std::vector<int>& fds,
                        const std::vector<Scheduled>& schedule) {
  Generator gen(fds);
  PhaseResult& result = gen.result();
  // A short lead so the first due time is not already in the past.
  result.start_ns = NowNs() + 2000000;
  result.end_ns = result.start_ns +
                  (schedule.empty() ? 0 : schedule.back().due_ns);
  size_t i = 0;
  std::vector<size_t> answered;
  const int64_t give_up = result.end_ns + kReplyTimeoutNs;
  while (i < schedule.size() || gen.outstanding() > 0) {
    const int64_t now = NowNs();
    if (now > give_up) {
      gen.Fail("open loop: replies stopped");
      break;
    }
    while (i < schedule.size() && result.start_ns + schedule[i].due_ns <= now) {
      gen.Send(schedule[i].conn, schedule[i].line,
               result.start_ns + schedule[i].due_ns);
      ++i;
      if (i == schedule.size()) result.backlog_at_end = gen.outstanding();
    }
    const int64_t wait =
        i < schedule.size()
            ? result.start_ns + schedule[i].due_ns - NowNs()
            : 100000000;
    if (!gen.Poll(wait, &answered)) break;
  }
  result.ok = result.error.empty() && gen.Finish();
  for (const ConnLog& log : result.conns) {
    for (const RequestTimes& t : log.times) {
      if (t.received <= result.end_ns) ++result.completed_in_window;
    }
  }
  return std::move(result);
}

std::vector<Scheduled> PoissonSchedule(
    uint64_t seed, double rate_per_s, double seconds, size_t conns,
    const std::function<std::string(size_t)>& next) {
  uclean::Rng rng(seed);
  std::vector<Scheduled> schedule;
  const double mean_gap_ns = 1e9 / rate_per_s;
  double at = 0.0;
  while (true) {
    // Exponential inter-arrival by inverse transform.
    at += -mean_gap_ns * std::log(1.0 - rng.UniformUnit());
    if (at > seconds * 1e9) break;
    Scheduled s;
    s.due_ns = static_cast<int64_t>(at);
    s.conn = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(conns) - 1));
    s.line = next(s.conn);
    schedule.push_back(std::move(s));
  }
  return schedule;
}

}  // namespace ucbench
