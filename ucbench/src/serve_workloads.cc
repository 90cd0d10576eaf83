// serve_hot and serve_clean: a serve::Frontend under a serve::LineServer,
// driven over socketpairs by the one-thread load generator (loadgen.h).
//
// Untraced run (the end-to-end numbers):
//   set-up      SessionPool::Create + Frontend::Create + LineServer with
//               its connections, several times; the last one serves.
//   store       WriteSnapshot of the serving pool, then OpenFromSnapshot
//               several times; the warm pool must re-serialize to the
//               cold pool's exact bytes.
//   closed loop every connection keeps one request in flight: capacity.
//   open loop   seeded Poisson arrivals below capacity on fresh
//               connections: latency from each request's due time.
//               The two loops alternate kSegments times, with a batch
//               of set-up and warm-open timings after each segment.
//   oracles     every reply, PlanRecord tokens stripped, must equal a
//               serial oracle's line: a single-k scan + TP for pristine
//               views (serve_hot), a fresh Frontend over the warm pool
//               fed each client's stream alone (serve_clean).
//
// Traced run (the per-layer numbers): the same request streams driven
// in-process, ParseRequest -> Frontend::ExecuteRound (one head request
// per client, as LineServer forms rounds) -> FormatReply, once untraced
// and once traced. The traced pass re-issues the scans, TP passes,
// hashes and clean stages that ExecuteRound runs internally on a shadow
// pool opened from the same snapshot, and checks that each re-issue
// reproduces the reply it stands for. A one-connection socket round trip
// minus the in-process time of the same requests gives the transport.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clean/agent.h"
#include "clean/session_pool.h"
#include "common/rng.h"
#include "common/strings.h"
#include "loadgen.h"
#include "quality/tp.h"
#include "rank/psr.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "store/snapshot.h"
#include "trace.h"
#include "workload/cleaning_profile_gen.h"
#include "workload/mov.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace ucbench {
namespace {

using uclean::KLadder;
using uclean::ProbabilisticDatabase;
using uclean::PsrOutput;
using uclean::Result;
using uclean::SessionPool;
using uclean::Status;
using uclean::XTupleId;
namespace serve = uclean::serve;

// Set-up and warm-open timings repeat in a batch of this length each (at
// least kMinReps times) after every segment, so their medians sample the
// whole run, and report the median of all repetitions.
constexpr double kBatchSeconds = 0.12;
constexpr int kMinReps = 3;
constexpr double kClosedShare = 0.5;  // of --seconds; the rest is open loop
constexpr int kSegments = 10;         // closed/open rounds per run
// Validity bounds of an open-loop phase: past these the generator, not
// the server, would be what the latencies measure. Both sit well above
// what the stalls of a shared virtual machine cause (lag p99 up to ~5 ms).
constexpr double kMaxLagP99Ms = 20.0;
constexpr size_t kMaxBacklog = 256;

/// What a serve workload sends. Rates are fixed per workload at about a
/// tenth of the closed-loop capacity on one AVX2 core, so the backlog
/// stays flat even while a busy host slows the machine down threefold
/// (at a quarter of capacity, queueing then tripled the tail; at a
/// fifth, serve_clean's open-loop p50 spread twice as wide between runs).
struct ServeSpec {
  const char* name;
  bool cleans;
  std::vector<size_t> ladder;      ///< the pool's warm ladder
  std::vector<size_t> ks;          ///< query ks ...
  std::vector<double> k_weights;   ///< ... and their skewed weights
  double topk_share;               ///< of queries (the rest: quality)
  double clean_share;              ///< of requests
  size_t hot_ranks;                ///< clean targets: owners of top ranks
  double open_rate;                ///< open-loop arrivals, req/s
};

// serve_hot: bench_serve's 2000x5 synthetic; ks skewed toward the warm
// ladder {20, 100} so repeats and ladder hits are common.
const ServeSpec kServeHot{"serve_hot",
                          false,
                          {20, 100},
                          {10, 20, 35, 50, 75, 100},
                          {0.15, 0.30, 0.10, 0.12, 0.08, 0.25},
                          0.7,
                          0.0,
                          0,
                          600.0};

// serve_clean: MOV with a generated cleaning profile; a fifth of the
// requests clean an x-tuple near the top of the ranking, queries mix
// ladder ks with deeper ks off it.
const ServeSpec kServeClean{"serve_clean",
                            true,
                            {20, 100},
                            {20, 100, 150, 300},
                            {0.3, 0.3, 0.2, 0.2},
                            0.7,
                            0.2,
                            3000,
                            250.0};

// The databases are fixed -- bench_serve's synthetic (seed 7), MOV with
// its default seeds -- and --seed draws the traffic, the clean targets'
// order, the arrival times and the probe streams. Databases drawn from
// --seed moved the medians between seeds by more than the bounds allow.
constexpr uint64_t kDataSeed = 7;
constexpr uint64_t kProfileSeed = 99;

struct Inputs {
  uint64_t frontend_seed = 0;  ///< per-client probe streams (Frontend)
  ProbabilisticDatabase db;
  std::optional<uclean::CleaningProfile> profile;
  std::vector<XTupleId> hot;  ///< clean targets, rank order
  KLadder ladder;
};

Result<Inputs> MakeInputs(const ServeSpec& spec, uint64_t seed) {
  Inputs in;
  in.frontend_seed = SubSeed(seed, 4);
  if (spec.cleans) {
    uclean::MovOptions mov;
    mov.seed = kDataSeed;
    Result<ProbabilisticDatabase> db = uclean::GenerateMov(mov);
    if (!db.ok()) return db.status();
    in.db = std::move(db).value();
    uclean::CleaningProfileOptions profile;
    profile.seed = kProfileSeed;
    Result<uclean::CleaningProfile> p =
        uclean::GenerateCleaningProfile(in.db.num_xtuples(), profile);
    if (!p.ok()) return p.status();
    in.profile = std::move(p).value();
    std::vector<char> seen(in.db.num_xtuples(), 0);
    for (size_t i = 0; i < std::min(spec.hot_ranks, in.db.num_tuples()); ++i) {
      const XTupleId x = in.db.tuple(i).xtuple;
      if (!seen[static_cast<size_t>(x)]) {
        seen[static_cast<size_t>(x)] = 1;
        in.hot.push_back(x);
      }
    }
  } else {
    uclean::SyntheticOptions synth;
    synth.num_xtuples = 2000;
    synth.tuples_per_xtuple = 5;
    synth.real_mass_min = 0.6;
    synth.real_mass_max = 1.0;
    synth.seed = kDataSeed;
    Result<ProbabilisticDatabase> db = uclean::GenerateSynthetic(synth);
    if (!db.ok()) return db.status();
    in.db = std::move(db).value();
  }
  Result<KLadder> ladder = KLadder::Of(spec.ladder);
  if (!ladder.ok()) return ladder.status();
  in.ladder = std::move(ladder).value();
  return in;
}

/// One client's request lines: seeded, endless. A cleaning client never
/// cleans the same x-tuple twice; its targets are a seeded permutation
/// of the hot set.
class RequestStream {
 public:
  RequestStream(const ServeSpec& spec, const std::vector<XTupleId>& hot,
                uint64_t seed)
      : spec_(&spec), rng_(seed) {
    if (spec.cleans) {
      targets_ = hot;
      for (size_t i = targets_.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(i) - 1));
        std::swap(targets_[i - 1], targets_[j]);
      }
    }
  }

  std::string Next() {
    if (next_target_ < targets_.size() && rng_.Bernoulli(spec_->clean_share)) {
      return "clean " + std::to_string(targets_[next_target_++]);
    }
    const size_t k = spec_->ks[rng_.Discrete(spec_->k_weights)];
    return (rng_.Bernoulli(spec_->topk_share) ? "topk " : "quality ") +
           std::to_string(k);
  }

 private:
  const ServeSpec* spec_;
  uclean::Rng rng_;
  std::vector<XTupleId> targets_;
  size_t next_target_ = 0;
};

/// Streams for `conns` clients of phase `phase` (0 closed, 1 open,
/// 2 transport probe).
std::vector<RequestStream> MakeStreams(const ServeSpec& spec,
                                       const Inputs& in, uint64_t seed,
                                       int phase, size_t conns) {
  std::vector<RequestStream> streams;
  for (size_t c = 0; c < conns; ++c) {
    streams.emplace_back(spec, in.hot,
                         SubSeed(seed, 100 + 16 * static_cast<uint64_t>(phase) + c));
  }
  return streams;
}

SessionPool::Options PoolOptions(const uclean::ExecOptions& exec) {
  SessionPool::Options options;
  options.exec = exec;
  return options;
}

serve::FrontendOptions FrontendOpts(const Inputs& in) {
  serve::FrontendOptions options;
  options.seed = in.frontend_seed;
  return options;
}

Result<std::unique_ptr<serve::Frontend>> WrapFrontend(
    Result<serve::Frontend> frontend) {
  if (!frontend.ok()) return frontend.status();
  return std::make_unique<serve::Frontend>(std::move(frontend).value());
}

/// A cold serving stack: pool + front-end, ready for connections.
Result<std::unique_ptr<serve::Frontend>> ColdFrontend(
    const Inputs& in, const uclean::ExecOptions& exec) {
  Result<SessionPool> pool = SessionPool::Create(ProbabilisticDatabase(in.db),
                                                 in.ladder, PoolOptions(exec));
  if (!pool.ok()) return pool.status();
  return WrapFrontend(serve::Frontend::Create(std::move(pool).value(),
                                              in.profile, FrontendOpts(in)));
}

/// A LineServer with its socketpair connections.
struct Wired {
  std::unique_ptr<serve::LineServer> server;
  std::vector<int> client_fds;
  std::vector<int> server_fds;  ///< owned by the server once Run starts

  /// Closes every fd; for a stack that never served.
  void CloseAll() {
    for (int fd : client_fds) close(fd);
    for (int fd : server_fds) close(fd);
    client_fds.clear();
    server_fds.clear();
  }
};

Status Wire(serve::Frontend* frontend, size_t conns, Wired* wired) {
  wired->server =
      std::make_unique<serve::LineServer>(frontend, serve::ServerOptions());
  for (size_t c = 0; c < conns; ++c) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      return Status::IOError("socketpair failed");
    }
    wired->client_fds.push_back(sv[0]);
    wired->server_fds.push_back(sv[1]);
    Result<size_t> added = wired->server->AddClient(sv[1], sv[1]);
    if (!added.ok()) return added.status();
  }
  return Status::OK();
}

/// Runs `phase` against a serving thread, then closes the client ends
/// (which also unblocks a server whose phase failed half-way).
PhaseResult Serve(Wired* wired,
                  const std::function<PhaseResult(const std::vector<int>&)>& phase,
                  Status* server_status) {
  std::thread server([&] { *server_status = wired->server->Run(); });
  PhaseResult result = phase(wired->client_fds);
  for (int fd : wired->client_fds) shutdown(fd, SHUT_RDWR);
  server.join();
  for (int fd : wired->client_fds) close(fd);
  wired->client_fds.clear();
  wired->server_fds.clear();  // closed by the server on disconnect
  return result;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The Frontend's top-k reply fields for `psr`, computed independently.
void FillTopk(const ProbabilisticDatabase& db, const PsrOutput& psr,
              serve::Reply* reply) {
  reply->num_nonzero = psr.num_nonzero;
  reply->scan_end = psr.scan_end;
  reply->fingerprint = serve::HashDoubles(psr.topk_prob);
  reply->top_index = -1;
  reply->top_id = -1;
  reply->top_prob = 0.0;
  for (size_t i = 0; i < psr.topk_prob.size(); ++i) {
    if (psr.topk_prob[i] > reply->top_prob) {
      reply->top_prob = psr.topk_prob[i];
      reply->top_index = static_cast<int32_t>(i);
    }
  }
  if (reply->top_index >= 0) {
    reply->top_id = db.tuple(static_cast<size_t>(reply->top_index)).id;
  }
}

/// Oracle for a pristine view: one single-k sequential scan (+ TP).
class PristineOracle {
 public:
  explicit PristineOracle(const ProbabilisticDatabase* db) : db_(db) {}

  std::string Line(const serve::Request& request) {
    const auto key = std::make_pair(static_cast<int>(request.verb), request.k);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    serve::Reply reply;
    reply.verb = request.verb;
    reply.k = request.k;
    Result<uclean::ScanRequest> scan_request = uclean::ScanRequest::ForK(request.k);
    Result<uclean::ScanResult> scan =
        scan_request.ok() ? uclean::ComputePsrLadder(*db_, *scan_request)
                          : Result<uclean::ScanResult>(scan_request.status());
    if (!scan.ok()) {
      reply.status = scan.status();
    } else if (request.verb == serve::Verb::kTopk) {
      FillTopk(*db_, scan->output(), &reply);
    } else {
      Result<uclean::TpOutput> tp = uclean::ComputeTpQuality(*db_, scan->output());
      if (tp.ok()) {
        reply.quality = tp->quality;
      } else {
        reply.status = tp.status();
      }
    }
    return memo_[key] = StripPlanTokens(serve::FormatReply(reply));
  }

 private:
  const ProbabilisticDatabase* db_;
  std::map<std::pair<int, size_t>, std::string> memo_;
};

/// One client's requests and replies, in order.
struct ClientTranscript {
  size_t connect_index = 0;  ///< Frontend connect order (drives its seed)
  const std::vector<std::string>* requests = nullptr;
  const std::vector<std::string>* replies = nullptr;
};

/// Holds every transcript's replies against the serial oracles.
void CheckReplies(const ServeSpec& spec, const Inputs& in,
                  const std::string& snapshot_path,
                  const std::vector<ClientTranscript>& transcripts,
                  Report* report) {
  size_t num_clients = 0;
  for (const ClientTranscript& t : transcripts) {
    num_clients = std::max(num_clients, t.connect_index + 1);
  }
  PristineOracle pristine(&in.db);
  std::unique_ptr<serve::Frontend> dirty_oracle;
  std::vector<serve::Frontend::ClientId> oracle_ids;
  if (spec.cleans) {
    Result<SessionPool> warm = SessionPool::OpenFromSnapshot(snapshot_path);
    if (!warm.ok()) {
      report->Fail("oracle: warm open failed: " + warm.status().ToString());
      return;
    }
    Result<std::unique_ptr<serve::Frontend>> fe = WrapFrontend(
        serve::Frontend::Create(std::move(warm).value(), in.profile, FrontendOpts(in)));
    if (!fe.ok()) {
      report->Fail("oracle: " + fe.status().ToString());
      return;
    }
    dirty_oracle = std::move(fe).value();
    // Same connect order as the served front-end, so every oracle client
    // draws the probe stream its served twin drew.
    for (size_t i = 0; i < num_clients; ++i) {
      oracle_ids.push_back(dirty_oracle->Connect());
    }
  }
  for (const ClientTranscript& t : transcripts) {
    // The oracle's answer to a query repeats until the client's view
    // changes, so repeated queries between two cleans reuse it.
    std::map<std::pair<int, size_t>, std::string> since_clean;
    for (size_t r = 0; r < t.requests->size(); ++r) {
      const std::string& got = (*t.replies)[r];
      ++report->attempted;
      if (got.rfind("ok ", 0) != 0) {
        report->Fail("client " + std::to_string(t.connect_index) + " '" +
                     (*t.requests)[r] + "' -> '" + got + "'");
        continue;
      }
      Result<serve::Request> request = serve::ParseRequest((*t.requests)[r]);
      if (!request.ok()) {
        report->Fail("unparsable request '" + (*t.requests)[r] + "'");
        continue;
      }
      std::string want;
      if (dirty_oracle == nullptr) {
        want = pristine.Line(*request);
      } else if (request->verb == serve::Verb::kClean) {
        since_clean.clear();
        want = StripPlanTokens(serve::FormatReply(
            dirty_oracle->Execute(oracle_ids[t.connect_index], *request)));
      } else {
        const auto key = std::make_pair(static_cast<int>(request->verb), request->k);
        auto it = since_clean.find(key);
        if (it == since_clean.end()) {
          it = since_clean
                   .emplace(key, StripPlanTokens(serve::FormatReply(dirty_oracle->Execute(
                                     oracle_ids[t.connect_index], *request))))
                   .first;
        }
        want = it->second;
      }
      if (StripPlanTokens(got) != want) {
        report->Fail("client " + std::to_string(t.connect_index) + " '" +
                     (*t.requests)[r] + "': got '" + StripPlanTokens(got) +
                     "' want '" + want + "'");
      }
    }
  }
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void AddProvenance(const ServeSpec& spec, const Inputs& in, const Env& env,
                   const RunConfig& config, Report* report) {
  report->Prov("tuples", std::to_string(in.db.num_tuples()));
  report->Prov("xtuples", std::to_string(in.db.num_xtuples()));
  report->Prov("ladder", in.ladder.ToString());
  report->Prov("connections", std::to_string(env.conns));
  report->Prov("threads", "1 generator + 1 server + " +
                              std::to_string(env.serve_pool_threads - 1) +
                              " pool workers (pool width " +
                              std::to_string(env.serve_pool_threads) +
                              "; rounds run inline on the server thread)");
  report->Prov("open_rate_per_s", Fixed(spec.open_rate, 1));
  report->Prov("segments", std::to_string(kSegments));
  report->Prov("closed_seconds", Fixed(config.seconds * kClosedShare, 3));
  report->Prov("open_seconds", Fixed(config.seconds * (1 - kClosedShare), 3));
  report->Prov("clean_share", Fixed(spec.clean_share, 3));
  report->Prov("frontend_seed", std::to_string(in.frontend_seed));
  report->Prov("data_seed", std::to_string(kDataSeed));
}

// ------------------------------------------------------------- untraced

void RunServeE2e(const ServeSpec& spec, const Inputs& in, const Env& env,
                 const uclean::ExecOptions& exec, const RunConfig& config,
                 Report* report) {
  const size_t conns = env.conns;
  const std::string cold_path = config.out_dir + "/" + spec.name + ".snap";
  const std::string warm_path = config.out_dir + "/" + spec.name + ".warm.snap";

  // Set-up, database in hand -> ready to serve: pool, front-end, server
  // and connections. The last stack of the first batch serves.
  std::unique_ptr<serve::Frontend> frontend;
  Wired wired;
  std::vector<double> setup_s;
  auto setup_rep = [&](bool keep, double* seconds) {
    ProbabilisticDatabase copy = in.db;
    const int64_t t0 = NowNs();
    Result<SessionPool> pool =
        SessionPool::Create(std::move(copy), in.ladder, PoolOptions(exec));
    Result<std::unique_ptr<serve::Frontend>> fe =
        pool.ok() ? WrapFrontend(serve::Frontend::Create(std::move(pool).value(),
                                                         in.profile, FrontendOpts(in)))
                  : Result<std::unique_ptr<serve::Frontend>>(pool.status());
    Wired stack_wired;
    const Status wired_ok = fe.ok() ? Wire(fe->get(), conns, &stack_wired) : fe.status();
    *seconds = Seconds(NowNs() - t0);
    if (!wired_ok.ok()) {
      report->Fail("set-up: " + wired_ok.ToString());
      stack_wired.CloseAll();
      return false;
    }
    if (!keep) {
      stack_wired.CloseAll();
      return true;
    }
    wired.CloseAll();
    wired = std::move(stack_wired);
    frontend = std::move(fe).value();
    return true;
  };
  // Warm start: OpenFromSnapshot of the serving pool's snapshot.
  std::vector<double> warm_s;
  auto warm_rep = [&](double* seconds) {
    const int64_t t0 = NowNs();
    Result<SessionPool> warm = SessionPool::OpenFromSnapshot(cold_path, PoolOptions(exec));
    *seconds = Seconds(NowNs() - t0);
    if (!warm.ok()) report->Fail("OpenFromSnapshot: " + warm.status().ToString());
    return warm.ok();
  };
  // One batch of set-up and warm-open timings (kBatchSeconds each).
  auto timing_batch = [&](bool keep) {
    return TimedReps(kBatchSeconds, kMinReps,
                     [&](double* sec) { return setup_rep(keep, sec); }, &setup_s) &&
           TimedReps(kBatchSeconds, kMinReps, warm_rep, &warm_s);
  };

  // Batch 1 also writes the snapshot and checks the warm round trip.
  if (!TimedReps(kBatchSeconds, kMinReps,
                 [&](double* sec) { return setup_rep(true, sec); }, &setup_s)) {
    wired.CloseAll();
    return;
  }
  Status written = uclean::store::WriteSnapshot(frontend->pool(), cold_path);
  if (!written.ok()) {
    report->Fail("WriteSnapshot: " + written.ToString());
    wired.CloseAll();
    return;
  }
  {
    ++report->attempted;
    Result<SessionPool> warm = SessionPool::OpenFromSnapshot(cold_path, PoolOptions(exec));
    if (!warm.ok() || !uclean::store::WriteSnapshot(*warm, warm_path).ok() ||
        ReadFile(warm_path) != ReadFile(cold_path)) {
      report->Fail("warm-opened pool does not re-serialize to the cold bytes");
    }
  }
  if (!TimedReps(kBatchSeconds, kMinReps, warm_rep, &warm_s)) {
    wired.CloseAll();
    return;
  }
  const double snapshot_bytes = static_cast<double>(FileSize(cold_path));

  // Serving: kSegments rounds of a closed-loop phase (capacity) and an
  // open-loop phase (latency), each on fresh connections except the very
  // first, which uses the set-up stack's. Interleaving spreads both
  // measurements over the whole run, and the per-segment medians ride
  // out a stall of the machine that hits one segment.
  const double closed_s = config.seconds * kClosedShare / kSegments;
  const double open_s = config.seconds * (1 - kClosedShare) / kSegments;
  std::vector<PhaseResult> closed;
  std::vector<PhaseResult> open;
  std::vector<ClientTranscript> transcripts;  // in connect order
  Status server_status;
  for (int seg = 0; seg < kSegments; ++seg) {
    for (int kind = 0; kind < 2; ++kind) {
      Wired fresh;
      if (seg > 0 || kind == 1) {
        Status wire = Wire(frontend.get(), conns, &fresh);
        if (!wire.ok()) {
          report->Fail("connect: " + wire.ToString());
          fresh.CloseAll();
          return;
        }
      }
      Wired* stack = seg == 0 && kind == 0 ? &wired : &fresh;
      std::vector<RequestStream> streams = MakeStreams(
          spec, in, config.seed, static_cast<uint64_t>(2 * seg + kind), conns);
      auto next = [&](size_t c) { return streams[c].Next(); };
      PhaseResult phase;
      if (kind == 0) {
        phase = Serve(
            stack,
            [&](const std::vector<int>& fds) {
              return RunClosedLoop(fds, next, closed_s);
            },
            &server_status);
      } else {
        const std::vector<Scheduled> schedule = PoissonSchedule(
            SubSeed(config.seed, 1000 + static_cast<uint64_t>(seg)),
            spec.open_rate, open_s, conns, next);
        phase = Serve(
            stack,
            [&](const std::vector<int>& fds) { return RunOpenLoop(fds, schedule); },
            &server_status);
      }
      if (!phase.ok || !server_status.ok()) {
        report->Fail(std::string(kind == 0 ? "closed" : "open") + " loop: " +
                     phase.error + " " + server_status.ToString());
        return;
      }
      (kind == 0 ? closed : open).push_back(std::move(phase));
    }
    if (!timing_batch(false)) return;
  }

  // Oracles, in the front-end's connect order.
  for (int seg = 0; seg < kSegments; ++seg) {
    for (int kind = 0; kind < 2; ++kind) {
      const PhaseResult& phase = kind == 0 ? closed[seg] : open[seg];
      for (size_t c = 0; c < conns; ++c) {
        transcripts.push_back({transcripts.size(), &phase.conns[c].requests,
                               &phase.conns[c].replies});
      }
    }
  }
  CheckReplies(spec, in, cold_path, transcripts, report);

  // Metrics. The gated latencies come from the closed loop: with every
  // connection busy the serving thread never sleeps, so they follow the
  // program's speed. The open loop's due-time latencies also carry how
  // fast an idle CPU of the host wakes up -- between runs of the same
  // code on a shared host their p50 and p90 moved by up to 40%, the
  // closed loop's by under 10% -- so they are printed, not gated.
  std::vector<double> closed_ms;
  for (const PhaseResult& phase : closed) {
    for (const ConnLog& log : phase.conns) {
      for (const RequestTimes& t : log.times) {
        closed_ms.push_back(static_cast<double>(DueLatency(t)) / 1e6);
      }
    }
  }
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  size_t max_backlog = 0;
  for (const PhaseResult& phase : open) {
    for (const ConnLog& log : phase.conns) {
      for (const RequestTimes& t : log.times) {
        latency_ms.push_back(static_cast<double>(DueLatency(t)) / 1e6);
        lag_ms.push_back(static_cast<double>(GeneratorLag(t)) / 1e6);
      }
    }
    if (phase.backlog_at_end > kMaxBacklog) {
      report->Invalid("open-loop backlog " + std::to_string(phase.backlog_at_end) +
                      " > " + std::to_string(kMaxBacklog));
    }
    max_backlog = std::max(max_backlog, phase.max_backlog);
  }
  std::vector<double> segment_capacity;
  size_t closed_completed = 0;
  for (const PhaseResult& phase : closed) {
    segment_capacity.push_back(static_cast<double>(phase.completed_in_window) / closed_s);
    closed_completed += phase.completed_in_window;
  }
  double closed_p90 = 0.0;
  double closed_p99 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double lag_p50 = 0.0;
  double lag_p99 = 0.0;
  if (!Percentile(closed_ms, 900, &closed_p90) ||
      !Percentile(closed_ms, 990, &closed_p99)) {
    report->Invalid("closed loop has " + std::to_string(closed_ms.size()) + " samples");
  }
  if (!Percentile(latency_ms, 990, &p99) || !Percentile(latency_ms, 900, &p90) ||
      !Percentile(lag_ms, 990, &lag_p99)) {
    report->Invalid("open loop has " + std::to_string(latency_ms.size()) +
                    " samples; p99 needs 1000");
  }
  Percentile(lag_ms, 500, &lag_p50);
  if (lag_p99 > kMaxLagP99Ms) {
    report->Invalid("generator lag p99 " + Fixed(lag_p99, 3) + " ms > " +
                    Fixed(kMaxLagP99Ms, 1) + " ms");
  }

  const size_t n = latency_ms.size();
  report->Add("setup_s", Median(setup_s), "s", setup_s.size());
  report->Add("latency_p50_ms", Median(closed_ms), "ms", closed_ms.size());
  report->Add("latency_p90_ms", closed_p90, "ms", closed_ms.size());
  report->Add("throughput_per_s", Median(segment_capacity), "1/s", closed_completed);
  report->Add("warm_open_s", Median(warm_s), "s", warm_s.size());
  report->Add("snapshot_bytes_per_tuple",
              snapshot_bytes / static_cast<double>(in.db.num_tuples()), "B");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");

  report->Note("latency_p99_ms", closed_p99, "ms", closed_ms.size());
  report->Note("open_latency_p50_ms", Median(latency_ms), "ms", n);
  report->Note("open_latency_p90_ms", p90, "ms", n);
  report->Note("open_latency_p99_ms", p99, "ms", n);
  report->Note("capacity_qps", Median(segment_capacity), "req/s", closed_completed);
  report->Note("generator_lag_p50_ms", lag_p50, "ms", n);
  report->Note("generator_lag_p99_ms", lag_p99, "ms", n);
  report->Note("open_max_backlog", static_cast<double>(max_backlog), "requests");
}

// --------------------------------------------------------------- traced

/// Counters the traced pass fills beside the tracer's spans.
struct LayerCounts {
  size_t queries = 0;
  size_t query_scans = 0;
  size_t shared_replies = 0;  ///< query replies with batch >= 2
  double batch_sum = 0.0;
  std::map<std::string, size_t> plans;  ///< exec= token counts
  double hash_bytes = 0.0;
  size_t hashes = 0;
  double scan_ns = 0.0;
  double scan_depth = 0.0;
  size_t scans = 0;
  double tp_ns = 0.0;
  double tp_positions = 0.0;
  size_t probes = 0;
  size_t probe_successes = 0;
};

/// One in-process client: its front-end id, its shadow session, its
/// probe stream twin and whether its view is dirty.
struct ShadowClient {
  serve::Frontend::ClientId id = 0;
  SessionPool::SessionId session = 0;
  std::unique_ptr<uclean::Rng> rng;
  bool dirty = false;
};

/// Re-issues, on the shadow pool, the hidden work of one executed round
/// and checks that each re-issue reproduces its reply.
class Reissuer {
 public:
  Reissuer(Tracer* tracer, SessionPool* shadow, const Inputs* in,
           const uclean::ExecOptions* exec, LayerCounts* counts,
           Report* report)
      : tracer_(tracer), shadow_(shadow), in_(in), exec_(exec),
        counts_(counts), report_(report) {}

  void Round(uint64_t round_id, size_t round_span,
             const std::vector<serve::Request>& requests,
             const std::vector<std::string>& lines,
             std::vector<ShadowClient*>& clients) {
    // Cleans first, as ExecuteRound runs them before the round's queries.
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].verb == serve::Verb::kClean) {
        Clean(round_id, round_span, requests[i], lines[i], clients[i]);
      }
    }
    // The merged ladder scan, if the round had one.
    std::vector<size_t> ladder_ks;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (IsQuery(requests[i]) && TokenValue(lines[i], "exec") == "ladder") {
        ladder_ks.push_back(requests[i].k);
      }
    }
    std::optional<uclean::ScanResult> merged;
    if (!ladder_ks.empty()) {
      Result<uclean::ScanRequest> req = uclean::ScanRequest::ForLadder(ladder_ks);
      if (req.ok()) {
        req->exec = *exec_;
        merged = Scan(round_id, round_span, *req);
      }
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      if (IsQuery(requests[i])) {
        Query(round_id, round_span, requests[i], lines[i], *clients[i],
              merged.has_value() ? &*merged : nullptr);
      }
    }
  }

 private:
  static bool IsQuery(const serve::Request& r) {
    return r.verb == serve::Verb::kTopk || r.verb == serve::Verb::kQuality;
  }

  void Mismatch(const std::string& what) {
    ++report_->attempted;
    report_->Fail("traced re-issue: " + what);
  }

  std::optional<uclean::ScanResult> Scan(uint64_t round_id, size_t of,
                                         const uclean::ScanRequest& request) {
    const int64_t t0 = NowNs();
    Result<uclean::ScanResult> scan =
        uclean::ComputePsrLadder(shadow_->base(), request);
    const int64_t t1 = NowNs();
    tracer_->AddReissue("rank.scan", round_id, of, t0, t1);
    if (!scan.ok()) {
      Mismatch("scan failed: " + scan.status().ToString());
      return std::nullopt;
    }
    size_t depth = 0;
    for (const PsrOutput& out : scan->outputs) depth = std::max(depth, out.scan_end);
    ++counts_->scans;
    ++counts_->query_scans;
    counts_->scan_ns += static_cast<double>(t1 - t0);
    counts_->scan_depth += static_cast<double>(depth);
    return std::move(scan).value();
  }

  void Query(uint64_t round_id, size_t of, const serve::Request& request,
             const std::string& line, const ShadowClient& client,
             const uclean::ScanResult* merged) {
    ++counts_->queries;
    const std::string exec = TokenValue(line, "exec");
    ++counts_->plans[exec];
    const double batch = std::atof(TokenValue(line, "batch").c_str());
    counts_->batch_sum += batch;
    if (batch >= 2) ++counts_->shared_replies;

    const PsrOutput* psr = nullptr;
    std::optional<uclean::ScanResult> own;
    const size_t rung = in_->ladder.IndexOf(request.k);
    if (exec == "replay") {
      psr = client.dirty ? &shadow_->psr(client.session, rung)
                         : &shadow_->base_psr(rung);
    } else if (exec == "ladder") {
      if (merged == nullptr) return Mismatch("ladder reply without a merged scan");
      psr = &merged->output(IndexOfK(*merged, request.k));
    } else {
      Result<uclean::ScanRequest> req = uclean::ScanRequest::ForK(request.k);
      if (!req.ok()) return Mismatch(req.status().ToString());
      if (exec == "shard") {
        req->exec = *exec_;
      } else {
        req->exec.num_threads = 1;
        req->exec.kernel = exec_->kernel;
      }
      if (client.dirty) req->overlay = &shadow_->overlay(client.session);
      own = Scan(round_id, of, *req);
      if (!own.has_value()) return;
      psr = &own->output();
    }

    if (request.verb == serve::Verb::kTopk) {
      const int64_t t0 = NowNs();
      const uint64_t fp = serve::HashDoubles(psr->topk_prob);
      const int64_t t1 = NowNs();
      tracer_->AddReissue("protocol.hash", round_id, of, t0, t1);
      ++counts_->hashes;
      counts_->hash_bytes += static_cast<double>(psr->topk_prob.size() * sizeof(double));
      ++report_->attempted;
      if (std::strtoull(TokenValue(line, "fp").c_str(), nullptr, 16) != fp) {
        report_->Fail("traced re-issue: fingerprint differs for '" + line + "'");
      }
      return;
    }
    double quality = 0.0;
    if (exec == "replay") {
      quality = client.dirty ? shadow_->quality(client.session, rung)
                             : shadow_->base_tp(rung).quality;
    } else {
      const int64_t t0 = NowNs();
      Result<uclean::TpOutput> tp =
          client.dirty
              ? uclean::ComputeTpQuality(shadow_->overlay(client.session), *psr)
              : uclean::ComputeTpQuality(shadow_->base(), *psr);
      const int64_t t1 = NowNs();
      tracer_->AddReissue("quality.tp", round_id, of, t0, t1);
      if (!tp.ok()) return Mismatch(tp.status().ToString());
      counts_->tp_ns += static_cast<double>(t1 - t0);
      counts_->tp_positions += static_cast<double>(psr->scan_end);
      quality = tp->quality;
    }
    ++report_->attempted;
    if (TokenValue(line, "quality") != uclean::FormatDouble(quality)) {
      report_->Fail("traced re-issue: quality differs for '" + line + "'");
    }
  }

  static size_t IndexOfK(const uclean::ScanResult& scan, size_t k) {
    for (size_t r = 0; r < scan.num_rungs(); ++r) {
      if (scan.output(r).k == k) return r;
    }
    return 0;
  }

  void Clean(uint64_t round_id, size_t of, const serve::Request& request,
             const std::string& line, ShadowClient* client) {
    std::vector<int64_t> probes(in_->db.num_xtuples(), 0);
    probes[static_cast<size_t>(request.xtuple)] = 1;
    int64_t t0 = NowNs();
    Result<uclean::ProbeDraws> draws = uclean::DrawProbes(
        shadow_->overlay(client->session), *in_->profile, probes, client->rng.get());
    int64_t t1 = NowNs();
    tracer_->AddReissue("clean.draw", round_id, of, t0, t1);
    if (!draws.ok()) return Mismatch(draws.status().ToString());
    for (const uclean::ProbeRecord& record : draws->report.log) {
      counts_->probes += static_cast<size_t>(record.attempts);
      counts_->probe_successes += record.success ? 1 : 0;
    }
    if (!draws->outcomes.empty()) {
      t0 = NowNs();
      Status commit = uclean::CommitProbeDraws(shadow_, client->session, *draws);
      t1 = NowNs();
      tracer_->AddReissue("clean.commit", round_id, of, t0, t1);
      if (!commit.ok()) return Mismatch(commit.ToString());
      t0 = NowNs();
      Status refresh = shadow_->Refresh(client->session);
      t1 = NowNs();
      tracer_->AddReissue("clean.refresh", round_id, of, t0, t1);
      if (!refresh.ok()) return Mismatch(refresh.ToString());
      client->dirty = true;
    }
    serve::Reply reply;
    reply.verb = serve::Verb::kClean;
    reply.xtuple = request.xtuple;
    if (!draws->report.log.empty()) {
      reply.success = draws->report.log.front().success;
      reply.resolved_id = draws->report.log.front().resolved_id;
      reply.spent = draws->report.log.front().spent;
    }
    reply.quality = shadow_->quality(client->session, shadow_->num_rungs() - 1);
    const std::string state = client->rng->SaveState();
    reply.rng_fingerprint = serve::Fnv1a64(state.data(), state.size());
    ++report_->attempted;
    if (serve::FormatReply(reply) != line) {
      report_->Fail("traced re-issue: clean differs: '" + line + "' vs '" +
                    serve::FormatReply(reply) + "'");
    }
  }

  Tracer* tracer_;
  SessionPool* shadow_;
  const Inputs* in_;
  const uclean::ExecOptions* exec_;
  LayerCounts* counts_;
  Report* report_;
};

/// Per-client transcripts of an in-process drive.
struct Drive {
  std::vector<std::vector<std::string>> requests;
  std::vector<std::vector<std::string>> replies;
  size_t rounds = 0;
  double wall_s = 0.0;
};

/// Drives `frontend` in-process: each round holds one request per client
/// (ParseRequest -> ExecuteRound -> FormatReply). With `lines` given,
/// replays exactly those rounds; otherwise draws from `streams` until
/// `seconds` pass. With a tracer, records spans and re-issues.
Drive DriveInProcess(serve::Frontend* frontend,
                     const std::vector<serve::Frontend::ClientId>& ids,
                     std::vector<RequestStream>* streams, double seconds,
                     const Drive* lines, Tracer* tracer, Reissuer* reissuer,
                     std::vector<ShadowClient>* shadows, Report* report) {
  const size_t conns = ids.size();
  Drive drive;
  drive.requests.resize(conns);
  drive.replies.resize(conns);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::pair<serve::Frontend::ClientId, serve::Request>> round;
  std::vector<serve::Request> requests;
  std::vector<std::string> reply_lines;
  std::vector<ShadowClient*> round_clients;
  for (size_t r = 0;; ++r) {
    if (lines != nullptr ? r >= lines->rounds : NowNs() >= deadline) break;
    round.clear();
    requests.clear();
    reply_lines.assign(conns, std::string());
    round_clients.clear();
    const size_t round_span =
        tracer != nullptr ? tracer->Begin("serve.round", r) : Tracer::kNone;
    for (size_t c = 0; c < conns; ++c) {
      std::string line =
          lines != nullptr ? lines->requests[c][r] : (*streams)[c].Next();
      const size_t parse_span =
          tracer != nullptr ? tracer->Begin("protocol.parse", r) : Tracer::kNone;
      Result<serve::Request> request = serve::ParseRequest(line);
      if (tracer != nullptr) tracer->End(parse_span);
      if (!request.ok()) {
        report->Fail("unparsable request '" + line + "'");
        return drive;
      }
      round.emplace_back(ids[c], *request);
      requests.push_back(*request);
      drive.requests[c].push_back(std::move(line));
      if (shadows != nullptr) round_clients.push_back(&(*shadows)[c]);
    }
    std::vector<serve::Reply> replies;
    size_t frontend_span = Tracer::kNone;
    {
      ScopedSpan span(tracer, "frontend.round", r);
      frontend_span = span.id();
      replies = frontend->ExecuteRound(round);
    }
    for (size_t c = 0; c < conns; ++c) {
      ScopedSpan span(tracer, "protocol.format", r);
      reply_lines[c] = serve::FormatReply(replies[c]);
    }
    if (tracer != nullptr) tracer->End(round_span);
    if (reissuer != nullptr) {
      reissuer->Round(r, frontend_span, requests, reply_lines, round_clients);
    }
    for (size_t c = 0; c < conns; ++c) {
      drive.replies[c].push_back(std::move(reply_lines[c]));
    }
    ++drive.rounds;
  }
  drive.wall_s = Seconds(NowNs() - start);
  return drive;
}

void RunServeTraced(const ServeSpec& spec, const Inputs& in, const Env& env,
                    const uclean::ExecOptions& exec, const RunConfig& config,
                    Report* report) {
  const size_t conns = env.conns;
  Tracer tracer;
  LayerCounts counts;
  const std::string cold_path = config.out_dir + "/" + spec.name + ".snap";

  // Set-up, traced: the pool create with its hidden ladder scan + TP
  // re-issued, the front-end, the connections, the store.
  std::vector<double> create_s;
  std::vector<double> setup_scan_s;
  std::vector<double> write_s;
  std::vector<double> open_s;
  std::unique_ptr<serve::Frontend> traced_fe;
  std::vector<serve::Frontend::ClientId> traced_ids;
  for (int rep = 0; rep < 3; ++rep) {
    ProbabilisticDatabase copy = in.db;
    Result<SessionPool> pool = Result<SessionPool>(Status::Internal("unset"));
    size_t create_span;
    {
      ScopedSpan span(&tracer, "clean.pool_create", rep);
      create_span = span.id();
      pool = SessionPool::Create(std::move(copy), in.ladder,
                                 PoolOptions(exec));
    }
    if (!pool.ok()) return report->Fail(pool.status().ToString());
    create_s.push_back(tracer.SpanNs(create_span) / 1e9);
    {
      uclean::ScanRequest request;
      request.ladder = in.ladder;
      request.exec = pool->exec();
      const int64_t t0 = NowNs();
      Result<uclean::ScanResult> scan = uclean::ComputePsrLadder(in.db, request);
      const int64_t t1 = NowNs();
      if (!scan.ok()) return report->Fail(scan.status().ToString());
      Result<std::vector<uclean::TpOutput>> tp =
          uclean::ComputeTpQualityLadder(in.db, scan->outputs, pool->exec());
      const int64_t t2 = NowNs();
      if (!tp.ok()) return report->Fail(tp.status().ToString());
      tracer.AddReissue("rank.scan", rep, create_span, t0, t1);
      tracer.AddReissue("quality.tp", rep, create_span, t1, t2);
      setup_scan_s.push_back(Seconds(t2 - t0));
      size_t depth = 0;
      for (const PsrOutput& out : scan->outputs) depth = std::max(depth, out.scan_end);
      ++counts.scans;
      counts.scan_ns += static_cast<double>(t1 - t0);
      counts.scan_depth += static_cast<double>(depth);
      counts.tp_ns += static_cast<double>(t2 - t1);
      counts.tp_positions += static_cast<double>(depth);
    }
    Result<std::unique_ptr<serve::Frontend>> fe = Result<std::unique_ptr<serve::Frontend>>(Status::Internal("unset"));
    {
      ScopedSpan span(&tracer, "frontend.create", rep);
      fe = WrapFrontend(serve::Frontend::Create(std::move(pool).value(),
                                                in.profile, FrontendOpts(in)));
    }
    if (!fe.ok()) return report->Fail(fe.status().ToString());
    traced_fe = std::move(fe).value();
    traced_ids.clear();
    for (size_t c = 0; c < conns; ++c) {
      ScopedSpan span(&tracer, "frontend.connect", rep);
      traced_ids.push_back(traced_fe->Connect());
    }
    {
      ScopedSpan span(&tracer, "store.write", rep);
      Status written = uclean::store::WriteSnapshot(traced_fe->pool(), cold_path);
      if (!written.ok()) return report->Fail(written.ToString());
      write_s.push_back(Seconds(NowNs() - tracer.spans()[span.id()].begin));
    }
    {
      ScopedSpan span(&tracer, "store.open", rep);
      Result<SessionPool> warm = SessionPool::OpenFromSnapshot(
          cold_path, PoolOptions(exec));
      if (!warm.ok()) return report->Fail(warm.status().ToString());
      open_s.push_back(Seconds(NowNs() - tracer.spans()[span.id()].begin));
    }
  }
  const double snapshot_mb = static_cast<double>(FileSize(cold_path)) / 1e6;

  // Untraced in-process pass: fixes the rounds both passes run.
  Result<std::unique_ptr<serve::Frontend>> untraced_fe =
      ColdFrontend(in, exec);
  if (!untraced_fe.ok()) return report->Fail(untraced_fe.status().ToString());
  std::vector<serve::Frontend::ClientId> untraced_ids;
  for (size_t c = 0; c < conns; ++c) untraced_ids.push_back((*untraced_fe)->Connect());
  std::vector<RequestStream> streams = MakeStreams(spec, in, config.seed, 0, conns);
  const Drive untraced =
      DriveInProcess(untraced_fe->get(), untraced_ids, &streams,
                     config.seconds * 0.3, nullptr, nullptr, nullptr, nullptr, report);

  // Traced pass over the same rounds, with re-issues on a shadow pool
  // that shares the front-end's executor.
  SessionPool::Options shadow_options;
  shadow_options.exec = traced_fe->pool().exec();
  Result<SessionPool> shadow = SessionPool::OpenFromSnapshot(cold_path, shadow_options);
  if (!shadow.ok()) return report->Fail(shadow.status().ToString());
  std::vector<ShadowClient> shadows(conns);
  for (size_t c = 0; c < conns; ++c) {
    shadows[c].id = traced_ids[c];
    shadows[c].session = shadow->OpenSession();
    shadows[c].rng = std::make_unique<uclean::Rng>(
        serve::Frontend::ClientSeed(in.frontend_seed, c));
  }
  Reissuer reissuer(&tracer, &*shadow, &in, &traced_fe->pool().exec(), &counts,
                    report);
  const size_t first_drive_span = tracer.spans().size();
  const Drive traced =
      DriveInProcess(traced_fe.get(), traced_ids, nullptr, 0.0, &untraced,
                     &tracer, &reissuer, &shadows, report);
  const size_t last_drive_span = tracer.spans().size();
  ++report->attempted;
  if (traced.replies != untraced.replies) {
    report->Fail("traced and untraced in-process replies differ");
  }

  // Oracles over the untraced pass.
  std::vector<ClientTranscript> transcripts;
  for (size_t c = 0; c < conns; ++c) {
    transcripts.push_back({c, &untraced.requests[c], &untraced.replies[c]});
  }
  CheckReplies(spec, in, cold_path, transcripts, report);

  // Transport: one connection, one request in flight, queries only;
  // then the same requests in-process on the same front-end.
  ServeSpec query_only = spec;
  query_only.cleans = false;
  Result<std::unique_ptr<serve::Frontend>> probe_fe =
      ColdFrontend(in, exec);
  if (!probe_fe.ok()) return report->Fail(probe_fe.status().ToString());
  Wired wired;
  Status wire = Wire(probe_fe->get(), 1, &wired);
  if (!wire.ok()) {
    wired.CloseAll();
    return report->Fail(wire.ToString());
  }
  std::vector<RequestStream> probe_streams =
      MakeStreams(query_only, in, config.seed, 2, 1);
  Status server_status;
  PhaseResult socket_pass = Serve(
      &wired,
      [&](const std::vector<int>& fds) {
        return RunClosedLoop(
            fds, [&](size_t c) { return probe_streams[c].Next(); },
            config.seconds * 0.1);
      },
      &server_status);
  if (!socket_pass.ok || !server_status.ok()) {
    return report->Fail("transport probe: " + socket_pass.error);
  }
  std::vector<double> rtt_ns;
  for (const RequestTimes& t : socket_pass.conns[0].times) {
    rtt_ns.push_back(static_cast<double>(t.received - t.sent));
  }
  const serve::Frontend::ClientId probe_id = (*probe_fe)->Connect();
  std::vector<double> inproc_ns;
  for (const std::string& line : socket_pass.conns[0].requests) {
    const int64_t t0 = NowNs();
    Result<serve::Request> request = serve::ParseRequest(line);
    if (!request.ok()) return report->Fail("unparsable '" + line + "'");
    std::vector<serve::Reply> replies =
        (*probe_fe)->ExecuteRound({{probe_id, *request}});
    const std::string formatted = serve::FormatReply(replies.front());
    inproc_ns.push_back(static_cast<double>(NowNs() - t0));
    if (formatted.empty()) report->Fail("empty reply");
  }

  // Per-layer metrics.
  const std::map<std::string, Tracer::LayerRow> table = tracer.LayerTable();
  auto mean_ns = [&](const std::string& name) {
    auto it = table.find(name);
    return it == table.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count);
  };
  double round_self_ns = 0.0;
  size_t rounds = 0;
  for (size_t id = first_drive_span; id < last_drive_span; ++id) {
    if (tracer.spans()[id].name == "frontend.round") {
      round_self_ns += static_cast<double>(tracer.SelfNs(id));
      ++rounds;
    }
  }
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const double queries = static_cast<double>(counts.queries);
  report->Add("protocol.hash_ns", mean_ns("protocol.hash"), "ns", counts.hashes);
  report->Add("protocol.hash_bytes", per(counts.hash_bytes, counts.hashes), "B");
  report->Add("protocol.parse_ns", mean_ns("protocol.parse"), "ns");
  report->Add("protocol.format_ns", mean_ns("protocol.format"), "ns");
  report->Add("server.transport_us", (Median(rtt_ns) - Median(inproc_ns)) / 1e3,
              "us", rtt_ns.size());
  report->Add("frontend.round_us", mean_ns("frontend.round") / 1e3, "us", rounds);
  report->Add("frontend.self_us", per(round_self_ns, rounds) / 1e3, "us", rounds);
  for (const char* plan : {"seq", "shard", "ladder", "replay"}) {
    report->Add(std::string("frontend.plan.") + plan,
                static_cast<double>(counts.plans[plan]), "count");
  }
  report->Add("frontend.batch_size", per(counts.batch_sum, queries), "count");
  report->Add("frontend.shared_share",
              per(static_cast<double>(counts.shared_replies), queries), "ratio");
  report->Add("rank.scans_per_query",
              per(static_cast<double>(counts.query_scans), queries), "ratio");
  report->Add("rank.scan_us", per(counts.scan_ns, counts.scans) / 1e3, "us",
              counts.scans);
  report->Add("rank.scan_depth", per(counts.scan_depth, counts.scans), "count");
  report->Add("rank.scan_ns_per_tuple", per(counts.scan_ns, counts.scan_depth), "ns");
  report->Add("quality.tp_us", mean_ns("quality.tp") / 1e3, "us");
  report->Add("quality.tp_ns_per_tuple", per(counts.tp_ns, counts.tp_positions), "ns");
  report->Add("clean.pool_create_s", Median(create_s), "s", create_s.size());
  report->Add("clean.setup_scan_s", Median(setup_scan_s), "s", setup_scan_s.size());
  report->Add("clean.refresh_us", mean_ns("clean.refresh") / 1e3, "us");
  report->Add("clean.draw_us", mean_ns("clean.draw") / 1e3, "us");
  report->Add("clean.commit_us", mean_ns("clean.commit") / 1e3, "us");
  report->Add("clean.probes", static_cast<double>(counts.probes), "count");
  report->Add("clean.probe_success_share",
              per(static_cast<double>(counts.probe_successes),
                  static_cast<double>(counts.probes)),
              "ratio");
  report->Add("store.write_ms", Median(write_s) * 1e3, "ms", write_s.size());
  report->Add("store.write_mb_s", snapshot_mb / Median(write_s), "MB/s");
  report->Add("store.open_ms", Median(open_s) * 1e3, "ms", open_s.size());
  report->Add("store.open_mb_s", snapshot_mb / Median(open_s), "MB/s");
  // Overhead of the spans themselves: the traced pass minus the work it
  // re-issued, against the untraced pass over the same rounds.
  double reissue_s = 0.0;
  for (size_t id = first_drive_span; id < last_drive_span; ++id) {
    if (tracer.spans()[id].reissue_of != Tracer::kNone) reissue_s += tracer.SpanNs(id) / 1e9;
  }
  report->Add("trace.overhead_share",
              per(traced.wall_s - reissue_s - untraced.wall_s, untraced.wall_s), "ratio");
  report->Note("trace.reissue_share", per(reissue_s, untraced.wall_s), "ratio");

  report->Note("trace.untraced_round_us", per(untraced.wall_s * 1e6, untraced.rounds),
               "us", untraced.rounds);
  report->Note("trace.traced_round_us", per(traced.wall_s * 1e6, traced.rounds),
               "us", traced.rounds);
  report->Note("server.rtt_us", Median(rtt_ns) / 1e3, "us", rtt_ns.size());
  report->Note("server.inprocess_us", Median(inproc_ns) / 1e3, "us", inproc_ns.size());

  const std::string trace_path = config.out_dir + "/trace-" + spec.name + ".json";
  if (!tracer.WriteChromeTrace(trace_path)) {
    report->Fail("could not write " + trace_path);
  }
  report->Prov("trace_file", trace_path);
  report->Prov("spans", std::to_string(tracer.spans().size()));
  std::printf("# per-layer self time (traced run; * = derived: re-issued "
              "children subtracted)\n");
  std::printf("%-22s %8s %12s %12s %10s\n", "span", "count", "total_ms",
              "self_ms", "self_us/op");
  for (const auto& [name, row] : table) {
    std::printf("%-22s %8zu %12.3f %12.3f %10.3f%s\n", name.c_str(), row.count,
                row.total_ns / 1e6, row.self_ns / 1e6,
                row.self_ns / 1e3 / static_cast<double>(row.count),
                row.derived ? " *" : "");
  }
}

}  // namespace

Report RunServe(const RunConfig& config, const Env& env) {
  const ServeSpec& spec = config.workload == "serve_hot" ? kServeHot : kServeClean;
  Report report;
  Result<Inputs> in = MakeInputs(spec, config.seed);
  if (!in.ok()) {
    report.Fail("inputs: " + in.status().ToString());
    return report;
  }
  AddProvenance(spec, *in, env, config, &report);
  // One executor for every pool of the run, so the thread budget holds
  // however many pools are alive.
  const uclean::ExecOptions exec = SharedExec(env.serve_pool_threads);
  if (config.trace) {
    RunServeTraced(spec, *in, env, exec, config, &report);
  } else {
    RunServeE2e(spec, *in, env, exec, config, &report);
  }
  return report;
}

}  // namespace ucbench
