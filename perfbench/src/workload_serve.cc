// serve_100k: a 100K x 64 target table written as a shard file and served by
// serve::AlignServer with the ann_ivf source align-serve uses by default.
// The load is one-row, k=10 topk requests sent through Serve on a pipe pair
// from this process:
//  * batch passes: a fixed sample of 1000 planted queries written back to
//    back (a client pipelining lookups), repeated for --seconds; the wall
//    time of one pass is run_s, and the answers are checked against an exact
//    scan (recall@10);
//  * open loop at one fixed rate (lookups are independent users), latency
//    timed from when each request was due;
//  * open loop up a geometric rate ladder (8% steps) until three rungs in a
//    row miss the p99 limit.
// Serve does the bulk scans of rank_eval in many 1-row micro-batches, plus
// JSON parsing and serialization; no other workload measures this layer.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/checks.h"
#include "src/align/topk.h"
#include "src/common/json.h"
#include "src/common/parallel.h"
#include "src/math/sharded_table.h"
#include "src/serve/server.h"

namespace perfbench {

namespace {

constexpr size_t kTargets = 100000;
constexpr int kSetupRepeats = 3;
constexpr size_t kDim = 64;
constexpr size_t kK = 10;
constexpr size_t kQueries = 1000;  // Batch-pass sample, checked exactly.
constexpr double kQueryNoise = 0.5;  // Planted query = target + noise.
constexpr int kServeThreads = 1;
constexpr size_t kTracedPasses = 5;  // Timed passes per session, traced run.
constexpr double kFixedRate = 2000.0;   // Requests per second.
constexpr size_t kFixedRequests = 5000;
constexpr double kLadderStart = 2000.0;
constexpr double kLadderStep = 1.08;
constexpr int kLadderMaxRungs = 48;
// The ladder stops after this many failing rungs in a row, so one stall of
// the host does not end it; serve_max_rps is the highest rung that held.
constexpr int kLadderMissesToStop = 3;
constexpr double kRungSeconds = 0.25;
constexpr size_t kRungMinRequests = 1000;  // p99 needs >= 1000 samples.
constexpr double kP99LimitMs = 5.0;
constexpr double kDeadlineMs = 250.0;  // Later answers count as failed.
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();
// ann_ivf at its default nprobe scans ~2.5% of this unclustered table and
// finds ~0.34 of the exact top-10 on every seed; a drop below the floor is
// a quality regression, not noise.
constexpr double kRecallFloor = 0.25;

/// One Serve session on a pipe pair: the server thread runs Serve, a reader
/// thread parses responses as they arrive, and the calling thread sends.
class Session {
 public:
  explicit Session(openea::serve::AlignServer* server) {
    if (pipe(req_) != 0 || pipe(resp_) != 0) {
      std::perror("pipe");
      std::exit(4);
    }
    fcntl(req_[1], F_SETPIPE_SZ, 1 << 20);
    fcntl(resp_[1], F_SETPIPE_SZ, 1 << 20);
    server_thread_ = std::thread([this, server] {
      BenchSpan span("serve.Serve");
      const auto stats = server->Serve(req_[0], resp_[1]);
      if (!stats.ok()) std::fprintf(stderr, "serve: %s\n",
                                    stats.status().ToString().c_str());
      close(resp_[1]);
    });
    reader_thread_ = std::thread([this] { ReadResponses(); });
  }

  ~Session() {
    close(req_[1]);
    server_thread_.join();
    reader_thread_.join();
    close(req_[0]);
    close(resp_[0]);
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Sends one request line; returns the send time.
  double Send(const std::string& line) {
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = write(req_[1], line.data() + off, line.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++sent_;
    return Now();
  }

  /// Blocks until every sent request is answered (or `timeout_s` passes)
  /// and hands over the responses received since the last Drain, with
  /// their arrival times.
  void Drain(double timeout_s, std::vector<ServedResponse>* responses,
             std::vector<double>* times) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                 [&] { return received_ >= sent_ || eof_; });
    responses->swap(arrived_);
    times->swap(arrived_at_);
    arrived_.clear();
    arrived_at_.clear();
  }

 private:
  void ReadResponses() {
    std::string buffer;
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = read(resp_[0], chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      const double at = Now();
      buffer.append(chunk, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        ServedResponse r = Parse(std::string_view(buffer).substr(
            start, nl - start));
        std::lock_guard<std::mutex> lock(mu_);
        arrived_.push_back(std::move(r));
        arrived_at_.push_back(at);
        ++received_;
        cv_.notify_all();
      }
      buffer.erase(0, start);
    }
    std::lock_guard<std::mutex> lock(mu_);
    eof_ = true;
    cv_.notify_all();
  }

  static ServedResponse Parse(std::string_view line) {
    ServedResponse r;
    openea::json::Value v;
    if (!openea::json::Parse(line, &v).ok()) return r;
    if (const auto* id = v.Find("id"); id && id->is_number()) {
      r.id = static_cast<int64_t>(id->number());
    }
    const auto* ok = v.Find("ok");
    const auto* ids = v.Find("ids");
    const auto* scores = v.Find("scores");
    if (!ok || !ok->is_bool() || !ok->bool_value() || !ids || !scores ||
        !ids->is_array() || !scores->is_array() || ids->array().size() != 1 ||
        scores->array().size() != 1) {
      return r;
    }
    r.ok = true;
    for (const auto& x : ids->array()[0].array()) {
      r.ids.push_back(static_cast<int>(x.number()));
    }
    for (const auto& x : scores->array()[0].array()) {
      r.scores.push_back(static_cast<float>(x.number()));
    }
    return r;
  }

  int req_[2] = {-1, -1};
  int resp_[2] = {-1, -1};
  std::mutex mu_;
  std::condition_variable cv_;
  size_t sent_ = 0;
  size_t received_ = 0;
  std::vector<ServedResponse> arrived_;  // Since the last Drain.
  std::vector<double> arrived_at_;
  bool eof_ = false;
  std::thread server_thread_;
  std::thread reader_thread_;
};

struct Inputs {
  openea::math::Matrix targets;
  openea::math::Matrix queries;
  std::vector<int> planted;         // Target row each query was made from.
  std::vector<std::string> rows;    // Serialized query rows "[[...]]".
  std::vector<std::set<int>> exact; // Exact top-10 of each query.
};

Inputs MakeInputs(uint64_t seed) {
  InputRng rng(seed * 0x9E3779B97F4A7C15ULL + 101);
  Inputs in;
  in.targets = openea::math::Matrix(kTargets, kDim);
  for (float& v : in.targets.Data()) v = static_cast<float>(rng.Gaussian());
  in.queries = openea::math::Matrix(kQueries, kDim);
  for (size_t i = 0; i < kQueries; ++i) {
    const int t = static_cast<int>(rng.Below(kTargets));
    in.planted.push_back(t);
    std::string row = "[[";
    for (size_t c = 0; c < kDim; ++c) {
      const float v = in.targets.At(t, c) +
                      static_cast<float>(kQueryNoise * rng.Gaussian());
      in.queries.At(i, c) = v;
      char cell[32];
      std::snprintf(cell, sizeof(cell), c == 0 ? "%.9g" : ",%.9g", v);
      row += cell;
    }
    in.rows.push_back(row + "]]");
  }
  return in;
}

std::string Request(const Inputs& in, int64_t id, size_t query) {
  return "{\"op\":\"topk\",\"id\":" + std::to_string(id) +
         ",\"k\":" + std::to_string(kK) + ",\"rows\":" + in.rows[query] +
         "}\n";
}

struct PhaseCounts {
  size_t sent = 0, ok = 0, failed = 0;
};

/// Outcome of one open-loop run at a fixed rate.
struct OpenLoop {
  std::vector<double> latency_ms;  // From due time, every ok response.
  std::vector<double> late_ms;     // Send time minus due time.
  PhaseCounts counts;
  double last_latency_ms = 0.0;
};

class Load {
 public:
  Load(const Inputs& in, Session* session) : in_(in), session_(session) {}

  /// One batch pass: every query of the sample, written back to back.
  struct Pass {
    std::vector<ServedResponse> responses;
    int64_t first_id = 0;
    Rep rep;
  };
  Pass BatchPass(PhaseCounts* counts) {
    Pass pass;
    pass.first_id = next_id_;
    pass.rep = Measure([&] {
      for (size_t q = 0; q < kQueries; ++q) {
        session_->Send(Request(in_, next_id_++, q));
      }
      std::vector<double> times;
      session_->Drain(30.0, &pass.responses, &times);
    });
    counts->sent += kQueries;
    for (const auto& r : pass.responses) counts->ok += r.ok ? 1 : 0;
    counts->failed = counts->sent - counts->ok;
    return pass;
  }

  OpenLoop Open(double rate, size_t requests, double deadline_ms) {
    std::vector<std::string> lines;
    const int64_t first = next_id_;
    for (size_t i = 0; i < requests; ++i) {
      lines.push_back(Request(in_, next_id_++, i % kQueries));
    }
    std::vector<double> due(requests);
    OpenLoop out;
    const double t0 = Now() + 1e-3;
    for (size_t i = 0; i < requests; ++i) {
      due[i] = t0 + static_cast<double>(i) / rate;
      const double wait = due[i] - Now();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      out.late_ms.push_back((session_->Send(lines[i]) - due[i]) * 1e3);
    }
    std::vector<ServedResponse> responses;
    std::vector<double> times;
    session_->Drain(30.0, &responses, &times);
    out.counts.sent = requests;
    for (size_t i = 0; i < responses.size(); ++i) {
      const int64_t index = responses[i].id - first;
      if (index < 0 || index >= static_cast<int64_t>(requests)) continue;
      const double latency = (times[i] - due[index]) * 1e3;
      // A late answer is a failed request and still part of the latency
      // sample, so a slow tail raises p99 instead of dropping out of it.
      if (responses[i].ok) out.latency_ms.push_back(latency);
      if (responses[i].ok && latency <= deadline_ms) ++out.counts.ok;
      out.last_latency_ms = latency;
    }
    out.counts.failed = requests - out.counts.ok;
    return out;
  }

 private:
  const Inputs& in_;
  Session* session_;
  int64_t next_id_ = 0;
};

void SetCounts(const std::string& phase, const PhaseCounts& c,
               Report* report) {
  report->Set("serve." + phase + ".sent", static_cast<double>(c.sent));
  report->Set("serve." + phase + ".ok", static_cast<double>(c.ok));
  report->Set("serve." + phase + ".failed", static_cast<double>(c.failed));
  report->Count(static_cast<int64_t>(c.sent), static_cast<int64_t>(c.failed));
}

}  // namespace

void RunServe100k(const Options& options, Report* report) {
  const std::string shard_path = options.workdir + "/serve_targets.shard";
  Inputs inputs;
  std::unique_ptr<openea::serve::AlignServer> server;
  CallTimes setup_calls;
  const int setup_repeats = options.traced ? 1 : kSetupRepeats;
  if (options.traced) StartTracing();
  const double setup_s = MedianSetup(setup_repeats, [&] {
    server.reset();  // Free the previous copy first: peak RSS counts one.
    inputs = {};
    inputs = MakeInputs(options.seed);
    setup_calls.Time("math.WriteShardedTable", [&] {
      const auto written =
          openea::math::WriteShardedTable(shard_path, inputs.targets);
      if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.ToString().c_str());
        std::exit(4);
      }
    });
    setup_calls.Time("serve.AlignServer::Create", [&] {
      openea::serve::ServeConfig config;
      config.checkpoint_path = shard_path;
      config.source.kind = openea::align::CandidateSourceKind::kAnnIvf;
      auto created = openea::serve::AlignServer::Create(config);
      if (!created.ok()) {
        std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
        std::exit(4);
      }
      server = *std::move(created);
    });
  });
  if (options.traced) StopTracing("", report);

  // Exact reference for recall@10 (check preparation, not timed).
  openea::align::TopKOptions exact_options;
  exact_options.k = kK;
  const auto exact = openea::align::StreamingTopK(inputs.queries,
                                                  inputs.targets,
                                                  exact_options);
  for (size_t i = 0; i < kQueries; ++i) {
    std::set<int> top;
    for (const auto& e : exact.Row(i)) top.insert(e.index);
    inputs.exact.push_back(std::move(top));
  }

  // Serving runs on one thread: with a second pool thread woken on every
  // flush, the batch-pass time swung by 24-54% between runs on a shared
  // 4-core VM, at one thread by ~4% (set-up above uses both threads).
  openea::SetThreads(kServeThreads);
  std::vector<Rep> passes;
  PhaseCounts batch, fixed, ladder;
  OpenLoop fixed_run;
  double max_rps = 0.0;
  {
    Session session(server.get());
    Load load(inputs, &session);
    double elapsed = 0.0;
    for (bool warm_up = true;; warm_up = false) {
      const Load::Pass pass = load.BatchPass(&batch);
      report->Check("in_order",
                    CheckInOrder(pass.responses, pass.first_id, kQueries));
      report->Check("topk_rows", CheckTopKRows(pass.responses, kK, kTargets));
      if (!warm_up) {
        passes.push_back(pass.rep);
        elapsed += pass.rep.wall_s;
        if (options.traced ? passes.size() >= kTracedPasses
                           : elapsed >= options.seconds) {
          break;
        }
        continue;
      }
      // The first pass warms the index and the pipes: its answers are
      // scored against the exact scan, its time is not counted.
      double recall = 0.0, hits1 = 0.0;
      for (size_t i = 0; i < pass.responses.size(); ++i) {
        const auto& ids = pass.responses[i].ids;
        for (const int id : ids) recall += inputs.exact[i].count(id);
        hits1 += !ids.empty() && ids[0] == inputs.planted[i] ? 1.0 : 0.0;
      }
      recall /= static_cast<double>(kQueries * kK);
      report->Set("recall10", recall);
      report->Set("hits1", hits1 / kQueries);
      report->Check("recall10", CheckRecall(recall, kRecallFloor));
    }

    fixed_run = load.Open(kFixedRate, kFixedRequests, kDeadlineMs);
    fixed = fixed_run.counts;

    int misses_in_row = 0;
    double rate = kLadderStart;
    for (int rung = 0;
         rung < kLadderMaxRungs && misses_in_row < kLadderMissesToStop;
         ++rung, rate *= kLadderStep) {
      const size_t n = std::max(kRungMinRequests,
                                static_cast<size_t>(rate * kRungSeconds));
      // Overloaded rungs answer late by design: only errors count as failed.
      const OpenLoop r = load.Open(rate, n, kNoDeadline);
      ladder.sent += r.counts.sent;
      ladder.ok += r.counts.ok;
      ladder.failed += r.counts.failed;
      // A rung holds when every request succeeded, p99 meets the limit and
      // the backlog did not grow (the rung's last answer is within it too).
      const bool holds = r.counts.failed == 0 &&
                         Quantile(r.latency_ms, 0.99) <= kP99LimitMs &&
                         r.last_latency_ms <= kP99LimitMs;
      if (holds) {
        max_rps = rate;
        misses_in_row = 0;
      } else {
        ++misses_in_row;
      }
    }
  }

  SetCounts("batch", batch, report);
  SetCounts("fixed", fixed, report);
  SetCounts("ladder", ladder, report);
  report->Set("setup_s", setup_s);
  std::vector<double> walls, cpus;
  for (const Rep& r : passes) {
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
  }
  report->Set("run_s", Median(walls));
  report->Set("cpu_s", Median(cpus));
  report->Set("serve_p50_ms", Quantile(fixed_run.latency_ms, 0.50));
  report->Set("serve_p99_ms", Quantile(fixed_run.latency_ms, 0.99));
  report->Set("serve_samples", static_cast<double>(fixed_run.latency_ms.size()));
  report->Set("serve_max_rps", max_rps);
  report->Set("serve.gen_late_p99_ms", Quantile(fixed_run.late_ms, 0.99));
  char line[200];
  std::snprintf(line, sizeof(line),
                "batch pass %.3f s (%zu passes); fixed %.0f/s: p50 %.3f "
                "ms p99 %.3f ms over %zu; max rate %.0f/s",
                Median(walls), walls.size(), kFixedRate,
                Quantile(fixed_run.latency_ms, 0.50),
                Quantile(fixed_run.latency_ms, 0.99),
                fixed_run.latency_ms.size(), max_rps);
  report->Note(line);
  if (!options.traced) return;

  report->Set("math.shard_write_s",
              setup_calls.seconds["math.WriteShardedTable"] / setup_repeats);
  report->Set("serve.create_s",
              setup_calls.seconds["serve.AlignServer::Create"] / setup_repeats);
  report->Set("parallel.sys_s", passes.front().sys_s);
  report->Set("parallel.util", passes.front().cpu_s /
                                   (passes.front().wall_s * kServeThreads));
  std::vector<double> traced_walls;
  StartTracing();
  {
    Session session(server.get());
    Load load(inputs, &session);
    PhaseCounts traced_counts;
    load.BatchPass(&traced_counts);  // Warm-up, as in the untraced session.
    while (traced_walls.size() < kTracedPasses) {
      traced_walls.push_back(load.BatchPass(&traced_counts).rep.wall_s);
    }
    load.Open(kFixedRate, kFixedRequests, kDeadlineMs);
  }
  StopTracing(options.workdir + "/trace.json", report);
  const Ledger ledger;
  ledger.AddSelfTimes(report);
  report->Set("trace.overhead_frac",
              Median(traced_walls) / Median(walls) - 1.0);
  report->Set("align.ann_build_s", ledger.LeafSeconds("ann_ivf_build"));
  const double queries =
      static_cast<double>(ledger.Counter("cand/ann_ivf/queries"));
  report->Set("align.ann_scanned_frac",
              queries > 0 ? ledger.Counter("cand/ann_ivf/scanned") /
                                (queries * kTargets)
                          : 0.0);
  report->Set("serve.scan_s", ledger.LeafSeconds("ann_ivf_topk"));
  report->Set("serve.respond_s", ledger.LeafSeconds("serve_request"));
  report->Set("serve.read_parse_s", ledger.LeafSeconds("serve_session") -
                                        ledger.LeafSeconds("serve_flush"));
  const double batches = static_cast<double>(ledger.Counter("serve/batches"));
  report->Set("serve.batch_rows_mean",
              batches > 0 ? ledger.Counter("serve/queries") / batches : 0.0);
  report->Set("parallel.jobs",
              static_cast<double>(ledger.Counter("parallel/jobs")));
}

}  // namespace perfbench
