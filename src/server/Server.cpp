//===- server/Server.cpp - Long-running compile server --------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "server/Protocol.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace srp;
using namespace srp::server;

namespace {
SRP_STATISTIC(NumServerConnections, "server", "connections",
              "Client connections accepted by the compile server");
SRP_STATISTIC(NumServerJobs, "server", "jobs-submitted",
              "Compile jobs accepted by the compile server");
SRP_STATISTIC(NumServerBatches, "server", "batches",
              "Batches dispatched over the worker pool");
SRP_STATISTIC(NumServerCacheHits, "server", "cache-hits",
              "Jobs answered from the shared job cache");
SRP_STATISTIC(NumServerCacheMisses, "server", "cache-misses",
              "Jobs that required a pipeline run");
SRP_STATISTIC(NumServerBackpressure, "server", "backpressure-waits",
              "Times a connection reader blocked on a full job queue");
SRP_HISTOGRAM(QueueWaitMicros, "server", "queue-wait-micros",
              "Time a job spent queued before dispatch (us)");
SRP_HISTOGRAM(ServiceMicros, "server", "service-micros",
              "Pipeline wall time of one served job (us), cache hits "
              "excluded");
SRP_GAUGE(QueueDepth, "server", "queue-depth",
          "Jobs currently waiting in the dispatch queue");
} // namespace

/// One accepted client. Shared between its reader thread and any queued
/// jobs still owing it a response; writes are serialised by WriteMu.
struct CompileServer::Connection {
  int FD = -1;
  std::mutex WriteMu;
  std::atomic<bool> Closed{false};

  ~Connection() {
    if (FD >= 0)
      ::close(FD);
  }
};

void srp::server::serverStatsToJson(json::Writer &W, const ServerStats &S) {
  using json::Fmt;
  W.beginObject()
      .member("connections", S.Connections)
      .member("jobs_submitted", S.JobsSubmitted)
      .member("jobs_completed", S.JobsCompleted)
      .member("jobs_failed", S.JobsFailed)
      .member("batches", S.Batches)
      .member("protocol_errors", S.ProtocolErrors)
      .member("backpressure_waits", S.BackpressureWaits);
  W.key("job_cache")
      .beginObject()
      .member("hits", S.Cache.Hits)
      .member("misses", S.Cache.Misses)
      .member("insertions", S.Cache.Insertions)
      .member("evictions", S.Cache.Evictions)
      .member("hit_rate", S.Cache.hitRate(), Fmt::Exact)
      .end();
  W.key("analysis_cache")
      .beginObject()
      .member("hits", S.AnalysisHits)
      .member("misses", S.AnalysisMisses)
      .member("hit_rate", S.analysisHitRate(), Fmt::Exact)
      .end();
  W.key("bytecode_cache")
      .beginObject()
      .member("decode_cache_hits", S.DecodeCacheHits)
      .member("functions_decoded", S.FunctionsDecoded)
      .member("hit_rate", S.decodeHitRate(), Fmt::Exact)
      .end();
  W.member("uptime_seconds", S.UptimeSeconds, Fmt::Exact).end();
}

CompileServer::CompileServer(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.CacheEntries) {
  if (!Opts.QueueCapacity)
    Opts.QueueCapacity = 1;
  if (!Opts.MaxBatch)
    Opts.MaxBatch = 1;
}

CompileServer::~CompileServer() {
  requestShutdown();
  wait();
}

bool CompileServer::start(std::string &Err) {
  if (Running.load())
    return true;
  sockaddr_un Addr{};
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Opts.SocketPath;
    return false;
  }
  ListenFD = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFD < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // Replace a stale socket file (e.g. from a crashed server); a live
  // server on the same path loses its socket, so callers pick distinct
  // paths per instance (the smoke gate and the bench do).
  ::unlink(Opts.SocketPath.c_str());
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  if (::bind(ListenFD, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0) {
    Err = "bind " + Opts.SocketPath + ": " + std::strerror(errno);
    ::close(ListenFD);
    ListenFD = -1;
    return false;
  }
  if (::listen(ListenFD, 64) < 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFD);
    ListenFD = -1;
    return false;
  }
  StartedAt = monotonicSeconds();
  Stopping.store(false);
  Running.store(true);
  AcceptThread = std::thread([this] { acceptLoop(); });
  DispatchThread = std::thread([this] { dispatchLoop(); });
  return true;
}

void CompileServer::requestShutdown() {
  Stopping.store(true);
  QueueNotEmpty.notify_all();
  QueueNotFull.notify_all();
}

void CompileServer::wait() {
  if (!Running.load())
    return;
  // Threads poll their fds with a timeout and re-check Stopping, so a
  // blocked accept/read never outlives the flag by more than one tick.
  while (!Stopping.load()) {
    std::unique_lock<std::mutex> Lock(QueueMu);
    QueueNotEmpty.wait_for(Lock, std::chrono::milliseconds(200),
                           [&] { return Stopping.load(); });
  }
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (DispatchThread.joinable())
    DispatchThread.join();
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (auto &C : Connections)
      C->Closed.store(true);
  }
  for (std::thread &T : ConnThreads)
    if (T.joinable())
      T.join();
  if (ListenFD >= 0) {
    ::close(ListenFD);
    ListenFD = -1;
  }
  ::unlink(Opts.SocketPath.c_str());
  Running.store(false);
}

ServerStats CompileServer::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  ServerStats S = Stats;
  S.Cache = Cache.stats();
  S.UptimeSeconds = monotonicSeconds() - StartedAt;
  return S;
}

void CompileServer::acceptLoop() {
  while (!Stopping.load()) {
    pollfd PFD{ListenFD, POLLIN, 0};
    int N = ::poll(&PFD, 1, 200);
    if (N <= 0)
      continue;
    int FD = ::accept(ListenFD, nullptr, nullptr);
    if (FD < 0)
      continue;
    auto Conn = std::make_shared<Connection>();
    Conn->FD = FD;
    ++NumServerConnections;
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.Connections;
    }
    if (Opts.Verbose)
      std::fprintf(stderr, "srpc-server: connection accepted\n");
    std::lock_guard<std::mutex> Lock(ConnMu);
    Connections.push_back(Conn);
    ConnThreads.emplace_back(
        [this, Conn] { connectionLoop(Conn); });
  }
}

void CompileServer::connectionLoop(std::shared_ptr<Connection> Conn) {
  std::string Buf;
  char Chunk[4096];
  while (!Stopping.load() && !Conn->Closed.load()) {
    pollfd PFD{Conn->FD, POLLIN, 0};
    int N = ::poll(&PFD, 1, 200);
    if (N <= 0)
      continue;
    ssize_t Got = ::recv(Conn->FD, Chunk, sizeof(Chunk), 0);
    if (Got <= 0) {
      // EOF or error: the peer is gone. Queued jobs still holding the
      // connection will find Closed set and skip their writes.
      Conn->Closed.store(true);
      break;
    }
    Buf.append(Chunk, static_cast<size_t>(Got));
    size_t Start = 0;
    for (size_t NL = Buf.find('\n', Start); NL != std::string::npos;
         NL = Buf.find('\n', Start)) {
      std::string Line = Buf.substr(Start, NL - Start);
      Start = NL + 1;
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (!Line.empty())
        handleLine(Conn, Line);
    }
    Buf.erase(0, Start);
  }
}

void CompileServer::handleLine(const std::shared_ptr<Connection> &Conn,
                               const std::string &Line) {
  json::Value Req;
  std::string Err;
  if (!json::parse(Line, Req, Err)) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ProtocolErrors;
    respond(Conn, encodeErrorResponse(0, "bad request: " + Err));
    return;
  }
  std::string Op = Req.get("op").asString("compile");

  if (Op == "ping" || Op == "stats" || Op == "metrics" || Op == "shutdown") {
    json::Writer W(json::Layout::Compact);
    W.beginObject().member("ok", true);
    if (Op == "ping") {
      W.member("server", "srpc")
          .member("protocol", ProtocolVersion)
          .member("pid", static_cast<int64_t>(::getpid()));
    } else if (Op == "stats") {
      W.key("stats");
      serverStatsToJson(W, stats());
    } else if (Op == "metrics") {
      // The scrape endpoint: the whole process-global registry (counters,
      // gauges, histograms) in Prometheus text exposition format.
      W.member("prometheus", stats::metricsToPrometheusText());
    } else {
      W.member("shutting_down", true);
    }
    W.end();
    respond(Conn, W.take());
    if (Op == "shutdown") {
      if (Opts.Verbose)
        std::fprintf(stderr, "srpc-server: shutdown requested\n");
      requestShutdown();
    }
    return;
  }
  if (Op != "compile") {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.ProtocolErrors;
    respond(Conn, encodeErrorResponse(0, "unknown op '" + Op + "'"));
    return;
  }

  QueuedJob QJ;
  QJ.Conn = Conn;
  if (!decodeCompileRequest(Req, QJ.Job, QJ.Id, Err)) {
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.ProtocolErrors;
    }
    respond(Conn, encodeErrorResponse(QJ.Id, Err));
    return;
  }
  ++NumServerJobs;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++Stats.JobsSubmitted;
  }

  // Shared-cache fast path: identical (source, options) answered from
  // memory, without touching the queue or the pool.
  if (JobCache::EntryPtr E = Cache.lookup(QJ.Job)) {
    ++NumServerCacheHits;
    if (trace::enabled())
      trace::instant("server", "job-cache-hit");
    respond(Conn, encodeCompileResponse(QJ.Id, *E, /*CacheHit=*/true));
    return;
  }
  ++NumServerCacheMisses;

  uint64_t Id = QJ.Id;
  if (!enqueue(std::move(QJ)))
    respond(Conn, encodeErrorResponse(Id, "server shutting down"));
}

bool CompileServer::enqueue(QueuedJob QJ) {
  std::unique_lock<std::mutex> Lock(QueueMu);
  if (Queue.size() >= Opts.QueueCapacity) {
    ++NumServerBackpressure;
    std::lock_guard<std::mutex> SLock(StatsMu);
    ++Stats.BackpressureWaits;
  }
  QueueNotFull.wait(Lock, [&] {
    return Stopping.load() || Queue.size() < Opts.QueueCapacity;
  });
  if (Stopping.load())
    return false;
  QJ.EnqueuedAt = monotonicSeconds();
  Queue.push_back(std::move(QJ));
  QueueDepth.set(static_cast<int64_t>(Queue.size()));
  QueueNotEmpty.notify_one();
  return true;
}

void CompileServer::dispatchLoop() {
  bool NamedTrack = false;
  while (true) {
    std::vector<QueuedJob> Batch;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueNotEmpty.wait_for(Lock, std::chrono::milliseconds(200), [&] {
        return Stopping.load() || !Queue.empty();
      });
      if (Queue.empty()) {
        if (Stopping.load())
          return; // drained: accepted jobs always get a response
        continue;
      }
      unsigned N = std::min<size_t>(Queue.size(), Opts.MaxBatch);
      Batch.reserve(N);
      for (unsigned I = 0; I != N; ++I) {
        Batch.push_back(std::move(Queue.front()));
        Queue.pop_front();
      }
      QueueDepth.set(static_cast<int64_t>(Queue.size()));
      QueueNotFull.notify_all();
    }

    const double DequeuedAt = monotonicSeconds();
    for (const QueuedJob &QJ : Batch)
      QueueWaitMicros.observeSeconds(DequeuedAt - QJ.EnqueuedAt);

    if (trace::enabled() && !NamedTrack) {
      trace::setThreadName("server/dispatch");
      NamedTrack = true;
    }
    ++NumServerBatches;
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++Stats.Batches;
    }

    std::vector<CompileJob> Jobs;
    Jobs.reserve(Batch.size());
    for (const QueuedJob &QJ : Batch)
      Jobs.push_back(QJ.Job);

    TraceSpan BatchSpan;
    if (trace::enabled())
      BatchSpan.begin("server",
                      "batch(" + std::to_string(Jobs.size()) + ")");

    // One response per job as it finishes, on the worker that ran it —
    // the batch is a scheduling unit, not a response barrier. Workers
    // carry server-prefixed trace tracks ("server/worker-N") so merged
    // timelines tell them apart from local pipeline pools.
    runPipelineParallel(
        Jobs, Opts.Threads,
        [&](size_t I, const PipelineResult &R) {
          const QueuedJob &QJ = Batch[I];
          ServiceMicros.observeSeconds(R.WallSeconds);
          std::string Report = resultToJson(R, QJ.Job);
          JobCache::EntryPtr E = JobCache::makeEntry(QJ.Job, R, Report);
          Cache.insert(QJ.Job, E);
          {
            std::lock_guard<std::mutex> Lock(StatsMu);
            ++Stats.JobsCompleted;
            if (!R.Ok)
              ++Stats.JobsFailed;
            Stats.AnalysisHits += R.Analysis.Hits;
            Stats.AnalysisMisses += R.Analysis.Misses;
            Stats.DecodeCacheHits += R.RunBefore.Interp.DecodeCacheHits +
                                     R.RunAfter.Interp.DecodeCacheHits;
            Stats.FunctionsDecoded += R.RunBefore.Interp.FunctionsDecoded +
                                      R.RunAfter.Interp.FunctionsDecoded;
          }
          if (Opts.Verbose)
            std::fprintf(stderr, "srpc-server: job '%s' %s\n",
                         QJ.Job.Name.c_str(), R.Ok ? "ok" : "FAILED");
          respond(QJ.Conn, encodeCompileResponse(QJ.Id, *E,
                                                 /*CacheHit=*/false));
        },
        /*TrackPrefix=*/"server");
  }
}

void CompileServer::respond(const std::shared_ptr<Connection> &Conn,
                            const std::string &Line) {
  if (!Conn || Conn->Closed.load())
    return;
  std::lock_guard<std::mutex> Lock(Conn->WriteMu);
  std::string Out = Line + "\n";
  size_t Sent = 0;
  while (Sent < Out.size()) {
    ssize_t N = ::send(Conn->FD, Out.data() + Sent, Out.size() - Sent,
                       MSG_NOSIGNAL);
    if (N <= 0) {
      Conn->Closed.store(true);
      return;
    }
    Sent += static_cast<size_t>(N);
  }
}

int srp::server::serveForever(const ServerOptions &Opts, bool Quiet) {
  CompileServer Server(Opts);
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  if (!Quiet)
    std::fprintf(stderr,
                 "srpc: serving on %s (threads=%u, queue=%u, batch=%u, "
                 "cache=%zu)\n",
                 Opts.SocketPath.c_str(), Opts.Threads, Opts.QueueCapacity,
                 Opts.MaxBatch, Opts.CacheEntries);
  Server.wait();
  if (!Quiet) {
    ServerStats S = Server.stats();
    std::fprintf(stderr,
                 "srpc: served %llu jobs (%llu cache hits) over %llu "
                 "connections in %.1fs\n",
                 static_cast<unsigned long long>(S.JobsCompleted),
                 static_cast<unsigned long long>(S.Cache.Hits),
                 static_cast<unsigned long long>(S.Connections),
                 S.UptimeSeconds);
  }
  return 0;
}
