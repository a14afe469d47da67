//===- bench/bench_workload_matrix.cpp - Parallel driver benchmark --------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the full workload x promotion-mode matrix through the parallel
/// pipeline driver and reports wall time, speedup over the sequential
/// driver, and (optionally) the aggregate pass/statistics report as JSON:
///
///   bench_workload_matrix                 # text: per-thread-count timings
///   bench_workload_matrix --threads=8     # one parallel run at 8 workers
///   bench_workload_matrix --stats-json    # JSON report of the matrix run
///
/// With --server the bench becomes a load generator: it starts an
/// in-process CompileServer on a unix socket, fans the matrix out over
/// N concurrent client connections, and reports request-latency
/// percentiles (p50/p95/p99), jobs/sec, and the server's job/analysis/
/// bytecode cache hit rates (docs/SERVER.md). The server stripe also
/// folds in `-interp=native` variants of a slice of the matrix: the
/// same (workload, mode) pair under a different engine must live under
/// a different job-cache fingerprint, so resubmissions hit within an
/// engine but never across engines:
///
///   bench_workload_matrix --server --clients=4 --requests=200
///   bench_workload_matrix --server --stats-json
///   bench_workload_matrix --server --trace-out=server.trace.json
///
/// With --validator-overhead it measures what `-verify-each=semantic`
/// costs: the matrix runs once at Strictness::Full and once at
/// Strictness::Semantic, and the report is the wall-seconds delta plus
/// the validator's own accounting (passes validated, obligations
/// proven, webs discharged — docs/TRANSLATION_VALIDATION.md):
///
///   bench_workload_matrix --validator-overhead
///   bench_workload_matrix --validator-overhead --stats-json
///
/// The JSON schema matches `srpc --stats-json` (docs/OBSERVABILITY.md):
/// a "statistics" object aggregated over every job plus per-job summary
/// rows, so dashboards can consume both tools identically.
///
//===----------------------------------------------------------------------===//

#include "WorkloadUtil.h"
#include "pipeline/Job.h"
#include "pipeline/Pipeline.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/JSON.h"
#include "support/Options.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace srp;
using namespace srp::bench;

namespace {

std::vector<CompileJob> buildMatrix() {
  std::vector<CompileJob> Jobs;
  auto addAll = [&](const std::vector<Workload> &Ws) {
    for (const Workload &W : Ws) {
      // One shared SourceText per workload: the six mode jobs alias the
      // same immutable program text instead of copying it.
      SourceText Src(loadWorkload(W.File));
      for (PromotionMode Mode : allPromotionModes()) {
        CompileJob J;
        J.Name = std::string(W.Name) + "/" + promotionModeName(Mode);
        J.Source = Src;
        J.Opts.Mode = Mode;
        Jobs.push_back(std::move(J));
      }
    }
  };
  addAll(paperWorkloads());
  addAll(extraWorkloads());
  return Jobs;
}

double runMatrix(const std::vector<CompileJob> &Jobs, unsigned Threads,
                 std::vector<PipelineResult> &Results) {
  double T0 = monotonicSeconds();
  Results = runPipelineParallel(Jobs, Threads);
  return monotonicSeconds() - T0;
}

/// Latency at quantile \p Q of an ascending-sorted sample, in seconds.
double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(Q * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Rank, Sorted.size() - 1)];
}

struct LoadReport {
  unsigned Requests = 0;
  unsigned Failures = 0;
  double WallSeconds = 0;
  std::vector<double> Latencies; ///< sorted ascending after the run
  server::ServerStats Server;

  double jobsPerSec() const {
    return WallSeconds > 0 ? double(Requests) / WallSeconds : 0;
  }
};

/// The load generator: starts an in-process server, hammers it over
/// \p Clients real socket connections, and collects per-request
/// latencies plus the server's own counters.
bool runLoadGenerator(const std::vector<CompileJob> &Jobs,
                      server::ServerOptions SrvOpts, unsigned Clients,
                      unsigned Requests, LoadReport &Out,
                      std::string &Err) {
  server::CompileServer Server(SrvOpts);
  if (!Server.start(Err))
    return false;

  std::mutex Mu;
  std::vector<double> Latencies;
  unsigned Failures = 0;
  std::vector<std::string> ClientErrors;

  // Requests are striped over clients round-robin, so overlapping
  // (workload, mode) submissions from different connections are
  // in flight at once — the sharded-service case the parity test pins.
  double T0 = monotonicSeconds();
  std::vector<std::thread> Pool;
  for (unsigned C = 0; C != Clients; ++C) {
    Pool.emplace_back([&, C] {
      server::Client Cl;
      std::string E;
      if (!Cl.connect(SrvOpts.SocketPath, E)) {
        std::lock_guard<std::mutex> Lock(Mu);
        ClientErrors.push_back(E);
        return;
      }
      std::vector<double> Local;
      unsigned LocalFail = 0;
      for (unsigned R = C; R < Requests; R += Clients) {
        const CompileJob &Job = Jobs[R % Jobs.size()];
        server::CompileResponse Resp;
        double S0 = monotonicSeconds();
        if (!Cl.compile(Job, Resp, E)) {
          std::lock_guard<std::mutex> Lock(Mu);
          ClientErrors.push_back(E);
          return;
        }
        Local.push_back(monotonicSeconds() - S0);
        if (!Resp.Ok)
          ++LocalFail;
      }
      std::lock_guard<std::mutex> Lock(Mu);
      Latencies.insert(Latencies.end(), Local.begin(), Local.end());
      Failures += LocalFail;
    });
  }
  for (std::thread &T : Pool)
    T.join();
  Out.WallSeconds = monotonicSeconds() - T0;

  Out.Server = Server.stats();
  Server.requestShutdown();
  Server.wait();

  if (!ClientErrors.empty()) {
    Err = ClientErrors.front();
    return false;
  }
  std::sort(Latencies.begin(), Latencies.end());
  Out.Latencies = std::move(Latencies);
  Out.Requests = Requests;
  Out.Failures = Failures;
  return true;
}

void printLoadText(const LoadReport &R, unsigned Clients) {
  std::printf("server load: %u requests over %u clients in %.3f s\n",
              R.Requests, Clients, R.WallSeconds);
  std::printf("  throughput  %8.1f jobs/s   failures %u\n", R.jobsPerSec(),
              R.Failures);
  std::printf("  latency     p50 %.3f ms   p95 %.3f ms   p99 %.3f ms\n",
              percentile(R.Latencies, 0.50) * 1e3,
              percentile(R.Latencies, 0.95) * 1e3,
              percentile(R.Latencies, 0.99) * 1e3);
  std::printf("  job cache   %5.1f%% hit (%llu/%llu)   batches %llu   "
              "backpressure %llu\n",
              R.Server.Cache.hitRate() * 100,
              (unsigned long long)R.Server.Cache.Hits,
              (unsigned long long)(R.Server.Cache.Hits +
                                   R.Server.Cache.Misses),
              (unsigned long long)R.Server.Batches,
              (unsigned long long)R.Server.BackpressureWaits);
  std::printf("  analysis    %5.1f%% hit   bytecode decode %5.1f%% hit\n",
              R.Server.analysisHitRate() * 100,
              R.Server.decodeHitRate() * 100);
}

void printLoadJson(const LoadReport &R, unsigned Clients) {
  using json::Fmt;
  json::Writer W(json::Layout::Compact);
  W.beginObject()
      .member("requests", R.Requests)
      .member("clients", Clients)
      .member("failures", R.Failures)
      .member("wall_seconds", R.WallSeconds, Fmt::Exact)
      .member("jobs_per_sec", R.jobsPerSec(), Fmt::Exact)
      .key("latency")
      .beginObject()
      .member("p50_ms", percentile(R.Latencies, 0.50) * 1e3, Fmt::Exact)
      .member("p95_ms", percentile(R.Latencies, 0.95) * 1e3, Fmt::Exact)
      .member("p99_ms", percentile(R.Latencies, 0.99) * 1e3, Fmt::Exact)
      .end()
      .key("server");
  server::serverStatsToJson(W, R.Server);
  W.end();
  std::printf("%s\n", W.str().c_str());
}

/// One strictness leg of the --validator-overhead comparison.
struct OverheadLeg {
  double WallSeconds = 0;
  unsigned Failures = 0;
  TransValidateStats Validation; ///< zero for the Full leg
};

OverheadLeg runOverheadLeg(const std::vector<CompileJob> &Jobs,
                           unsigned Threads, Strictness S) {
  std::vector<CompileJob> Configured = Jobs;
  for (CompileJob &J : Configured) {
    J.Opts.VerifyEachStep = true;
    J.Opts.VerifyStrictness = S;
  }
  std::vector<PipelineResult> Results;
  OverheadLeg Leg;
  Leg.WallSeconds = runMatrix(Configured, Threads, Results);
  for (const PipelineResult &R : Results) {
    if (!R.Ok)
      ++Leg.Failures;
    Leg.Validation += R.Verify.Validation;
  }
  return Leg;
}

void printOverheadText(const OverheadLeg &Full, const OverheadLeg &Sem,
                       size_t JobCount, unsigned Threads) {
  const double Delta = Sem.WallSeconds - Full.WallSeconds;
  std::printf("validator overhead: %zu jobs, threads=%u\n", JobCount,
              Threads);
  std::printf("  verify=full      %8.3f s  failures %u\n", Full.WallSeconds,
              Full.Failures);
  std::printf("  verify=semantic  %8.3f s  failures %u\n", Sem.WallSeconds,
              Sem.Failures);
  std::printf("  delta            %8.3f s  (%.2fx, %.1f ms/job)\n", Delta,
              Full.WallSeconds > 0 ? Sem.WallSeconds / Full.WallSeconds : 0,
              JobCount ? Delta * 1e3 / double(JobCount) : 0);
  const TransValidateStats &V = Sem.Validation;
  std::printf("  validated        %llu passes, %llu functions "
              "(%llu skipped identical)\n",
              (unsigned long long)V.PassesValidated,
              (unsigned long long)V.FunctionsValidated,
              (unsigned long long)V.FunctionsSkippedIdentical);
  std::printf("  proven           %llu obligations, %llu/%llu webs, "
              "%llu effect pairs, %.3f s inside the validator\n",
              (unsigned long long)V.ObligationsProven,
              (unsigned long long)V.WebsProven,
              (unsigned long long)V.WebsChecked,
              (unsigned long long)V.EffectPairsMatched, V.WallSeconds);
}

void printOverheadJson(const OverheadLeg &Full, const OverheadLeg &Sem,
                       size_t JobCount, unsigned Threads) {
  using json::Fmt;
  const TransValidateStats &V = Sem.Validation;
  json::Writer W(json::Layout::Compact);
  W.beginObject()
      .member("job_count", JobCount)
      .member("threads", Threads)
      .key("full")
      .beginObject()
      .member("wall_seconds", Full.WallSeconds, Fmt::Exact)
      .member("failures", Full.Failures)
      .end()
      .key("semantic")
      .beginObject()
      .member("wall_seconds", Sem.WallSeconds, Fmt::Exact)
      .member("failures", Sem.Failures)
      .key("validation")
      .beginObject()
      .member("passes_validated", V.PassesValidated)
      .member("functions_validated", V.FunctionsValidated)
      .member("functions_skipped_identical", V.FunctionsSkippedIdentical)
      .member("effect_pairs_matched", V.EffectPairsMatched)
      .member("obligations_proven", V.ObligationsProven)
      .member("obligations_failed", V.ObligationsFailed)
      .member("webs_checked", V.WebsChecked)
      .member("webs_proven", V.WebsProven)
      .member("wall_seconds", V.WallSeconds, Fmt::Exact)
      .end()
      .end()
      .member("delta_wall_seconds", Sem.WallSeconds - Full.WallSeconds,
              Fmt::Exact)
      .end();
  std::printf("%s\n", W.str().c_str());
}

} // namespace

int main(int argc, char **argv) {
  unsigned Threads = 0; // 0 = sweep 1,2,4,..,hw in text mode
  bool StatsJson = false, ServerMode = false, ValidatorOverhead = false;
  unsigned Clients = 4, Requests = 0;
  server::ServerOptions SrvOpts;
  SrvOpts.SocketPath = "/tmp/srpc-bench.sock";
  std::string TraceOutPath;

  opt::OptionParser OP("bench_workload_matrix", "[options]");
  OP.value("threads", "<n>",
           "worker threads (default: sweep 1,2,4,..,cores in text mode)",
           [&](const std::string &V) {
             Threads = static_cast<unsigned>(std::atoi(V.c_str()));
             return !V.empty();
           });
  OP.flag("stats-json", "emit the run report as JSON",
          [&] { StatsJson = true; });
  OP.value("trace-out", "<file>", "write a Chrome trace of the run",
           [&](const std::string &V) {
             TraceOutPath = V;
             return !V.empty();
           });
  OP.flag("validator-overhead",
          "run the matrix at verify=full and verify=semantic and report "
          "the translation validator's wall-seconds delta",
          [&] { ValidatorOverhead = true; });
  OP.flag("server",
          "load-generator mode: start an in-process compile server and "
          "drive the matrix through concurrent socket clients",
          [&] { ServerMode = true; });
  OP.value("clients", "<n>", "with --server: concurrent connections "
                             "(default 4)",
           [&](const std::string &V) {
             Clients = static_cast<unsigned>(std::atoi(V.c_str()));
             return Clients > 0;
           });
  OP.value("requests", "<n>",
           "with --server: total jobs to submit (default: 3x the matrix, "
           "so resubmissions exercise the job cache)",
           [&](const std::string &V) {
             Requests = static_cast<unsigned>(std::atoi(V.c_str()));
             return Requests > 0;
           });
  OP.value("socket", "<path>",
           "with --server: unix socket path (default /tmp/srpc-bench.sock)",
           [&](const std::string &V) {
             SrvOpts.SocketPath = V;
             return !V.empty();
           });
  OP.value("queue", "<n>", "with --server: bounded queue capacity",
           [&](const std::string &V) {
             SrvOpts.QueueCapacity =
                 static_cast<unsigned>(std::atoi(V.c_str()));
             return SrvOpts.QueueCapacity > 0;
           });
  OP.value("batch", "<n>", "with --server: max jobs per dispatch batch",
           [&](const std::string &V) {
             SrvOpts.MaxBatch = static_cast<unsigned>(std::atoi(V.c_str()));
             return SrvOpts.MaxBatch > 0;
           });

  switch (OP.parse(argc, argv)) {
  case opt::ParseResult::Ok:
    break;
  case opt::ParseResult::Help:
    return 0;
  case opt::ParseResult::Error:
    return 2;
  }

  std::vector<CompileJob> Jobs = buildMatrix();
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());

  if (!TraceOutPath.empty())
    trace::start();
  auto writeTrace = [&] {
    if (TraceOutPath.empty())
      return true;
    trace::stop();
    std::ofstream Out(TraceOutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceOutPath.c_str());
      return false;
    }
    Out << trace::toChromeJson();
    return true;
  };

  if (ValidatorOverhead) {
    const unsigned T = Threads ? Threads : HW;
    OverheadLeg Full = runOverheadLeg(Jobs, T, Strictness::Full);
    OverheadLeg Sem = runOverheadLeg(Jobs, T, Strictness::Semantic);
    if (StatsJson)
      printOverheadJson(Full, Sem, Jobs.size(), T);
    else
      printOverheadText(Full, Sem, Jobs.size(), T);
    if (!writeTrace())
      return 2;
    return (Full.Failures || Sem.Failures ||
            Sem.Validation.ObligationsFailed)
               ? 1
               : 0;
  }

  if (ServerMode) {
    SrvOpts.Threads = Threads ? Threads : HW;
    // Fold native-tier jobs into the stripe: every third matrix job is
    // resubmitted with `-interp=native` at a first-call compile
    // threshold. pipelineOptionsKey folds the engine and threshold into
    // the job-cache fingerprint, so these land in distinct cache slots —
    // a bytecode hit can never answer a native submission (and the
    // resubmission pass below still hits within each engine).
    {
      const size_t MatrixSize = Jobs.size();
      for (size_t I = 0; I < MatrixSize; I += 3) {
        CompileJob J = Jobs[I];
        J.Name += "@native";
        J.Opts.Interp = InterpEngine::Native;
        J.Opts.JitThreshold = 1;
        Jobs.push_back(std::move(J));
      }
    }
    if (!Requests)
      Requests = static_cast<unsigned>(Jobs.size()) * 3;
    LoadReport R;
    std::string Err;
    if (!runLoadGenerator(Jobs, SrvOpts, Clients, Requests, R, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    if (StatsJson)
      printLoadJson(R, Clients);
    else
      printLoadText(R, Clients);
    if (!writeTrace())
      return 2;
    return R.Failures ? 1 : 0;
  }

  if (StatsJson) {
    stats::reset();
    std::vector<PipelineResult> Results;
    double Wall = runMatrix(Jobs, Threads ? Threads : HW, Results);
    unsigned Failures = 0;
    json::Writer W;
    W.beginObject().key("jobs").beginArray();
    for (size_t I = 0; I != Results.size(); ++I) {
      const PipelineResult &R = Results[I];
      if (!R.Ok)
        ++Failures;
      W.beginObject(json::Layout::Inline)
          .member("name", Jobs[I].Name)
          .member("ok", R.Ok)
          .member("dynamic_memops_after", R.RunAfter.Counts.memOps())
          .member("wall_seconds", R.WallSeconds, json::Fmt::Fixed6)
          .end();
    }
    W.end()
        .member("job_count", Jobs.size())
        .member("failures", Failures)
        .member("threads", Threads ? Threads : HW)
        .member("wall_seconds", Wall, json::Fmt::Fixed6)
        .key("statistics");
    stats::toJson(W, stats::snapshot());
    W.end();
    std::printf("%s\n", W.str().c_str());
    if (!writeTrace())
      return 2;
    return Failures ? 1 : 0;
  }

  std::printf("workload matrix: %zu jobs (%u cores)\n", Jobs.size(), HW);
  std::vector<PipelineResult> Results;
  double Base = 0;
  std::vector<unsigned> Sweep;
  if (Threads) {
    Sweep = {1, Threads};
  } else {
    for (unsigned T = 1; T <= HW; T *= 2)
      Sweep.push_back(T);
    if (Sweep.back() != HW)
      Sweep.push_back(HW);
  }
  for (unsigned T : Sweep) {
    double Wall = runMatrix(Jobs, T, Results);
    unsigned Failures = 0;
    for (const PipelineResult &R : Results)
      if (!R.Ok)
        ++Failures;
    if (T == 1)
      Base = Wall;
    std::printf("  threads=%-3u %8.3f s  speedup %.2fx  failures %u\n", T,
                Wall, Base > 0 ? Base / Wall : 1.0, Failures);
  }
  if (!writeTrace())
    return 2;
  return 0;
}
