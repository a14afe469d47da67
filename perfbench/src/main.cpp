//===- perfbench/src/main.cpp - Repository benchmark driver ---------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
//
// srp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--work-dir <dir>] [--workloads-dir <dir>]
//
// Runs one workload (see Inputs.h) through the public job API and prints,
// as the last line of stdout, one JSON object with `correct`, `attempted`,
// `failed` and `metrics`. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 they are the per-layer ones, from a separate run
// that first repeats the untraced loop (the trace-overhead baseline) and
// then drives the same jobs through runTracedJob (server-mixed: an
// in-process replay of its jobs, untraced then traced, after the untraced
// server loop). The line before it is a `context` object: build type,
// compiler, nproc, seed, input digest and the sample counts behind every
// figure. Every result is checked against the reference tree-walker
// running mode `none`; any mismatch makes the run exit 1.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Traced.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/JSON.h"
#include "support/Timer.h"
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace srp;
using namespace perfbench;

namespace {

/// setup_s is the median, over at least SetupBatches batches of
/// SetupReps set-ups, of each batch's fastest set-up.
constexpr unsigned SetupBatches = 5, SetupReps = 11;
constexpr unsigned ServerClients = 3; ///< plus one server worker = nproc 4
/// server-mixed's traced run: in-process rounds untraced, then traced.
constexpr unsigned ReplayRounds = 2;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".bench_build/perfbench";
  std::string WorkloadsDir = "workloads";
};

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: srp-perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--workloads-dir <dir>]\n",
               Msg.c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + K);
    std::string V = Argv[++I];
    try {
      if (K == "--workload")
        A.Workload = V;
      else if (K == "--seed")
        A.Seed = std::stoull(V);
      else if (K == "--seconds")
        A.Seconds = std::stod(V);
      else if (K == "--trace")
        A.Trace = std::stoi(V) != 0;
      else if (K == "--work-dir")
        A.WorkDir = V;
      else if (K == "--workloads-dir")
        A.WorkloadsDir = V;
      else
        usage("unknown option " + K);
    } catch (const std::exception &) {
      usage("bad value for " + K + ": " + V);
    }
  }
  if (A.Workload.empty())
    usage("--workload is required");
  if (!(A.Seconds > 0))
    usage("--seconds must be positive");
  return A;
}

/// Each of these silently changes what is measured.
void refuseKnobs() {
  static const char *Knobs[] = {"SRP_INTERP", "SRP_JIT_THRESHOLD",
                                "SRP_DISABLE_ANALYSIS_CACHE", "SRP_TRACE",
                                "SRP_TRACE_DETERMINISTIC"};
  for (const char *K : Knobs)
    if (std::getenv(K)) {
      std::fprintf(stderr,
                   "error: %s is set; it changes what the benchmark "
                   "measures. Unset it and rerun.\n",
                   K);
      std::exit(2);
    }
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Least-squares slope of log(Y) against log(X) over points with X, Y > 0.
double logLogSlope(const std::vector<std::pair<double, double>> &Pts) {
  double N = 0, SX = 0, SY = 0, SXX = 0, SXY = 0;
  for (auto [X, Y] : Pts) {
    if (X <= 0 || Y <= 0)
      continue;
    double LX = std::log(X), LY = std::log(Y);
    N += 1;
    SX += LX;
    SY += LY;
    SXX += LX * LX;
    SXY += LX * LY;
  }
  double Den = N * SXX - SX * SX;
  return N >= 2 && Den > 1e-12 ? (N * SXY - SX * SY) / Den : 0;
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

//===----------------------------------------------------------------------===
// Correctness ledger
//===----------------------------------------------------------------------===

/// Every result of the run, checked against the walker reference of its
/// program and against the first result of the same distinct job.
struct Ledger {
  const Workload &W;
  std::vector<JobSig> Reference;       ///< per program
  std::vector<std::optional<JobSig>> First; ///< per distinct job
  uint64_t Attempted = 0, Failed = 0;
  uint64_t UncountedFailed = 0; ///< failures outside the timed phase
  std::vector<std::string> Problems;
  std::mutex Mu;

  Ledger(const Workload &W, std::vector<JobSig> Reference)
      : W(W), Reference(std::move(Reference)), First(W.Jobs.size()) {}

  /// Records one result of distinct job \p Idx; \p Counted says whether it
  /// belongs to the timed phase (attempted/failed).
  void record(size_t Idx, const JobSig &S, bool Counted) {
    std::lock_guard<std::mutex> Lock(Mu);
    const std::string &Name = W.Jobs[Idx].Name;
    std::string Why;
    bool Bad = false;
    if (!S.Ok) {
      Why = "job failed: " + S.FirstError;
      Bad = true;
    } else if (!sameBehaviour(S, Reference[W.ProgramOf[Idx]], Why)) {
      Why += " from the walker reference";
      Bad = true;
    } else if (First[Idx] && !sameResult(S, *First[Idx], Why)) {
      Why += " between two runs of the same job";
      Bad = true;
    }
    if (!First[Idx])
      First[Idx] = S;
    if (Counted)
      ++Attempted;
    if (Bad) {
      if (Counted)
        ++Failed;
      else
        ++UncountedFailed;
      if (Problems.size() < 20)
        Problems.push_back(Name + ": " + Why);
    }
  }

  bool correct() const { return Failed == 0 && UncountedFailed == 0; }
};

/// The walker reference for every program: mode none, tree-walker, no
/// verification or pressure.
bool computeReference(const Workload &W, std::vector<JobSig> &Out,
                      std::string &Err) {
  for (const SourceText &Prog : W.Programs) {
    CompileJob J;
    J.Name = "reference";
    J.Source = Prog;
    J.Opts.Mode = PromotionMode::None;
    J.Opts.Interp = InterpEngine::Walk;
    J.Opts.VerifyEachStep = false;
    J.Opts.MeasurePressure = false;
    JobResult R = runCompileJob(J);
    if (!R.ok()) {
      Err = "reference run failed: " +
            (R.Pipeline.Errors.empty() ? std::string("?")
                                       : R.Pipeline.Errors.front());
      return false;
    }
    Out.push_back(sigOf(R.Pipeline));
  }
  return true;
}

//===----------------------------------------------------------------------===
// Timed phases
//===----------------------------------------------------------------------===

struct PhaseResult {
  std::vector<double> Latencies; ///< seconds
  double Elapsed = 0;
  unsigned Rounds = 0;
  double jobsPerSecond() const {
    return Elapsed > 0 ? double(Latencies.size()) / Elapsed : 0;
  }
  void append(const PhaseResult &P) {
    Latencies.insert(Latencies.end(), P.Latencies.begin(), P.Latencies.end());
    Elapsed += P.Elapsed;
    Rounds += P.Rounds;
  }
};

/// What the per-layer metrics keep of one traced execution. The full
/// result (module, block and edge counts) is freed after the latency is
/// taken, as runCompileJob's is.
struct TracedRun {
  JobSig Sig;
  uint64_t Tokens, IRInstructions, Insns;
  InterpRunStats Profile, Measure;
  AnalysisCacheStats Analysis;
  TransValidateStats Validation;
  PromotionStats Promo;

  explicit TracedRun(const TracedJob &TJ)
      : Sig(TJ.Sig), Tokens(TJ.Tokens), IRInstructions(TJ.IRInstructions),
        Insns(TJ.Insns), Profile(TJ.Result.RunBefore.Interp),
        Measure(TJ.Result.RunAfter.Interp), Analysis(TJ.Result.Analysis),
        Validation(TJ.Result.Verify.Validation), Promo(TJ.Result.Promo) {}
};
using TracedRuns = std::map<size_t, std::vector<TracedRun>>;

/// \p Rounds whole rounds of runCompileJob, or of runTracedJob when \p T
/// is set. The traced run's separate lex call is left out of its times.
PhaseResult runRounds(const Workload &W, Ledger &L, size_t Rounds, Tracer *T,
                      TracedRuns *Traced) {
  PhaseResult P;
  const double Start = monotonicSeconds();
  double ExtraLex = 0;
  uint32_t NextId = 0;
  for (; P.Rounds != Rounds; ++P.Rounds)
    for (size_t Idx : W.Round) {
      const double T0 = monotonicSeconds();
      if (T) {
        TracedJob TJ = runTracedJob(W.Jobs[Idx], *T, NextId++);
        P.Latencies.push_back(monotonicSeconds() - T0 - TJ.LexSeconds);
        ExtraLex += TJ.LexSeconds;
        L.record(Idx, TJ.Sig, true);
        (*Traced)[Idx].emplace_back(TJ);
      } else {
        JobResult R = runCompileJob(W.Jobs[Idx]);
        P.Latencies.push_back(monotonicSeconds() - T0);
        L.record(Idx, sigOf(R.Pipeline), true);
      }
    }
  P.Elapsed = monotonicSeconds() - Start - ExtraLex;
  return P;
}

/// One server plus its client connections.
struct ServerRig {
  std::unique_ptr<server::CompileServer> Server;
  std::vector<std::unique_ptr<server::Client>> Clients;
  std::string Socket;

  ServerRig() = default;
  ServerRig(const ServerRig &) = delete;
  ServerRig &operator=(const ServerRig &) = delete;

  bool start(const std::string &WorkDir, std::string &Err) {
    server::ServerOptions O;
    // Relative to the working directory: unix socket paths are short.
    O.SocketPath = Socket =
        WorkDir + "/srv-" + std::to_string(getpid()) + ".sock";
    // The defaults of `bench_workload_matrix --server` other than the
    // worker count: the queue (64) outnumbers the clients, so readers
    // never block on it, and misses that queue up are dispatched in
    // batches.
    O.Threads = 1;
    Server = std::make_unique<server::CompileServer>(O);
    if (!Server->start(Err))
      return false;
    for (unsigned I = 0; I != ServerClients; ++I) {
      auto C = std::make_unique<server::Client>();
      if (!C->connect(Socket, Err) || !C->ping(Err))
        return false;
      Clients.push_back(std::move(C));
    }
    return true;
  }

  void stop() {
    Clients.clear();
    if (Server) {
      Server->requestShutdown();
      Server->wait();
      Server.reset();
      unlink(Socket.c_str());
    }
  }
  ~ServerRig() { stop(); }
};

/// Client-side figures of a server phase.
struct ServerPhase : PhaseResult {
  uint64_t Hits = 0, Misses = 0, WireBytes = 0;
  std::vector<double> HitRoundTrips, MissRoundTrips, QueueWaits;
  uint64_t Evictions = 0, BackpressureWaits = 0;
  std::string Error;
};

/// One compile round trip; returns false on a transport error.
bool submit(server::Client &C, const CompileJob &Job, uint64_t Id,
            server::CompileResponse &Resp, uint64_t &Bytes, std::string &Err) {
  std::string Req = server::encodeCompileRequest(Job, Id), Line;
  if (!C.roundTrip(Req, Line, Err))
    return false;
  Bytes = Req.size() + Line.size() + 2; // two newlines on the wire
  json::Value V;
  return json::parse(Line, V, Err) &&
         server::decodeCompileResponse(V, Resp, Err);
}

/// The closed loop: every client submits the stream's next job as soon
/// as its previous one returns, until \p Count submissions were made.
ServerPhase runServer(const Workload &W, Ledger &L, ServerRig &Rig,
                      size_t Count, size_t &StreamPos) {
  ServerPhase P;
  const server::ServerStats Before = Rig.Server->stats();
  std::atomic<size_t> Next{StreamPos};
  const size_t End = StreamPos + Count;
  std::mutex Mu;
  const double Start = monotonicSeconds();
  std::vector<std::thread> Threads;
  for (auto &C : Rig.Clients)
    Threads.emplace_back([&, Client = C.get()] {
      uint64_t Id = 0;
      for (size_t Pos; (Pos = Next++) < End;) {
        size_t Idx = W.Stream[Pos % W.Stream.size()];
        server::CompileResponse Resp;
        uint64_t Bytes = 0;
        std::string Err;
        const double T0 = monotonicSeconds();
        bool Ok = submit(*Client, W.Jobs[Idx], ++Id, Resp, Bytes, Err);
        const double RoundTrip = monotonicSeconds() - T0;
        JobSig S;
        if (Ok && !sigOfReport(Resp.ReportJson, S, Err))
          Ok = false;
        if (!Ok) {
          std::lock_guard<std::mutex> Lock(Mu);
          P.Error = Err;
          return;
        }
        L.record(Idx, S, true);
        std::lock_guard<std::mutex> Lock(Mu);
        P.Latencies.push_back(RoundTrip);
        P.WireBytes += Bytes;
        if (Resp.CacheHit) {
          ++P.Hits;
          P.HitRoundTrips.push_back(RoundTrip);
        } else {
          ++P.Misses;
          P.MissRoundTrips.push_back(RoundTrip);
          P.QueueWaits.push_back(std::max(0.0, RoundTrip - S.ServiceSeconds));
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  P.Elapsed = monotonicSeconds() - Start;
  StreamPos = End;
  const server::ServerStats After = Rig.Server->stats();
  P.Evictions = After.Cache.Evictions - Before.Cache.Evictions;
  P.BackpressureWaits = After.BackpressureWaits - Before.BackpressureWaits;
  return P;
}

/// Submits (untimed) every distinct job the timed phase never reached, so
/// the exact counts cover the whole workload.
bool coverServer(const Workload &W, Ledger &L, ServerRig &Rig,
                 std::string &Err) {
  for (size_t Idx = 0; Idx != W.Jobs.size(); ++Idx) {
    if (L.First[Idx])
      continue;
    server::CompileResponse Resp;
    uint64_t Bytes;
    JobSig S;
    if (!submit(*Rig.Clients.front(), W.Jobs[Idx], 1u << 30, Resp, Bytes,
                Err) ||
        !sigOfReport(Resp.ReportJson, S, Err))
      return false;
    L.record(Idx, S, false);
  }
  return true;
}

//===----------------------------------------------------------------------===
// Reporting
//===----------------------------------------------------------------------===

/// The result's `metrics` object, in insertion order.
struct Metrics {
  struct Item {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Item> Items;
  void add(const std::string &Name, double V, const std::string &Unit) {
    Items.push_back({Name, std::isfinite(V) ? V : 0.0, Unit});
  }
  std::string json() const {
    std::ostringstream OS;
    OS << "{";
    char Buf[64];
    for (size_t I = 0; I != Items.size(); ++I) {
      std::snprintf(Buf, sizeof(Buf), "%.17g", Items[I].Value);
      OS << (I ? ", " : "") << "\"" << Items[I].Name << "\": {\"value\": "
         << Buf << ", \"unit\": \"" << Items[I].Unit << "\"}";
    }
    OS << "}";
    return OS.str();
  }
};

/// Sums of the exact per-distinct-job counts.
struct ExactCounts {
  uint64_t DynMemopsAfter = 0, Colors = 0;
};
ExactCounts exactCounts(const Ledger &L) {
  ExactCounts C;
  for (const auto &S : L.First)
    if (S) {
      C.DynMemopsAfter += S->dynMemopsAfter();
      C.Colors += S->Colors;
    }
  return C;
}

/// Median, and the highest percentile with at least ten samples beyond
/// it (the largest sample when there are fewer than eleven).
struct LatencySummary {
  double P50 = 0, Tail = 0, TailPercentile = 100;
  size_t Samples = 0;
};
LatencySummary summarize(std::vector<double> V) {
  LatencySummary S;
  S.Samples = V.size();
  if (V.empty())
    return S;
  std::sort(V.begin(), V.end());
  S.P50 = median(V);
  if (V.size() >= 11) {
    S.Tail = V[V.size() - 11];
    S.TailPercentile = 100.0 * double(V.size() - 10) / double(V.size());
  } else {
    S.Tail = V.back();
  }
  return S;
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / double(V.size());
}

/// Per-layer metrics from the traced jobs (one entry per distinct job,
/// every traced execution of it).
void layerMetrics(const Workload &W, const Tracer &T,
                  const TracedRuns &Traced,
                  const std::map<uint32_t, size_t> &JobOfSpan, Metrics &M) {
  auto Self = T.selfSeconds();
  size_t NJobs = Self.size();
  std::map<std::string, double> Total;
  // Per distinct job and layer, the self times of its executions.
  std::map<size_t, std::map<std::string, std::vector<double>>> PerJob;
  for (const auto &[SpanJob, Layers] : Self)
    for (const auto &[Name, Sec] : Layers) {
      Total[Name] += Sec;
      PerJob[JobOfSpan.at(SpanJob)][Name].push_back(Sec);
    }
  auto Ms = [&](const char *Name) {
    return NJobs ? Total[Name] * 1000.0 / double(NJobs) : 0.0;
  };
  // parseProgram lexes internally, so parsing alone is parseProgram's time
  // minus the separate lex of the same source in the same execution: per
  // distinct job, the median of that difference over its executions.
  std::map<size_t, std::vector<double>> ParseOnly;
  for (const auto &[SpanJob, Layers] : Self) {
    auto Of = [&](const char *Name) {
      auto It = Layers.find(Name);
      return It == Layers.end() ? 0.0 : It->second;
    };
    ParseOnly[JobOfSpan.at(SpanJob)].push_back(Of("frontend.parse") -
                                               Of("frontend.lex"));
  }
  double ParseSeconds = 0;
  for (const auto &[Idx, Diffs] : ParseOnly)
    ParseSeconds += std::max(0.0, median(Diffs)) * double(Diffs.size());
  double ParseMs = NJobs ? ParseSeconds * 1000.0 / double(NJobs) : 0.0;

  uint64_t Tokens = 0, Insns = 0, Compiled = 0, Deopts = 0, Decoded = 0,
           DecodeHits = 0, AHits = 0, AMisses = 0, Skipped = 0,
           Validated = 0, WebsConsidered = 0, WebsPromoted = 0;
  for (const auto &[Idx, Runs] : Traced)
    for (const TracedRun &TR : Runs)
      Tokens += TR.Tokens;
  for (const auto &[Idx, Runs] : Traced) {
    // Counts are exact, so the first execution stands for the job.
    const TracedRun &TR = Runs.front();
    Insns += TR.Insns;
    Compiled += TR.Profile.FunctionsCompiled + TR.Measure.FunctionsCompiled;
    Deopts += TR.Profile.Deopts + TR.Measure.Deopts;
    Decoded += TR.Profile.FunctionsDecoded + TR.Measure.FunctionsDecoded;
    DecodeHits += TR.Profile.DecodeCacheHits + TR.Measure.DecodeCacheHits;
    AHits += TR.Analysis.Hits;
    AMisses += TR.Analysis.Misses;
    Skipped += TR.Validation.FunctionsSkippedIdentical;
    Validated += TR.Validation.FunctionsValidated;
    WebsConsidered += TR.Promo.WebsConsidered;
    WebsPromoted += TR.Promo.WebsPromoted;
  }
  auto Ratio = [](uint64_t A, uint64_t B) {
    return B ? double(A) / double(B) : 0.0;
  };
  // Executed instructions per traced execution, for ns/insn.
  double ExecInsns = 0;
  for (const auto &[Idx, Runs] : Traced)
    ExecInsns += double(Runs.front().Insns) * double(Runs.size());

  // Slopes: log-log fit of a layer's median self time per job against
  // the job's size — the ladder size on big-functions (canonicalize on
  // triangles, promotion on diamonds, pressure the steeper of the two
  // shapes), the lowered IR instruction count elsewhere.
  auto Slope = [&](const char *Layer, Shape Only) {
    std::vector<std::pair<double, double>> Pts;
    for (const auto &[Idx, Runs] : Traced) {
      if (!W.Shapes.empty() && W.Shapes[Idx] != Only)
        continue;
      double X = W.Shapes.empty() ? double(Runs.front().IRInstructions)
                                  : double(W.Sizes[Idx]);
      auto It = PerJob[Idx].find(Layer);
      if (It != PerJob[Idx].end())
        Pts.push_back({X, median(It->second)});
    }
    return logLogSlope(Pts);
  };
  const bool Ladder = !W.Shapes.empty();
  double PressureSlope =
      Ladder ? std::max(Slope("regalloc.pressure", Shape::Triangles),
                        Slope("regalloc.pressure", Shape::Diamonds))
             : Slope("regalloc.pressure", Shape::None);

  M.add("frontend.lex_ms", Ms("frontend.lex"), "ms");
  M.add("frontend.parse_ms", ParseMs, "ms");
  M.add("frontend.sema_ms", Ms("frontend.sema"), "ms");
  M.add("frontend.lower_ms", Ms("frontend.lower"), "ms");
  M.add("frontend.tokens_per_s",
        Total["frontend.lex"] > 0 ? double(Tokens) / Total["frontend.lex"] : 0,
        "1/s");
  M.add("ssa.mem2reg_ms", Ms("ssa.mem2reg"), "ms");
  M.add("ssa.memory_ssa_ms", Ms("ssa.memory_ssa"), "ms");
  M.add("ssa.memopt_ms", Ms("ssa.memopt"), "ms");
  M.add("analysis.canonicalize_ms", Ms("analysis.canonicalize"), "ms");
  M.add("analysis.canonicalize_slope",
        Slope("analysis.canonicalize",
              Ladder ? Shape::Triangles : Shape::None),
        "exponent");
  M.add("analysis.verify_ms", Ms("analysis.verify"), "ms");
  M.add("analysis.validate_ms", Ms("analysis.validate"), "ms");
  M.add("analysis.validate_skipped_ratio", Ratio(Skipped, Skipped + Validated),
        "ratio");
  M.add("analysis.cache_hit_ratio", Ratio(AHits, AHits + AMisses), "ratio");
  M.add("interp.profile_ms", Ms("interp.profile"), "ms");
  M.add("interp.measure_ms", Ms("interp.measure"), "ms");
  M.add("interp.decode_ms", Ms("interp.decode"), "ms");
  M.add("interp.decode_hit_ratio", Ratio(DecodeHits, DecodeHits + Decoded),
        "ratio");
  M.add("interp.insns", double(Insns), "count");
  M.add("interp.ns_per_insn",
        ExecInsns > 0 ? (Total["interp.profile"] + Total["interp.measure"]) *
                            1e9 / ExecInsns
                      : 0,
        "ns");
  M.add("jit.compile_ms", Ms("jit.compile"), "ms");
  M.add("jit.functions_compiled", double(Compiled), "count");
  M.add("jit.deopts", double(Deopts), "count");
  M.add("promotion.promote_ms", Ms("promotion.promote"), "ms");
  M.add("promotion.promote_slope",
        Slope("promotion.promote", Ladder ? Shape::Diamonds : Shape::None),
        "exponent");
  M.add("promotion.cleanup_ms", Ms("promotion.cleanup"), "ms");
  M.add("promotion.webs_promoted_ratio", Ratio(WebsPromoted, WebsConsidered),
        "ratio");
  M.add("regalloc.pressure_ms", Ms("regalloc.pressure"), "ms");
  M.add("regalloc.pressure_slope", PressureSlope, "exponent");
  uint64_t Edges = 0;
  for (const auto &[Idx, Runs] : Traced)
    Edges += Runs.front().Sig.InterferenceEdges;
  M.add("regalloc.interference_edges", double(Edges), "count");
  M.add("pipeline.report_ms", Ms("pipeline.report"), "ms");
  M.add("pipeline.untimed_ms", Ms("job"), "ms");
}

void serverMetrics(const ServerPhase *P, Metrics &M) {
  auto PerJob = [&](double X) {
    return P && !P->Latencies.empty() ? X / double(P->Latencies.size()) : 0;
  };
  M.add("server.queue_wait_ms", P ? mean(P->QueueWaits) * 1000 : 0, "ms");
  M.add("server.hit_roundtrip_ms", P ? mean(P->HitRoundTrips) * 1000 : 0,
        "ms");
  M.add("server.miss_roundtrip_ms", P ? mean(P->MissRoundTrips) * 1000 : 0,
        "ms");
  M.add("server.cache_hit_ratio",
        P && P->Hits + P->Misses ? double(P->Hits) / double(P->Hits + P->Misses)
                                 : 0,
        "ratio");
  M.add("server.cache_evictions", PerJob(P ? double(P->Evictions) : 0),
        "1/job");
  M.add("server.wire_bytes", PerJob(P ? double(P->WireBytes) : 0), "B/job");
  M.add("server.backpressure_waits",
        PerJob(P ? double(P->BackpressureWaits) : 0), "1/job");
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return bool(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  refuseKnobs();
  Args A = parseArgs(Argc, Argv);

  // -- Set-up: inputs from the seed, plus the server and its connections
  // for server-mixed. One warm-up set-up, which also yields the walker
  // reference (outside every timed region), then one batch of timed ones
  // whose last is kept. An untraced run times one more batch after each
  // round and the rest after its timed phase. A set-up lasts microseconds
  // to milliseconds, and a busy host only ever slows one down: a batch's
  // fastest set-up is its cost. The host's speed also shifts from second
  // to second, so batches spread over the run, like its jobs, give a
  // steadier median than batches taken back to back.
  std::string Err;
  uint64_t Digest = 0;
  auto SetUp = [&](Workload &Into, ServerRig &IntoRig) {
    // Tearing down the previous set-up is not part of this one.
    IntoRig.stop();
    Into = Workload();
    const double T0 = monotonicSeconds();
    bool Ok = makeWorkload(A.Workload, A.Seed, A.WorkloadsDir, Into, Err) &&
              (!Into.ViaServer || IntoRig.start(A.WorkDir, Err));
    const double Took = monotonicSeconds() - T0;
    Digest = inputDigest(Into); // recorded, not part of the set-up
    return Ok ? Took : -1.0;
  };
  Workload W;
  ServerRig Rig;
  std::vector<double> SetupTimes;
  std::vector<JobSig> Reference;
  for (unsigned Rep = 0; Rep <= SetupReps; ++Rep) {
    double Took = SetUp(W, Rig);
    if (Took < 0) {
      std::fprintf(stderr, "error: set-up failed: %s\n", Err.c_str());
      return 2;
    }
    if (Rep)
      SetupTimes.push_back(Took);
    else if (!computeReference(W, Reference, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  }
  Ledger L(W, std::move(Reference));

  Metrics M;
  std::ostringstream Ctx;
  size_t StreamPos = 0;
  // The traced run splits the length between its untraced and traced
  // halves.
  const size_t Units =
      A.Trace ? std::max<size_t>(1, size_t(A.Seconds / 2 * W.UnitsPerSecond +
                                           0.5))
              : W.units(A.Seconds);
  Workload Spare;
  ServerRig SpareRig;
  auto SetUpBatch = [&](ServerRig &IntoRig) {
    for (unsigned Rep = 0; Rep != SetupReps; ++Rep)
      SetupTimes.push_back(SetUp(Spare, IntoRig));
  };
  std::optional<ServerPhase> SP;
  PhaseResult Main;
  if (W.ViaServer) {
    SP = runServer(W, L, Rig, Units, StreamPos);
    Main = *SP;
  } else if (A.Trace) {
    Main = runRounds(W, L, Units, nullptr, nullptr);
  } else {
    for (size_t Round = 0; Round != Units; ++Round) {
      Main.append(runRounds(W, L, 1, nullptr, nullptr));
      SetUpBatch(SpareRig);
    }
  }
  if (SP && !SP->Error.empty()) {
    std::fprintf(stderr, "error: server phase: %s\n", SP->Error.c_str());
    return 1;
  }
  if (W.ViaServer && !coverServer(W, L, Rig, Err)) {
    std::fprintf(stderr, "error: coverage pass: %s\n", Err.c_str());
    return 1;
  }

  LatencySummary Lat = summarize(Main.Latencies);
  if (!A.Trace) {
    Rig.stop();
    while (SetupTimes.size() < SetupBatches * SetupReps)
      SetUpBatch(Rig);
    Rig.stop();
    if (*std::min_element(SetupTimes.begin(), SetupTimes.end()) < 0) {
      std::fprintf(stderr, "error: set-up failed: %s\n", Err.c_str());
      return 2;
    }
    std::vector<double> Fastest;
    for (size_t B = 0; B != SetupTimes.size(); B += SetupReps)
      Fastest.push_back(*std::min_element(SetupTimes.begin() + B,
                                          SetupTimes.begin() + B + SetupReps));
    ExactCounts C = exactCounts(L);
    M.add("setup_s", median(Fastest), "s");
    M.add("jobs_per_s", Main.jobsPerSecond(), "jobs/s");
    M.add("job_latency_p50_ms", Lat.P50 * 1000, "ms");
    M.add("job_latency_tail_ms", Lat.Tail * 1000, "ms");
    M.add("peak_rss_mb", peakRssMb(), "MB");
    M.add("ok_ratio",
          L.Attempted ? 1.0 - double(L.Failed) / double(L.Attempted) : 0,
          "ratio");
    M.add("dyn_memops_after", double(C.DynMemopsAfter), "count");
    M.add("colors_needed", double(C.Colors), "count");
  } else {
    // -- The traced half: the same rounds again through runTracedJob, spans
    // recorded. server-mixed's server runs its jobs through runCompileJob
    // internally, out of the benchmark's reach, so its pipeline layers are
    // attributed by an in-process replay of every distinct job instead:
    // ReplayRounds rounds untraced, the trace-overhead baseline, then as
    // many traced. Its server.* figures come from the untraced closed loop
    // above.
    Tracer T;
    TracedRuns Traced;
    PhaseResult Base = W.ViaServer
                           ? runRounds(W, L, ReplayRounds, nullptr, nullptr)
                           : Main;
    PhaseResult TracedPhase = runRounds(
        W, L, W.ViaServer ? ReplayRounds : Units, &T, &Traced);
    // runRounds numbers spans in submission order.
    std::map<uint32_t, size_t> JobOfSpan;
    uint32_t Id = 0;
    for (unsigned R = 0; R != TracedPhase.Rounds; ++R)
      for (size_t Idx : W.Round)
        JobOfSpan[Id++] = Idx;
    // Cross-check: the traced call sequence must reproduce what the real
    // pipeline produced for the same job.
    for (const auto &[Idx, Runs] : Traced) {
      std::string Why;
      for (const TracedRun &TR : Runs)
        if (!L.First[Idx] || !sameResult(TR.Sig, *L.First[Idx], Why)) {
          ++L.UncountedFailed;
          L.Problems.push_back(W.Jobs[Idx].Name +
                               ": traced run diverged from runCompileJob: " +
                               Why);
          break;
        }
    }
    layerMetrics(W, T, Traced, JobOfSpan, M);
    serverMetrics(SP ? &*SP : nullptr, M);
    double Without = Base.jobsPerSecond(), With = TracedPhase.jobsPerSecond();
    M.add("bench.trace_overhead_pct",
          With > 0 ? (Without / With - 1) * 100 : 0, "%");
    std::string SpansPath = A.WorkDir + "/spans-" + A.Workload + "-" +
                            std::to_string(A.Seed) + ".json";
    if (!writeFile(SpansPath, T.toJson()))
      std::fprintf(stderr, "warning: cannot write %s\n", SpansPath.c_str());
    Ctx << ", \"spans\": \"" << SpansPath << "\", \"spans_recorded\": "
        << T.spans().size() << ", \"traced_rounds\": " << TracedPhase.Rounds;
  }
  Rig.stop();

  char DigestBuf[32];
  std::snprintf(DigestBuf, sizeof(DigestBuf), "%016llx",
                static_cast<unsigned long long>(Digest));
  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"nproc\": %u, \"input_digest\": "
              "\"%s\", \"distinct_jobs\": %zu, \"rounds\": %u, "
              "\"latency_samples\": %zu, \"tail_percentile\": %.3f, "
              "\"setup_reps\": %zu%s}}\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, SRP_PERFBENCH_BUILD_TYPE,
              SRP_PERFBENCH_COMPILER, std::thread::hardware_concurrency(),
              DigestBuf, W.Jobs.size(), Main.Rounds, Lat.Samples,
              Lat.TailPercentile, SetupTimes.size(), Ctx.str().c_str());
  for (const std::string &P : L.Problems)
    std::fprintf(stderr, "mismatch: %s\n", P.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              L.correct() ? "true" : "false",
              static_cast<unsigned long long>(L.Attempted),
              static_cast<unsigned long long>(L.Failed), M.json().c_str());
  std::fflush(stdout);
  return L.correct() ? 0 : 1;
}
