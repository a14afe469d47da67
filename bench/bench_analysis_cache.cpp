//===- bench/bench_analysis_cache.cpp - Analysis cache payoff -------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the AnalysisManager buys: the full workload x promotion
/// mode matrix runs once with the cache enabled and once force-disabled,
/// and the bench reports per-kind analysis build counts, hit rates, and
/// wall time side by side. The uncached column is what every pipeline run
/// paid before the cache existed (each consumer rebuilt dominators,
/// intervals, liveness and the profile ad hoc).
///
///   bench_analysis_cache               # text table
///   bench_analysis_cache --stats-json  # JSON (schema: docs/OBSERVABILITY.md)
///
//===----------------------------------------------------------------------===//

#include "WorkloadUtil.h"
#include "pipeline/Pipeline.h"
#include "support/JSON.h"
#include "support/Timer.h"
#include <cstdio>
#include <string>
#include <vector>

using namespace srp;
using namespace srp::bench;

namespace {

struct MatrixRun {
  AnalysisCacheStats Totals; ///< Summed over every job.
  double WallSeconds = 0;
  unsigned Jobs = 0;
  unsigned Failures = 0;
};

MatrixRun runMatrix(bool DisableCache) {
  MatrixRun Out;
  std::vector<Workload> All = paperWorkloads();
  for (const Workload &W : extraWorkloads())
    All.push_back(W);

  double T0 = monotonicSeconds();
  for (const Workload &W : All) {
    SourceText Src(loadWorkload(W.File));
    for (PromotionMode Mode : allPromotionModes()) {
      PipelineResult R = PipelineBuilder()
                             .mode(Mode)
                             .disableAnalysisCache(DisableCache)
                             .run(Src);
      ++Out.Jobs;
      if (!R.Ok) {
        ++Out.Failures;
        std::fprintf(stderr, "FAIL %s/%s\n", W.Name, promotionModeName(Mode));
        for (const auto &E : R.Errors)
          std::fprintf(stderr, "  %s\n", E.c_str());
      }
      Out.Totals += R.Analysis;
    }
  }
  Out.WallSeconds = monotonicSeconds() - T0;
  return Out;
}

double pct(uint64_t Part, uint64_t Whole) {
  return Whole ? 100.0 * static_cast<double>(Part) / static_cast<double>(Whole)
               : 0.0;
}

} // namespace

int main(int argc, char **argv) {
  bool StatsJson = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("--", 0) == 0)
      A.erase(0, 1);
    if (A == "-stats-json") {
      StatsJson = true;
    } else {
      std::fprintf(stderr, "usage: bench_analysis_cache [--stats-json]\n");
      return 2;
    }
  }

  // Discarded warmup pass: page in the workloads and warm the allocator so
  // neither measured column pays process-start costs.
  runMatrix(/*DisableCache=*/false);

  MatrixRun Cached = runMatrix(/*DisableCache=*/false);
  MatrixRun Uncached = runMatrix(/*DisableCache=*/true);

  if (StatsJson) {
    json::Writer W;
    W.beginObject()
        .member("job_count", Cached.Jobs)
        .member("failures", Cached.Failures + Uncached.Failures);
    auto Leg = [&](const char *Name, const MatrixRun &Run) {
      W.key(Name)
          .beginObject(json::Layout::Inline)
          .member("wall_seconds", Run.WallSeconds, json::Fmt::Fixed6)
          .key("analysis");
      analysisCacheStatsToJson(W, Run.Totals);
      W.end();
    };
    Leg("cached", Cached);
    Leg("uncached", Uncached);
    W.end();
    std::printf("%s\n", W.str().c_str());
    return (Cached.Failures || Uncached.Failures) ? 1 : 0;
  }

  std::printf("analysis cache payoff: %u jobs (9 workloads x 6 modes)\n\n",
              Cached.Jobs);
  std::printf("  %-16s %12s %12s %8s\n", "builds", "cached", "uncached",
              "saved");
  for (unsigned I = 0; I != NumAnalysisKinds; ++I) {
    auto K = static_cast<AnalysisKind>(I);
    uint64_t C = Cached.Totals.builds(K), U = Uncached.Totals.builds(K);
    std::printf("  %-16s %12llu %12llu %7.1f%%\n", analysisKindName(K),
                static_cast<unsigned long long>(C),
                static_cast<unsigned long long>(U), pct(U - C, U));
  }
  uint64_t Requests = Cached.Totals.Hits + Cached.Totals.Misses;
  std::printf("\n  requests %llu, hits %llu (%.1f%%), invalidations %llu\n",
              static_cast<unsigned long long>(Requests),
              static_cast<unsigned long long>(Cached.Totals.Hits),
              pct(Cached.Totals.Hits, Requests),
              static_cast<unsigned long long>(Cached.Totals.Invalidations));
  std::printf("  wall: cached %.3f s, uncached %.3f s (%.2fx)\n",
              Cached.WallSeconds, Uncached.WallSeconds,
              Cached.WallSeconds > 0
                  ? Uncached.WallSeconds / Cached.WallSeconds
                  : 1.0);
  if (Cached.Failures || Uncached.Failures) {
    std::printf("  FAILURES: %u\n", Cached.Failures + Uncached.Failures);
    return 1;
  }
  return 0;
}
