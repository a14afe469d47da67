//===- perfbench/src/Inputs.cpp - Seeded benchmark inputs -----------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "gen/ProgramGen.h"
#include <fstream>
#include <sstream>

using namespace srp;

namespace perfbench {
namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Seeded Fisher-Yates permutation of 0..N-1.
std::vector<size_t> shuffled(size_t N, Rng &R) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I != N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.below(I)]);
  return P;
}

/// Adds one job per promotion mode for program \p Prog.
void addAllModes(Workload &W, size_t Prog, const std::string &Label,
                 const PipelineOptions &Base) {
  for (PromotionMode M : allPromotionModes()) {
    CompileJob J;
    J.Name = Label + "/" + promotionModeName(M);
    J.Source = W.Programs[Prog];
    J.Opts = Base;
    J.Opts.Mode = M;
    W.Jobs.push_back(std::move(J));
    W.ProgramOf.push_back(Prog);
  }
}

bool addCommitted(Workload &W, const std::string &Dir, const char *File,
                  const PipelineOptions &Base, std::string &Err) {
  std::string Text;
  if (!readFile(Dir + "/" + File, Text)) {
    Err = "cannot read workload program " + Dir + "/" + File;
    return false;
  }
  W.Programs.emplace_back(std::move(Text));
  addAllModes(W, W.Programs.size() - 1, File, Base);
  return true;
}

/// One function of \p N `if`-without-`else` statements over locals: every
/// `if` leaves a critical edge for canonicalisation to split.
std::string triangles(unsigned N, Rng &R) {
  std::ostringstream OS;
  OS << "int main() {\n  int x = " << 1 + R.below(99) << ";\n  int y = 0;\n";
  for (unsigned I = 0; I != N; ++I) {
    unsigned K = 1 + unsigned(R.below(97));
    OS << "  if ((x % " << K + 2 << ") > " << K / 2 << ") { y = y + " << K
       << "; }\n";
    if (I % 4 == 0)
      OS << "  x = x * 3 + y;\n";
    else
      OS << "  x = x + " << I % 13 << ";\n";
  }
  OS << "  print(x);\n  print(y);\n  return y & 255;\n}\n";
  return OS.str();
}

/// One function of \p N `if`/`else` statements, each arm updating a
/// global: the stores form the SSA webs promotion works on. Which globals
/// each diamond touches is fixed; the seed picks the constants, so the
/// exact counts do not depend on it.
std::string diamonds(unsigned N, Rng &R) {
  constexpr unsigned Globals = 16;
  std::ostringstream OS;
  for (unsigned G = 0; G != Globals; ++G)
    OS << "int g" << G << " = " << R.below(10) << ";\n";
  OS << "int main() {\n  int x = " << 1 + R.below(99) << ";\n";
  for (unsigned I = 0; I != N; ++I) {
    unsigned A = I % Globals, B = (I + 5) % Globals;
    unsigned K = 2 + unsigned(R.below(28));
    OS << "  if ((x % " << K << ") > " << K / 2 << ") { g" << A << " = g" << A
       << " + x; } else { g" << B << " = g" << B << " - " << K << "; }\n"
       << "  x = x + g" << (I + 11) % Globals << ";\n";
  }
  OS << "  print(x);\n  return x & 255;\n}\n";
  return OS.str();
}

/// Generator seed of the fixed generated programs (verify-heavy's draw,
/// server-mixed's corpus). A per-`--seed` draw moved the exact counts by
/// 6% (colors_needed) to 90% (dyn_memops_after) between seeds, wider than
/// any useful bound on a count that must not change.
constexpr uint64_t FixedGenSeed = 0x5EED0000;

} // namespace

bool makeWorkload(const std::string &Name, uint64_t Seed,
                  const std::string &WorkloadDir, Workload &W,
                  std::string &Err) {
  W = Workload();
  // One stream per workload, so adding a workload never shifts another's
  // inputs.
  Rng R(Seed ^ fnv1a(Name));

  if (Name == "paper-suite") {
    static const char *Files[] = {"compress.mc", "db.mc",      "eqntott.mc",
                                  "gcc.mc",      "go.mc",      "ijpeg.mc",
                                  "li.mc",       "m88ksim.mc", "mpeg.mc",
                                  "perl.mc",     "spice.mc",   "vortex.mc"};
    for (const char *F : Files)
      if (!addCommitted(W, WorkloadDir, F, PipelineOptions(), Err))
        return false;
    W.UnitsPerSecond = 1 / 1.85;
    W.MinUnits = 2;
  } else if (Name == "big-functions") {
    // Seven jobs: an odd count puts the median latency inside one job's
    // samples (diamonds-500, far from its neighbours in cost) instead of
    // between two jobs.
    static const std::vector<unsigned> Ladders[] = {{250, 500, 1000, 2000},
                                                    {250, 500, 1000}};
    for (Shape S : {Shape::Triangles, Shape::Diamonds})
      for (unsigned N : Ladders[S == Shape::Diamonds]) {
        const char *Label = S == Shape::Triangles ? "triangles" : "diamonds";
        W.Programs.emplace_back(S == Shape::Triangles ? triangles(N, R)
                                                      : diamonds(N, R));
        CompileJob J;
        J.Name = std::string(Label) + "-" + std::to_string(N) + "/paper";
        J.Source = W.Programs.back();
        W.Jobs.push_back(std::move(J));
        W.ProgramOf.push_back(W.Programs.size() - 1);
        W.Shapes.push_back(S);
        W.Sizes.push_back(N);
      }
    // The largest job is one in seven: eleven rounds keep the latency tail
    // (ten samples beyond it) inside the largest job's samples.
    W.UnitsPerSecond = 1 / 1.45;
    W.MinUnits = 11;
  } else if (Name == "verify-heavy") {
    PipelineOptions Semantic;
    Semantic.VerifyStrictness = Strictness::Semantic;
    for (const char *F : {"spice.mc", "mpeg.mc", "db.mc"})
      if (!addCommitted(W, WorkloadDir, F, Semantic, Err))
        return false;
    W.Programs.emplace_back(gen::generateProgram(FixedGenSeed));
    addAllModes(W, W.Programs.size() - 1, "gen", Semantic);
    W.UnitsPerSecond = 1 / 3.5;
    W.MinUnits = 2;
  } else if (Name == "server-mixed") {
    // The native fold of `bench_workload_matrix --server`, over a
    // generated corpus larger than the server's 128-entry JobCache: every
    // third program is also submitted with `-interp=native` at a
    // first-call JIT threshold. The corpus, its modes and its slices are
    // fixed; the seed picks the submission order.
    constexpr unsigned Programs = 120;
    for (unsigned I = 0; I != Programs; ++I) {
      // Larger than the generator's default, so a miss costs milliseconds
      // and the pipeline, not thread hand-offs, sets the pace: with
      // default-sized programs jobs/s swung 30% between identical runs.
      gen::GenConfig Cfg;
      Cfg.ExtraStmts = 8;
      W.Programs.emplace_back(gen::generateProgram(FixedGenSeed + I, Cfg));
      CompileJob J;
      J.Source = W.Programs.back();
      // Modes round-robin, rotated by one every six programs so the
      // native third (I % 3 == 0) also covers all six.
      J.Opts.Mode = allPromotionModes()[(I + I / 6) % 6];
      // No load generator in the repository sets a share for these; one
      // program in ten asks for remarks and one in ten for a trace (its
      // native copy below too).
      J.WantRemarks = I % 10 == 1;
      J.WantTrace = I % 10 == 2;
      J.Name = "gen-" + std::to_string(I) + "/" +
               promotionModeName(J.Opts.Mode);
      W.Jobs.push_back(J);
      W.ProgramOf.push_back(I);
    }
    for (unsigned I = 0; I < Programs; I += 3) {
      CompileJob J = W.Jobs[I];
      J.Name += "@native";
      J.Opts.Interp = InterpEngine::Native;
      J.Opts.JitThreshold = 1;
      W.Jobs.push_back(std::move(J));
      W.ProgramOf.push_back(I);
    }
    // The stream scans the 160 distinct jobs cyclically, in a seeded
    // order that each pass reshuffles within blocks of 16. A job's next
    // scan is then at least 145 scans away, more than the cache holds, so
    // every scan is a miss that inserts and evicts. Every second scan is
    // followed by a resubmission of a job scanned 4 to 11 scans earlier,
    // whose result is cached by then even with every client's job still
    // in flight: one submission in three is a hit. (bench_workload_matrix
    // sends every job three times, two hits in three; the median latency
    // then falls among the hits, whose sub-millisecond round trips are too
    // noisy to bound.)
    const size_t Distinct = W.Jobs.size();
    constexpr size_t StreamLength = 1 << 16;
    constexpr size_t Block = 16;
    std::vector<size_t> Scanned, Pass = shuffled(Distinct, R);
    W.Stream.reserve(StreamLength + 1);
    while (W.Stream.size() < StreamLength) {
      if (Scanned.size() % Distinct == 0 && !Scanned.empty())
        for (size_t B = 0; B != Distinct; B += Block) {
          std::vector<size_t> P = shuffled(Block, R);
          std::vector<size_t> Old(Pass.begin() + B, Pass.begin() + B + Block);
          for (size_t K = 0; K != Block; ++K)
            Pass[B + K] = Old[P[K]];
        }
      Scanned.push_back(Pass[Scanned.size() % Distinct]);
      W.Stream.push_back(Scanned.back());
      if (Scanned.size() >= 12 && Scanned.size() % 2 == 0)
        W.Stream.push_back(Scanned[Scanned.size() - 4 - R.below(8)]);
    }
    W.Stream.resize(StreamLength);
    W.UnitsPerSecond = 430;
    W.ViaServer = true;
  } else {
    Err = "unknown workload '" + Name + "'";
    return false;
  }
  // server-mixed's traced run replays its jobs in-process in rounds.
  W.Round = shuffled(W.Jobs.size(), R);
  return true;
}

uint64_t inputDigest(const Workload &W) {
  uint64_t H = 14695981039346656037ull;
  auto Mix = [&](const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
    H ^= 0xFF; // field separator
    H *= 1099511628211ull;
  };
  for (const CompileJob &J : W.Jobs) {
    Mix(J.Name);
    Mix(J.Source.str());
    Mix(pipelineOptionsKey(J.Opts));
    Mix(std::string(J.WantRemarks ? "R" : "-") + (J.WantTrace ? "T" : "-"));
  }
  for (size_t I : W.Round)
    Mix(std::to_string(I));
  for (size_t I : W.Stream)
    Mix(std::to_string(I));
  return H;
}

} // namespace perfbench
