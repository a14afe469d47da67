//===- perfbench/src/Inputs.h - Seeded benchmark inputs ---------*- C++ -*-===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four benchmark workloads as data. Every input is a pure function of
/// the workload name, the `--seed` and the committed `workloads/*.mc`
/// files: the same seed yields byte-identical jobs, and inputDigest()
/// witnesses that.
///
/// A workload is a list of *distinct* jobs plus the order they are
/// submitted in. The in-process workloads submit whole rounds (every
/// distinct job once, in a seeded order); server-mixed submits a seeded
/// stream of distinct-job indices that mixes first submissions with
/// resubmissions.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_INPUTS_H
#define SRP_PERFBENCH_INPUTS_H

#include "pipeline/Job.h"
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Deterministic, platform-independent generator (SplitMix64). The
/// standard distributions are implementation-defined, so inputs draw
/// from this only.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
};

/// big-functions program shapes.
enum class Shape { None, Triangles, Diamonds };

struct Workload {
  /// Distinct jobs. Jobs that share a program share its SourceText.
  std::vector<srp::CompileJob> Jobs;
  /// Jobs[I]'s program, as an index into Programs (reference key).
  std::vector<size_t> ProgramOf;
  std::vector<srp::SourceText> Programs;
  /// big-functions only: each job's shape and ladder size.
  std::vector<Shape> Shapes;
  std::vector<unsigned> Sizes;
  /// One round, a seeded permutation of the jobs: the in-process
  /// workloads' unit of work, and server-mixed's in-process replay.
  std::vector<size_t> Round;
  /// The timed loop's length is fixed in work, not time: whole rounds for
  /// the in-process workloads, stream submissions for server-mixed.
  /// UnitsPerSecond is the workload's pace on the reference machine (a
  /// 4-core x86-64 container, Release build), so a run of `--seconds` S
  /// lasts about S there, and every run of a given S collects the same
  /// samples.
  double UnitsPerSecond = 1;
  unsigned MinUnits = 1;
  size_t units(double Seconds) const {
    return std::max<size_t>(MinUnits, size_t(Seconds * UnitsPerSecond + 0.5));
  }
  /// server-mixed only: the submission stream (indices into Jobs).
  std::vector<size_t> Stream;
  bool ViaServer = false;
};

/// Builds workload \p Name from \p Seed, reading committed programs from
/// \p WorkloadDir. Returns false with \p Err set for an unknown name or
/// an unreadable program.
bool makeWorkload(const std::string &Name, uint64_t Seed,
                  const std::string &WorkloadDir, Workload &Out,
                  std::string &Err);

/// FNV-1a digest of every input byte the workload submits: each job's
/// name, source, options key and observability requests, the round
/// order and the stream.
uint64_t inputDigest(const Workload &W);

} // namespace perfbench

#endif // SRP_PERFBENCH_INPUTS_H
