//===- regalloc/Liveness.cpp - Register liveness analysis ----------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Liveness.h"
#include "ir/Function.h"

using namespace srp;

void Liveness::recompute(Function &F) {
  Values.clear();
  IndexOf.clear();
  BlockIndex.clear();

  std::vector<BasicBlock *> Blocks = F.blocks();
  const unsigned NB = static_cast<unsigned>(Blocks.size());
  for (unsigned B = 0; B != NB; ++B)
    BlockIndex[Blocks[B]] = B;
  LiveInSet.assign(NB, {});
  LiveOutSet.assign(NB, {});

  // Dense numbering: arguments, then instruction results. DefBlock[V] is
  // the block defining V; NB for arguments, which no block defines.
  std::vector<unsigned> DefBlock;
  for (unsigned I = 0; I != F.numArgs(); ++I) {
    IndexOf[F.arg(I)] = static_cast<unsigned>(Values.size());
    Values.push_back(F.arg(I));
    DefBlock.push_back(NB);
  }
  for (unsigned B = 0; B != NB; ++B)
    for (auto &I : *Blocks[B])
      if (I->type() != Type::Void) {
        IndexOf[I.get()] = static_cast<unsigned>(Values.size());
        Values.push_back(I.get());
        DefBlock.push_back(B);
      }
  const unsigned N = static_cast<unsigned>(Values.size());

  // Use sites, bucketed by value (counting sort). A site is encoded as
  // Block * 2 + LiveOut: a value used before any def of it in Block is
  // live-in there; a phi operand is live-out of its incoming block.
  std::vector<std::pair<unsigned, unsigned>> Uses; // (value, site)
  unsigned Next = F.numArgs(); // index of the next value defined
  for (unsigned B = 0; B != NB; ++B)
    for (auto &IP : *Blocks[B]) {
      Instruction *I = IP.get();
      if (auto *P = dyn_cast<PhiInst>(I)) {
        for (unsigned K = 0; K != P->numIncoming(); ++K) {
          auto V = IndexOf.find(P->incomingValue(K));
          auto In = BlockIndex.find(P->incomingBlock(K));
          if (V != IndexOf.end() && In != BlockIndex.end())
            Uses.emplace_back(V->second, In->second * 2 + 1);
        }
      } else {
        for (Value *Op : I->operands()) {
          auto V = IndexOf.find(Op);
          if (V == IndexOf.end())
            continue;
          bool DefinedAbove = DefBlock[V->second] == B && V->second < Next;
          if (!DefinedAbove)
            Uses.emplace_back(V->second, B * 2);
        }
      }
      if (I->type() != Type::Void)
        ++Next;
    }
  std::vector<unsigned> SiteStart(N + 1, 0), Sites(Uses.size());
  for (const auto &U : Uses)
    ++SiteStart[U.first + 1];
  for (unsigned V = 0; V != N; ++V)
    SiteStart[V + 1] += SiteStart[V];
  {
    std::vector<unsigned> Fill(SiteStart.begin(), SiteStart.end() - 1);
    for (const auto &U : Uses)
      Sites[Fill[U.first]++] = U.second;
  }

  // Predecessor lists as block indices.
  std::vector<unsigned> PredStart(NB + 1, 0), Preds;
  for (unsigned B = 0; B != NB; ++B) {
    for (BasicBlock *P : Blocks[B]->preds()) {
      auto It = BlockIndex.find(P);
      if (It != BlockIndex.end())
        Preds.push_back(It->second);
    }
    PredStart[B + 1] = static_cast<unsigned>(Preds.size());
  }

  // Path exploration, one value at a time. InStamp/OutStamp[B] == V + 1
  // records that V is already in B's live-in/live-out list, so each list
  // receives V at most once and, values going in index order, stays sorted.
  std::vector<unsigned> InStamp(NB, 0), OutStamp(NB, 0), Work;
  for (unsigned V = 0; V != N; ++V) {
    const unsigned Stamp = V + 1, Def = DefBlock[V];
    auto markIn = [&](unsigned B) {
      if (InStamp[B] == Stamp)
        return;
      InStamp[B] = Stamp;
      LiveInSet[B].push_back(V);
      Work.push_back(B);
    };
    auto markOut = [&](unsigned B) {
      if (OutStamp[B] == Stamp)
        return;
      OutStamp[B] = Stamp;
      LiveOutSet[B].push_back(V);
      if (B != Def)
        markIn(B);
    };
    for (unsigned S = SiteStart[V]; S != SiteStart[V + 1]; ++S) {
      if (Sites[S] & 1)
        markOut(Sites[S] >> 1);
      else
        markIn(Sites[S] >> 1);
    }
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      for (unsigned P = PredStart[B]; P != PredStart[B + 1]; ++P)
        markOut(Preds[P]);
    }
  }
}
