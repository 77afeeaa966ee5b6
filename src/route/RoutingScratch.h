//===- route/RoutingScratch.h - Reusable routing buffers ----------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mutable counterpart of RoutingContext: one RoutingScratch owns every
/// buffer the routing kernels need — the front-layer state, the look-ahead
/// BFS queue, the per-front scored-gate records, candidate/score arrays,
/// the Qlosure layer accumulators and the QMAP A* node pools. All of them
/// are sized lazily and reused across steps *and* across route() calls, so
/// after the first routing step of the first circuit the inner loop
/// performs no heap allocation at all. Per-gate marker arrays are epoch-stamped
/// (EpochArray): "clearing" them is a generation-counter bump, not an
/// O(numGates) refill, which removes the quadratic allocation/refill
/// traffic the pre-PR-3 kernel paid on QUEKO-scale circuits.
///
/// Threading/ownership contract: none — a scratch is single-threaded by
/// design; no member may be touched from two threads, even at different
/// times without synchronization in between. Use one scratch per worker
/// thread (BatchRunner and the qlosured Scheduler pool exactly that,
/// each worker owning its scratch for its whole lifetime) and never
/// share one across concurrent route() calls. Routers never retain a
/// reference beyond the call, so a scratch may serve any sequence of
/// mappers, circuits and backends.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_ROUTE_ROUTINGSCRATCH_H
#define QLOSURE_ROUTE_ROUTINGSCRATCH_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qlosure {

class Trace;

/// A lazily sized array whose entries are "cleared" in O(1) by bumping a
/// generation counter: an entry is *fresh* (written this epoch) when its
/// stamp matches the current epoch, otherwise it reads as value-initialized
/// T(). The 32-bit epoch wraps after ~4 billion generations; the wrap is
/// handled by one full stamp refill, preserving correctness.
template <typename T> class EpochArray {
public:
  /// Grows to at least \p N entries (never shrinks); new entries are stale.
  void ensure(size_t N) {
    if (Payload.size() < N) {
      Payload.resize(N, T());
      Stamp.resize(N, 0);
    }
  }

  size_t size() const { return Payload.size(); }

  /// O(1) clear: every entry becomes stale (reads as T()).
  void beginEpoch() {
    if (++Epoch == 0) { // Wrap: invalidate all stamps the slow way, once.
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }
  }

  /// True if entry \p I was written during the current epoch.
  bool fresh(size_t I) const { return Stamp[I] == Epoch; }

  /// Writes \p Value to entry \p I, stamping it fresh.
  T &set(size_t I, T Value) {
    Stamp[I] = Epoch;
    Payload[I] = std::move(Value);
    return Payload[I];
  }

  /// Mutable reference to a fresh entry (entry \p I must be fresh).
  T &ref(size_t I) { return Payload[I]; }

  /// Value of entry \p I: the stored payload when fresh, T() when stale.
  T get(size_t I) const { return Stamp[I] == Epoch ? Payload[I] : T(); }

private:
  std::vector<T> Payload;
  std::vector<uint32_t> Stamp;
  // Starts at 1 so zero-initialized stamps read as stale even before the
  // first beginEpoch().
  uint32_t Epoch = 1;
};

/// Epoch-stamped open-addressing set of 64-bit keys (the QMAP A* closed
/// list). Clearing is O(1) — a generation bump, like EpochArray — so the
/// thousands of per-chunk searches of a deep circuit never pay a refill
/// or an allocation once the table is warm. Membership semantics are
/// exactly std::unordered_set<uint64_t>'s (same keys in, same answers
/// out), only the storage differs: linear probing over a flat power-of-two
/// table instead of one heap node per insert.
class FlatHashSet64 {
  /// Key and stamp share one 16-byte slot so a probe touches a single
  /// cache line (split key/stamp arrays cost two).
  struct Slot {
    uint64_t Key;
    uint32_t Stamp;
  };

public:
  /// O(1): every slot becomes stale. Sizes the table on first use.
  void clear() {
    if (Slots.empty())
      rehash(1024);
    if (++Epoch == 0) { // Wrap: invalidate stamps the slow way, once.
      for (Slot &S : Slots)
        S.Stamp = 0;
      Epoch = 1;
    }
    Live = 0;
  }

  bool contains(uint64_t Key) const {
    size_t Idx = static_cast<size_t>(Key) & Mask;
    while (Slots[Idx].Stamp == Epoch) {
      if (Slots[Idx].Key == Key)
        return true;
      Idx = (Idx + 1) & Mask;
    }
    return false;
  }

  /// True when \p Key was newly inserted (false: already present).
  bool insert(uint64_t Key) {
    if ((Live + 1) * 2 >= Slots.size()) // Keep load factor under 0.5.
      grow();
    size_t Idx = static_cast<size_t>(Key) & Mask;
    while (Slots[Idx].Stamp == Epoch) {
      if (Slots[Idx].Key == Key)
        return false;
      Idx = (Idx + 1) & Mask;
    }
    Slots[Idx] = {Key, Epoch};
    ++Live;
    return true;
  }

  size_t size() const { return Live; }

private:
  void rehash(size_t NewCap) {
    Slots.assign(NewCap, {0, 0});
    Mask = NewCap - 1;
    Epoch = 1;
    Live = 0;
  }

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    uint32_t OldEpoch = Epoch;
    rehash(Old.empty() ? 1024 : Old.size() * 2);
    for (const Slot &S : Old) {
      if (S.Stamp != OldEpoch)
        continue;
      size_t Idx = static_cast<size_t>(S.Key) & Mask;
      while (Slots[Idx].Stamp == Epoch)
        Idx = (Idx + 1) & Mask;
      Slots[Idx] = {S.Key, Epoch};
      ++Live;
    }
  }

  std::vector<Slot> Slots;
  size_t Mask = 0;
  size_t Live = 0;
  uint32_t Epoch = 1;
};

/// All mutable state of the routing kernels. Buffers are grouped
/// by owner; distinct owners never run interleaved on one scratch (one
/// route() call at a time), so reuse across groups is safe.
class RoutingScratch {
public:
  /// Front[FrontPos[G]] == G; this sentinel marks "not in the front".
  static constexpr uint32_t NotInFront = UINT32_MAX;

  RoutingScratch() = default;
  RoutingScratch(RoutingScratch &&) = default;
  RoutingScratch &operator=(RoutingScratch &&) = default;
  RoutingScratch(const RoutingScratch &) = delete;
  RoutingScratch &operator=(const RoutingScratch &) = delete;

  /// Grows every per-gate buffer to at least \p NumGates entries.
  void ensureGates(size_t NumGates);

  /// Grows every per-physical-qubit buffer to at least \p NumPhys entries.
  void ensurePhys(unsigned NumPhys);

  /// Empties the scored-gate records. TouchingGates is cleared
  /// surgically: only the buckets TouchedPhys names (every non-empty one)
  /// are emptied, keeping their capacity.
  void clearScoredGates() {
    ScoredPA.clear();
    ScoredPB.clear();
    for (unsigned P : TouchedPhys)
      TouchingGates[P].clear();
    TouchedPhys.clear();
  }

  /// Appends the next scored gate (ordinal ScoredPA.size()), hosted on
  /// physical qubits \p PA and \p PB. Ordinals only grow, so every
  /// TouchingGates list stays sorted.
  void addScoredGate(unsigned PA, unsigned PB) {
    uint32_t Ordinal = static_cast<uint32_t>(ScoredPA.size());
    ScoredPA.push_back(PA);
    ScoredPB.push_back(PB);
    for (unsigned P : {PA, PB}) {
      if (TouchingGates[P].empty())
        TouchedPhys.push_back(P);
      TouchingGates[P].push_back(Ordinal);
    }
  }

  /// Re-seats the scored gates across a SWAP of physical qubits \p P1 and
  /// \p P2: every gate listed under either qubit moves its endpoint on one
  /// to the other, and the two TouchingGates lists trade places. Each list
  /// stays in ascending ordinal order, so the records equal what a rebuild
  /// from the new mapping would produce. TouchedPhys gains a qubit whose
  /// list turns non-empty; it may then name a qubit twice, which
  /// clearScoredGates tolerates. The caller refreshes whatever it caches
  /// per gate from the (new) lists of P1 and P2.
  void swapScoredEndpoints(unsigned P1, unsigned P2) {
    auto Moved = [P1, P2](unsigned P) {
      return P == P1 ? P2 : (P == P2 ? P1 : P);
    };
    for (uint32_t J : TouchingGates[P1]) {
      ScoredPA[J] = Moved(ScoredPA[J]);
      ScoredPB[J] = Moved(ScoredPB[J]);
    }
    for (uint32_t J : TouchingGates[P2]) {
      if (ScoredPA[J] == P1 || ScoredPB[J] == P1)
        continue; // Hosted on both qubits: already moved above.
      ScoredPA[J] = Moved(ScoredPA[J]);
      ScoredPB[J] = Moved(ScoredPB[J]);
    }
    if (TouchingGates[P1].empty() != TouchingGates[P2].empty())
      TouchedPhys.push_back(TouchingGates[P1].empty() ? P1 : P2);
    TouchingGates[P1].swap(TouchingGates[P2]);
  }

  /// Request-scoped trace sink, or null when tracing is off (the default).
  /// The scratch is the natural carrier: it already rides through the
  /// virtual Router::route signature into every mapper, and it is strictly
  /// per-thread so the single-threaded Trace is safe here. Mappers record
  /// coarse phase spans only (loop boundaries, never per-step), so a null
  /// check is the entire cost when tracing is off. Installed by the
  /// serving layer around route(); never owned.
  Trace *TraceSink = nullptr;

  //===--------------------------------------------------------------------===//
  // Front layer (owned state of FrontLayerTracker)
  //===--------------------------------------------------------------------===//

  std::vector<uint32_t> PendingPreds; ///< Unexecuted predecessor counts.
  std::vector<uint8_t> Executed;
  std::vector<uint32_t> FrontPos; ///< Index into Front, or NotInFront.
  std::vector<uint32_t> Front;    ///< Ready, unexecuted gates (unordered).

  //===--------------------------------------------------------------------===//
  // Topological look-ahead window (FrontLayerTracker::topologicalWindow)
  //===--------------------------------------------------------------------===//

  /// Remaining-unvisited-predecessor counts, lazily initialized per call
  /// via the epoch stamp (the pre-PR-3 kernel refilled an O(numGates)
  /// array here on every routing step).
  EpochArray<uint32_t> WindowNeeded;
  /// Flat FIFO for the window BFS. Each gate is enqueued at most once, so
  /// a head cursor over a plain vector replaces the old per-call deque.
  std::vector<uint32_t> BfsQueue;
  std::vector<uint32_t> Window; ///< The produced window (topological order).

  //===--------------------------------------------------------------------===//
  // Scored-gate records (GreedyRouterBase and Qlosure)
  //===--------------------------------------------------------------------===//

  /// The gates a kernel scores depend only on the front, so a kernel
  /// builds these records on the first SWAP after the front changed and
  /// patches them per SWAP with swapScoredEndpoints. Per scored ordinal:
  /// the current physical endpoints. TouchingGates lists, per physical
  /// qubit, the ordinals hosted on it in ascending order; candidates only
  /// recompute the gates listed under their two swapped qubits.
  std::vector<unsigned> ScoredPA;
  std::vector<unsigned> ScoredPB;
  /// Scored gates indexed by hosting physical qubit. Persistent across
  /// fronts; only the entries named in TouchedPhys are cleared (keeping
  /// inner capacity), never the outer vector.
  std::vector<std::vector<uint32_t>> TouchingGates;
  std::vector<unsigned> TouchedPhys;

  //===--------------------------------------------------------------------===//
  // Greedy step buffers (GreedyRouterBase and Qlosure)
  //===--------------------------------------------------------------------===//

  std::vector<uint32_t> Ready;     ///< Executable front gates this pass.
  std::vector<uint32_t> FrontTwoQ; ///< Blocked front 2Q gates, sorted.
  std::vector<uint32_t> Extended;  ///< Extended-window 2Q gates.
  std::vector<unsigned> PFront;    ///< Physical qubits under front gates.
  EpochArray<uint8_t> PhysSeen;    ///< Per-phys dedup marker.
  std::vector<std::pair<unsigned, unsigned>> Candidates;
  std::vector<double> Scores;
  std::vector<size_t> BestIdx;
  std::vector<double> Decay; ///< Per-logical-qubit SABRE decay.
  /// GreedyRouterBase's per scored gate (front then extended, one
  /// combined ordinal space) base distance D(ScoredPA, ScoredPB) under
  /// the current mapping.
  std::vector<unsigned> GreedyBaseDists;

  //===--------------------------------------------------------------------===//
  // SoA score lanes (one entry per candidate)
  //===--------------------------------------------------------------------===//

  /// Per-candidate formula terms, filled by delta-accumulation against
  /// the base sums of the current SWAP decision and consumed as flat
  /// vector lanes:
  /// scoring is "evaluate the mapper's formula element-wise over these
  /// arrays" instead of "walk per-candidate distance vectors".
  std::vector<double> LaneFrontSum; ///< Post-swap front distance sums.
  std::vector<double> LaneExtSum;   ///< Post-swap extended-window sums.
  std::vector<double> LaneFrontMax; ///< tket: post-swap max front distance.
  std::vector<double> LaneDecay;    ///< max(decay) of the swapped qubits.
  /// Qlosure Eq. 2 term deltas, layer-major: entry [L * NumCand + C] is
  /// candidate C's adjustment to layer L's base sum.
  std::vector<double> LaneAdjust;
  /// tket front-distance histogram: the post-swap maximum is found by
  /// patching touched entries and scanning down from the base maximum.
  std::vector<uint32_t> DistHist;
  std::vector<uint32_t> TouchedOldD; ///< Patched front dists (old values).
  std::vector<uint32_t> TouchedNewD; ///< Patched front dists (new values).

  //===--------------------------------------------------------------------===//
  // Qlosure layer structure (core/Qlosure.cpp)
  //===--------------------------------------------------------------------===//

  /// Dependence-distance level per gate, written when the window is
  /// built; stale entries read 0 = "outside the window".
  EpochArray<unsigned> GateLevel;
  /// Scored window 2Q gates per dependence layer: fixed for a front.
  std::vector<uint32_t> LayerGateCount;
  /// Per-layer sum of WinBase, recomputed once per SWAP decision.
  std::vector<double> LayerBaseSum;
  /// Scored window 2Q gates of the current front, flat by scored ordinal
  /// (the index TouchingGates stores; endpoints live in ScoredPA/PB):
  /// dependence layer and omega weight, fixed for a front, and the base
  /// term omega * D(PA, PB), patched per SWAP — so per-candidate deltas
  /// recompute only the post-swap distance.
  std::vector<uint32_t> WinLevel;
  std::vector<double> WinOmega;
  std::vector<double> WinBase;

  //===--------------------------------------------------------------------===//
  // QMAP layered A* (baselines/QmapAstar.cpp)
  //===--------------------------------------------------------------------===//

  /// One A* node: parent link + the single swap taken from the parent.
  /// Deliberately tiny (12 bytes): the vast majority of generated nodes
  /// are never popped, so costs live packed in the open-list key and
  /// tracked-qubit positions are materialized lazily — only nodes that
  /// actually get expanded receive an AstarPositions arena slot (recorded
  /// in Slot; UINT32_MAX until then), rebuilt from the parent's slot plus
  /// this node's one swap.
  struct AstarNode {
    uint32_t Parent = UINT32_MAX;
    uint32_t Slot = UINT32_MAX;
    uint16_t SwapFrom = 0;
    uint16_t SwapTo = 0;
  };

  /// Open-list entry: the (f, g) heap priority packed into one key —
  /// lower f first, deeper g first among equal f — plus the node id. The
  /// packing makes heap sifts compare one integer instead of loading two
  /// nodes, while inducing exactly the reference comparator's order.
  struct AstarHeapEntry {
    uint64_t Key = 0;
    uint32_t Id = 0;
  };

  std::vector<AstarNode> AstarNodes;
  std::vector<unsigned> AstarPositions; ///< Arena: expanded nodes only,
                                        ///< K positions at [Slot, Slot+K).
  std::vector<AstarHeapEntry> AstarHeap; ///< Open list (binary heap).
  FlatHashSet64 AstarClosed;
  std::vector<std::pair<unsigned, unsigned>> AstarPath; ///< Rebuilt swaps.
  std::vector<int32_t> AstarTracked;
  std::vector<std::pair<unsigned, unsigned>> AstarGatePairs;
  /// FNV-1a prefix states of the node being expanded: HashPref[j] is the
  /// hash after absorbing the first j positions, so a successor's key is
  /// re-derived from the first changed ordinal instead of from scratch.
  std::vector<uint64_t> AstarHashPref;
  /// Physical qubit -> tracked ordinal occupying it in the node being
  /// expanded (UINT32_MAX = untracked); O(1) swap-occupant lookup.
  std::vector<uint32_t> AstarInvPos;
  /// Tracked ordinal -> index of its (unique) gate pair. Chunk gates come
  /// from one time-slice layer, so they are qubit-disjoint.
  std::vector<unsigned> AstarPairOf;
  std::vector<uint32_t> QmapLayerBounds; ///< Layer k = gates [B[k], B[k+1]).
  std::vector<uint8_t> QmapBusy;         ///< Per-logical-qubit layer marker.
  std::vector<uint32_t> QmapTwoQ;        ///< 2Q gates of the current layer.
};

} // namespace qlosure

#endif // QLOSURE_ROUTE_ROUTINGSCRATCH_H
