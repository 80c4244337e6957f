// TransitionPlane: the shared, compiled evaluation state of one query over
// one document.
//
// DESIGN NOTE (the engine/plane split)
// ------------------------------------
// The rewritten MFA of a query is a FIXED object (Section 5's single-
// automaton rewriting): everything HyPE derives from it while evaluating --
// the hash-consed configurations, the memoized (config, label[, label-set])
// transition tables, the per-transition cans edge data (TransAux), the
// productivity analyses, the jump-mode relevant-label sets -- is a pure
// function of (MFA, document label table, index). Before this layer, every
// HypeEngine owned a private copy of that state, so a sharded pass re-
// interned identical configurations once per shard and every service batch
// started cold. The TransitionPlane hoists all of it into one read-mostly
// object shared by every engine evaluating the same query over the same
// document:
//
//  * per-shard engines of exec::ShardedBatchEvaluator (probes, workers, the
//    fallback) share one plane per query;
//  * successive exec::QueryService batches reuse planes through the
//    service's TransitionPlaneStore, so steady-state traffic starts warm;
//  * what stays in HypeEngine is exactly the per-RUN state: frames, the
//    cans graph, epoch scratch, statistics.
//
// CONCURRENCY. Shard workers read the plane from many threads while the
// cold path still interns new state. The design is read-mostly:
//
//  * steady-state lookups are LOCK-FREE: each configuration carries a dense
//    transition row of packed (config, aux) successors in atomics
//    (release-published, acquire-read), or -- in indexed mode -- a lock-free
//    prepend-only list per label of (label-set, successor) nodes;
//  * configurations and TransAux records live in append-only chunked stores
//    whose element addresses never move, indexed without locks;
//  * misses take the plane's single writer lock (std::shared_mutex,
//    exclusive), recompute, then publish with a release store -- the same
//    snapshot-publish discipline the columnar DocPlane uses for documents;
//  * genuinely cold read-mostly side tables (the aux-composition memo, the
//    root-configuration memo keyed by the context's subtree label set) take
//    a shared lock on the hit path.
//
// Interning is attributed to whichever engine's call inserted the state:
// EvalStats::configs_interned now counts plane insertions attributed to the
// run, so a warm start interns exactly zero and a sharded cold start interns
// each configuration once in total instead of once per shard.
//
// Transition computation itself walks the automata::CompiledMfa CSR mirror
// (flat per-state edge slices, precomputed ε-closures, stratified AFA order)
// with MFA labels pre-bound to the document's label ids at plane
// construction, instead of chasing the Mfa's vectors-of-vectors per state.

#ifndef SMOQE_HYPE_TRANSITION_PLANE_H_
#define SMOQE_HYPE_TRANSITION_PLANE_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/compiled_mfa.h"
#include "automata/mfa.h"
#include "common/name_table.h"
#include "hype/index.h"
#include "xml/tree.h"

namespace smoqe::hype {

/// Aggregated footprint of a TransitionPlaneStore (see stats()).
struct PlaneStoreStats {
  int64_t planes = 0;            // currently resident
  int64_t evictions = 0;         // soft-evicted since construction
  int64_t configs_interned = 0;  // summed over resident planes
  int64_t approx_bytes = 0;      // summed TransitionPlane::ApproxBytes
};

/// A memoized successor: the child configuration plus the id of the
/// precomputed parent→child edge data (cans label edges, fold pairs);
/// aux -1 = both empty (the common navigation case).
struct SuccRef {
  int32_t config = -1;
  int32_t aux = -1;
};

namespace internal {

/// Append-only store with stable element addresses and lock-free reads.
/// Chunk c holds (8 << c) elements, so a plane that interns a handful of
/// entries allocates one small chunk, growth doubles, and 29 chunks cover
/// every id up to INT32_MAX with no relocation ever. Append() may only be
/// called under the owning plane's writer lock; an element must be fully
/// written before its id is published to readers (via a release store or
/// mutex release), after which relaxed chunk-pointer loads are ordered by
/// that publication.
template <typename T>
class ChunkedStore {
 public:
  static constexpr int kBaseBits = 3;
  static constexpr int kMaxChunks = 29;

  ChunkedStore() {
    for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
  }
  ~ChunkedStore() {
    for (auto& c : chunks_) delete[] c.load(std::memory_order_relaxed);
  }
  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;

  T& operator[](int32_t id) { return Slot(id); }
  const T& operator[](int32_t id) const { return Slot(id); }

  /// Elements appended so far (writer-side view).
  int32_t size() const { return size_; }

  /// Elements the allocated chunks hold, used or not (writer-side view).
  int64_t capacity() const {
    return size_ == 0 ? 0 : int64_t{ChunkBase(ChunkOf(size_ - 1) + 1)};
  }

  /// Appends a default-constructed element and returns its id; the caller
  /// fills it in place. Writer lock required.
  int32_t Append() {
    int32_t id = size_;
    int c = ChunkOf(id);
    if (chunks_[c].load(std::memory_order_relaxed) == nullptr) {
      chunks_[c].store(new T[ChunkCap(c)], std::memory_order_release);
    }
    ++size_;
    return id;
  }

  /// The chunk holding `id`.
  static constexpr int ChunkOf(int32_t id) {
    uint32_t q = (static_cast<uint32_t>(id) >> kBaseBits) + 1;
    return 31 - std::countl_zero(q);
  }
  /// The id of chunk c's first element.
  static constexpr uint32_t ChunkBase(int c) {
    return ((1u << c) - 1) << kBaseBits;
  }

 private:
  static constexpr size_t ChunkCap(int c) {
    return size_t{1} << (kBaseBits + c);
  }

  T& Slot(int32_t id) const {
    int c = ChunkOf(id);
    return chunks_[c].load(std::memory_order_relaxed)[id - ChunkBase(c)];
  }

  mutable std::array<std::atomic<T*>, kMaxChunks> chunks_;
  int32_t size_ = 0;
};

// The chunk arithmetic does not depend on T.
static_assert(ChunkedStore<char>::ChunkOf(INT32_MAX) ==
                  ChunkedStore<char>::kMaxChunks - 1,
              "every non-negative int32 id must map to a chunk");

}  // namespace internal

class TransitionPlane {
 public:
  using StateId = automata::StateId;

  /// A hash-consed evaluation configuration: the selecting states occupied
  /// at a node, which were entered by the label move itself (seeds), and the
  /// AFA states requested there -- plus everything the per-node hot paths
  /// need, precomputed at intern time. Immutable once published except the
  /// atomic lazy tables.
  struct Config {
    std::vector<StateId> mstates;  // sorted
    std::vector<char> seeds;       // aligned with mstates
    std::vector<StateId> freq;     // sorted
    bool any_annotated = false;
    bool dead = false;  // both sets empty: prune the subtree
    bool has_final = false;
    // Precomputed views of freq: final-state positions, and transition
    // states with their move labels PRE-BOUND to document label ids.
    struct FreqTrans {
      int idx;
      StateId target;
      LabelId tree_label;  // kNoLabel when the document never saw the label
      bool wildcard;
    };
    std::vector<int> finals;
    std::vector<FreqTrans> ftrans;
    // Same-node operator states in STRATIFIED sweep order (CompiledMfa
    // afa_rank): operands precede operators except across genuine Kleene
    // cycles, so a single ascending sweep reaches the fixpoint unless
    // needs_iteration is set (some operand shares an SCC with its operator).
    struct OpSpec {
      automata::AfaKind kind;
      int idx;
      int begin;
      int end;
    };
    std::vector<OpSpec> ops;
    std::vector<int> operand_pos;
    bool needs_iteration = false;
    // Annotated / final selecting states: (index into mstates, position of
    // the AFA entry in freq, -1 if pruned) / indices into mstates.
    std::vector<std::pair<int, int>> annotated;
    std::vector<int> final_mstates;
    // Intra-node ε-edges (i, j) within mstates, for cans wiring.
    std::vector<std::pair<int32_t, int32_t>> eps_pairs;

    /// Simple = no AFA requests, nothing annotated: outside a region the
    /// engine's whole per-node behavior is determined by the config id.
    bool IsSimple() const { return freq.empty() && !any_annotated; }

    // ---- lazy transition tables (see the design note) ----
    // Without an index: one packed (config, aux) atomic per tree label;
    // kEmptySlot until computed.
    std::unique_ptr<std::atomic<uint64_t>[]> next;
    // With an index: per tree label, a lock-free prepend-only list of
    // (label-set id, successor) nodes (distinct sets per (config, label)
    // are few, so a pointer walk beats hashing).
    struct EffNode {
      int32_t eff;
      SuccRef succ;
      EffNode* prev;
    };
    std::unique_ptr<std::atomic<EffNode*>[]> next_by_eff;
    // Relevant-label cache for jump mode (sorted; published by the flag).
    std::vector<LabelId> relevant;
    std::atomic<bool> relevant_ready{false};
  };

  /// Precomputed per-transition edge data: cans label edges (i in parent
  /// mstates, j in child mstates) and fstates↑ fold pairs. Content-interned
  /// so compositions over barren chains converge to a handful of ids.
  struct TransAux {
    std::vector<std::pair<int32_t, int32_t>> label_edges;
    std::vector<std::pair<int32_t, int32_t>> fold_pairs;
  };

  /// `tree`, `mfa` and `index` (may be null) must outlive the plane.
  /// `compiled` may be null: the plane then builds its own CompiledMfa.
  TransitionPlane(const xml::Tree& tree, const automata::Mfa& mfa,
                  std::shared_ptr<const automata::CompiledMfa> compiled,
                  const SubtreeLabelIndex* index);

  // Lock-free: the id must have been obtained from this plane.
  const Config& config(int32_t id) const { return configs_[id]; }
  const TransAux& aux(int32_t id) const { return aux_[id]; }

  /// The memoized successor of `config` on an element with `tree_label`
  /// below a subtree label-set `eff_set` (0 without an index). Lock-free
  /// when already computed; otherwise computes under the writer lock and
  /// adds the number of configurations interned by the call to `*interned`
  /// (may be null).
  SuccRef Transition(int32_t config, LabelId tree_label, int32_t eff_set,
                     int64_t* interned);

  /// The context configuration for a context whose subtree label set is
  /// `context_set` (SubtreeLabelIndex::SetForContext; 0 without an index),
  /// or -1 when dead. Memoized per set id: the context node enters only
  /// through its label set, so all contexts sharing a set share the entry.
  int32_t ContextConfig(int32_t context_set, int64_t* interned);

  /// Composition of two aux edge mappings (i,j)x(j,k) -> (i,k), memoized;
  /// -1 when the composition is empty. Shared-locked on the hit path.
  int32_t ComposeAux(int32_t a, int32_t b);

  /// The RELEVANT labels of a configuration in no-index mode: tree labels
  /// whose memoized transition leaves `config`. Probing warms the lazy
  /// transition row. Lock-free once derived.
  std::span<const LabelId> RelevantLabels(int32_t config, int64_t* interned);

  /// Total configurations interned so far (across all attributed runs).
  int64_t configs_interned() const {
    return total_interned_.load(std::memory_order_relaxed);
  }

  /// Approximate resident bytes of the interned state: the allocated
  /// configuration and TransAux chunks (used or not), the configurations'
  /// precomputed views and lazy transition rows, the TransAux edge lists,
  /// and the memo tables. Takes the writer lock briefly; intended for stats
  /// endpoints and benches, not hot paths.
  int64_t ApproxBytes() const;

  const automata::CompiledMfa& compiled() const { return *compiled_; }
  const SubtreeLabelIndex* index() const { return index_; }
  const xml::Tree& tree() const { return tree_; }

 private:
  struct Productive {
    std::vector<char> sel;
    std::vector<char> afa_cbt;
  };
  struct TreeEdge {
    LabelId label;  // document-side id (unbound labels are dropped)
    StateId to;
  };

  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
  static uint64_t Pack(SuccRef s) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(s.aux)) << 32) |
           static_cast<uint32_t>(s.config);
  }
  static SuccRef Unpack(uint64_t v) {
    return {static_cast<int32_t>(v & 0xFFFFFFFFu),
            static_cast<int32_t>(v >> 32)};
  }

  std::span<const TreeEdge> EdgesOf(StateId s) const {
    return {edges_.data() + edge_begin_[s], edges_.data() + edge_begin_[s + 1]};
  }

  // All *Locked methods require the writer lock.
  SuccRef TransitionLocked(int32_t config, LabelId tree_label, int32_t eff_set,
                           int64_t* interned);
  SuccRef ComputeTransitionLocked(int32_t config, LabelId tree_label,
                                  int32_t eff_set);
  int32_t ContextConfigLocked(int32_t context_set);
  int32_t InternConfigLocked();  // interns the tmp_* scratch triple
  int32_t InternAuxLocked(int32_t from, LabelId tree_label, int32_t to);
  int32_t InternAuxContentLocked(TransAux aux);
  const Productive& ProductiveForLocked(int32_t set_id);
  void RestrictToSeedReachableLocked(std::vector<StateId>* mstates,
                                     std::vector<char>* seeds);

  const xml::Tree& tree_;
  const automata::Mfa& mfa_;
  std::shared_ptr<const automata::CompiledMfa> compiled_;
  const SubtreeLabelIndex* index_;
  int32_t num_tree_labels_;

  // Document-side binding of the CompiledMfa, built once: labeled NFA moves
  // in tree-label space (CSR; unbound labels dropped -- they can never
  // match), and per-AFA-state bound move labels.
  std::vector<int32_t> edge_begin_;
  std::vector<TreeEdge> edges_;
  std::vector<LabelId> afa_tree_label_;

  // One writer at a time; hit paths are lock-free (atomics) or take a
  // shared lock (compose / root memos).
  mutable std::shared_mutex mu_;

  internal::ChunkedStore<Config> configs_;
  internal::ChunkedStore<TransAux> aux_;
  std::deque<Config::EffNode> eff_nodes_;  // stable node storage
  std::unordered_map<uint64_t, std::vector<int32_t>> config_buckets_;
  std::unordered_map<uint64_t, std::vector<int32_t>> aux_buckets_;
  std::unordered_map<uint64_t, int32_t> compose_memo_;
  std::unordered_map<int32_t, int32_t> root_config_cache_;  // by set id
  std::unordered_map<int32_t, Productive> productive_cache_;
  std::atomic<int64_t> total_interned_{0};

  // Intern scratch (writer lock held).
  std::vector<int64_t> nfa_mark_;
  std::vector<int64_t> nfa_mark2_;
  std::vector<int64_t> afa_mark_;
  int64_t nfa_epoch_ = 0;
  int64_t nfa_epoch2_ = 0;
  int64_t afa_epoch_ = 0;
  std::vector<std::pair<StateId, char>> tagged_;
  std::vector<StateId> reach_work_;
  std::vector<StateId> tmp_m_;
  std::vector<char> tmp_seeds_;
  std::vector<StateId> tmp_f_;
};

/// A per-document registry of transition planes, keyed by MFA identity. One
/// store is owned by each exec::QueryService (so successive batches and
/// evaluator-cache rebuilds stay warm), by each policy::RoleCatalog
/// partition, and by each ShardedBatchEvaluator that was not handed one (so
/// its probes, shard workers, and fallback share planes among themselves).
/// Thread-safe. A new plane is built outside the store's mutex, and planes
/// evicted by the capacity bound are destroyed after it is released, so the
/// lock covers only the hash lookup and the O(1) LRU bookkeeping.
class TransitionPlaneStore {
 public:
  struct Options {
    /// Soft cap on retained planes: beyond it, the least recently used
    /// entries that no engine still references are dropped. 0 = unbounded
    /// (fine when the caller's MFA set is fixed, e.g. one evaluator).
    size_t capacity = 0;
  };

  /// `tree` and `index` must outlive the store; every plane it creates uses
  /// them. Engines fed from one store must evaluate over this same tree and
  /// index.
  TransitionPlaneStore(const xml::Tree& tree, const SubtreeLabelIndex* index,
                       Options options)
      : tree_(tree), index_(index), options_(options) {}
  TransitionPlaneStore(const xml::Tree& tree, const SubtreeLabelIndex* index)
      : TransitionPlaneStore(tree, index, Options{}) {}

  /// The shared plane for `mfa`, created on first use. `compiled` seeds the
  /// creation with an already-built CSR mirror (e.g. from the
  /// rewrite::RewriteCache); null lets the plane build its own. `keep_alive`
  /// pins the MFA's lifetime to the entry -- pass it whenever the MFA is
  /// refcounted and may die before the store does (the QueryService does;
  /// callers whose MFAs are guaranteed to outlive the store may omit it).
  /// Every call marks the plane most recently used. When two threads
  /// create the same plane at once, both get the one installed first.
  std::shared_ptr<TransitionPlane> For(
      const automata::Mfa* mfa,
      std::shared_ptr<const automata::CompiledMfa> compiled = nullptr,
      std::shared_ptr<const automata::Mfa> keep_alive = nullptr);

  size_t size() const;
  const SubtreeLabelIndex* index() const { return index_; }

  /// Resident planes, lifetime evictions, and the aggregate interned
  /// footprint across resident planes. Walks every plane; cheap at serving
  /// scale but not free -- stats endpoints, not hot paths.
  PlaneStoreStats stats() const;

 private:
  struct Entry {
    const automata::Mfa* mfa;
    std::shared_ptr<TransitionPlane> plane;
    std::shared_ptr<const automata::Mfa> keep_alive;
  };
  using Lru = std::list<Entry>;  // most recently used first

  // Moves entries beyond capacity that nothing else references, coldest
  // first, into *evicted (destroyed by the caller once mu_ is released).
  // mu_ held.
  void EvictLocked(std::vector<Entry>* evicted);

  const xml::Tree& tree_;
  const SubtreeLabelIndex* index_;
  Options options_;
  mutable std::mutex mu_;
  int64_t evictions_ = 0;
  Lru lru_;
  std::unordered_map<const automata::Mfa*, Lru::iterator> planes_;
};

}  // namespace smoqe::hype

#endif  // SMOQE_HYPE_TRANSITION_PLANE_H_
