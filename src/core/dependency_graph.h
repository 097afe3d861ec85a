// The dependency graph of section 2.5: node per directory, edge Y -> X when X's
// query-result depends on Y (X's parent, or a dir(Y) reference inside X's query).
//
// The graph must stay a DAG; SetDependencies rejects updates that would close a cycle.
// Updates after a change at `uid` run over DependentsInTopoOrder(uid), a topological
// order of everything reachable from `uid` (Kahn's algorithm restricted to the affected
// subgraph) — the paper's "order obtained from a topological sort".
#ifndef HAC_CORE_DEPENDENCY_GRAPH_H_
#define HAC_CORE_DEPENDENCY_GRAPH_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/index/query.h"  // DirUid
#include "src/support/result.h"

namespace hac {

class DependencyGraph {
 public:
  // Creates an isolated node. Fails with kAlreadyExists when present.
  Result<void> AddNode(DirUid uid);

  bool HasNode(DirUid uid) const { return deps_.count(uid) != 0; }

  // Replaces `uid`'s dependency set. Every dep must exist. Rejects self-loops and any
  // update that would create a cycle (kCycle), leaving the graph unchanged.
  Result<void> SetDependencies(DirUid uid, const std::vector<DirUid>& new_deps);

  // Removes a node. Fails with kBusy if any other node depends on it.
  Result<void> RemoveNode(DirUid uid);

  // Dependencies of `uid` (what it reads from).
  std::vector<DirUid> DependenciesOf(DirUid uid) const;
  // Direct dependents of `uid` (who reads from it).
  std::vector<DirUid> DirectDependentsOf(DirUid uid) const;

  // All nodes reachable from `uid` along dependent edges, in topological order,
  // excluding `uid` itself.
  std::vector<DirUid> DependentsInTopoOrder(DirUid uid) const;

  // The union of `sources` and everything reachable from any of them along dependent
  // edges, in topological order. This is the affected set of a batched flush: one
  // pass over AffectedInTopoOrder replaces one DependentsInTopoOrder pass per edit.
  std::vector<DirUid> AffectedInTopoOrder(const std::vector<DirUid>& sources) const;

  // Topological order of the whole graph (dependencies first).
  std::vector<DirUid> FullTopoOrder() const;

  // Levelled schedule of the affected subgraph: the same nodes AffectedInTopoOrder
  // returns, grouped into topological levels. A node's level is the longest
  // dependency path to it WITHIN the affected set, so every node's in-set
  // dependencies sit in strictly earlier levels and nodes sharing a level are
  // pairwise independent. Each level is sorted ascending and the flattened schedule
  // is a valid topological order: the canonical visit order of the consistency
  // engine's incremental passes.
  std::vector<std::vector<DirUid>> AffectedInLevels(
      const std::vector<DirUid>& sources) const;

  // Levelled schedule of the whole graph (Reindex / persistence-load passes).
  std::vector<std::vector<DirUid>> FullLevels() const;

  size_t NodeCount() const { return deps_.size(); }
  size_t EdgeCount() const;
  size_t SizeBytes() const;

 private:
  // True if `target` is reachable from `start` along dependent edges.
  bool Reaches(DirUid start, DirUid target) const;

  // Sources plus their dependent closure (the affected set of a pass).
  std::unordered_set<DirUid> AffectedSet(const std::vector<DirUid>& sources) const;

  // Kahn's algorithm over the subgraph induced by `nodes`, emitting whole ready
  // levels (each sorted ascending) instead of one node at a time.
  std::vector<std::vector<DirUid>> LevelsOf(const std::unordered_set<DirUid>& nodes) const;

  std::unordered_map<DirUid, std::unordered_set<DirUid>> deps_;        // uid -> reads-from
  std::unordered_map<DirUid, std::unordered_set<DirUid>> dependents_;  // uid -> read-by
};

}  // namespace hac

#endif  // HAC_CORE_DEPENDENCY_GRAPH_H_
