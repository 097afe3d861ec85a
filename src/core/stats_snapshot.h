// One counter surface for the whole stack. HacFileSystem::Stats() returns a
// StatsSnapshot that flattens the facade's own counters and embeds the component views
// (the index's CbaStats, the VFS's FsStats) that used to require three separate calls.
//
// The facade counts its events in one place: FacadeMetrics, resolved once in the
// facade's own MetricsRegistry (a child of MetricsRegistry::Global(), so the global
// view sums every facade in the process). StatsSnapshot is a plain value that
// Stats() fills from those counters.
#ifndef HAC_CORE_STATS_SNAPSHOT_H_
#define HAC_CORE_STATS_SNAPSHOT_H_

#include <cstdint>

#include "src/index/cba.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/vfs/fs_stats.h"

namespace hac {

struct StatsSnapshot {
  // --- scope-consistency engine ---
  uint64_t query_evaluations = 0;   // full query evaluations (cold cache, eager mode)
  uint64_t delta_evaluations = 0;   // incremental re-evaluations over a delta bitmap
  uint64_t scope_propagations = 0;  // directories actually recomputed by passes
  uint64_t short_circuit_propagations = 0;  // visits skipped: nothing upstream changed
  uint64_t batch_flushes = 0;       // batched passes run (EndBatch or a forced flush)
  uint64_t batched_mutations = 0;   // mutations coalesced inside Begin/EndBatch
  uint64_t transient_links_added = 0;
  uint64_t transient_links_removed = 0;

  // --- deferred data consistency ---
  uint64_t docs_indexed = 0;
  uint64_t docs_purged = 0;
  uint64_t auto_reindexes = 0;

  // --- remote semantic mounts ---
  uint64_t remote_searches = 0;
  uint64_t remote_imports = 0;

  // --- shared attribute cache ---
  uint64_t attr_cache_hits = 0;
  uint64_t attr_cache_misses = 0;

  // --- component views ---
  CbaStats index;  // content-based access mechanism (documents, terms, postings)
  FsStats vfs;     // underlying VFS call counts
};

// The facade's metrics, resolved once in its registry: the consistency engine,
// reindexing, remote mounts and the attribute cache record here and nowhere else.
struct FacadeMetrics {
  explicit FacadeMetrics(MetricsRegistry& reg)
      : query_evaluations(reg.GetCounter(metric_names::kConsistencyQueryEvaluations)),
        delta_evaluations(reg.GetCounter(metric_names::kConsistencyDeltaEvaluations)),
        scope_propagations(reg.GetCounter(metric_names::kConsistencyScopePropagations)),
        short_circuits(reg.GetCounter(metric_names::kConsistencyShortCircuits)),
        batch_flushes(reg.GetCounter(metric_names::kConsistencyBatchFlushes)),
        batched_mutations(reg.GetCounter(metric_names::kConsistencyBatchedMutations)),
        passes(reg.GetCounter(metric_names::kConsistencyPasses)),
        transient_added(reg.GetCounter(metric_names::kLinksTransientAdded)),
        transient_removed(reg.GetCounter(metric_names::kLinksTransientRemoved)),
        docs_indexed(reg.GetCounter(metric_names::kReindexDocsIndexed)),
        docs_purged(reg.GetCounter(metric_names::kReindexDocsPurged)),
        auto_reindexes(reg.GetCounter(metric_names::kReindexAuto)),
        remote_searches(reg.GetCounter(metric_names::kRemoteSearches)),
        remote_imports(reg.GetCounter(metric_names::kRemoteImports)),
        attr_cache_hits(reg.GetCounter(metric_names::kAttrCacheHits)),
        attr_cache_misses(reg.GetCounter(metric_names::kAttrCacheMisses)),
        pass_us(reg.GetHistogram(metric_names::kConsistencyPassUs)) {}

  Counter& query_evaluations;
  Counter& delta_evaluations;
  Counter& scope_propagations;
  Counter& short_circuits;
  Counter& batch_flushes;
  Counter& batched_mutations;
  Counter& passes;
  Counter& transient_added;
  Counter& transient_removed;
  Counter& docs_indexed;
  Counter& docs_purged;
  Counter& auto_reindexes;
  Counter& remote_searches;
  Counter& remote_imports;
  Counter& attr_cache_hits;
  Counter& attr_cache_misses;
  Histogram& pass_us;
};

}  // namespace hac

#endif  // HAC_CORE_STATS_SNAPSHOT_H_
