// Implementation of both propagation strategies. See consistency_engine.h for the
// model; the delta rule used by the incremental visit is
//
//   raw' = (raw ∖ Δ) ∪ Eval(query, scope' ∩ Δ)
//
// which is exact for any Δ that covers every doc whose membership could have changed:
// the evaluator decides membership pointwise per document, so docs outside Δ with
// unchanged scope membership, index state and dir()-reference status keep their old
// verdict. Δ is assembled per visit from four sources: the scope diff against the
// cached scope, the global doc-change log since this directory's watermark, the
// in-pass contents deltas of its dependencies, and its own origin delta.
#include "src/core/consistency_engine.h"

#include <algorithm>

#include "src/core/hac_file_system.h"
#include "src/index/query_optimizer.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"
#include "src/vfs/path.h"

namespace hac {

namespace {

// Process-global twins of the per-instance StatsSnapshot counters (which tests and
// ablations still read per HacFileSystem). References are resolved once.
struct EngineMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& query_evaluations = reg.GetCounter(metric_names::kConsistencyQueryEvaluations);
  Counter& delta_evaluations = reg.GetCounter(metric_names::kConsistencyDeltaEvaluations);
  Counter& scope_propagations = reg.GetCounter(metric_names::kConsistencyScopePropagations);
  Counter& short_circuits = reg.GetCounter(metric_names::kConsistencyShortCircuits);
  Counter& batch_flushes = reg.GetCounter(metric_names::kConsistencyBatchFlushes);
  Counter& batched_mutations = reg.GetCounter(metric_names::kConsistencyBatchedMutations);
  Counter& passes = reg.GetCounter(metric_names::kConsistencyPasses);
  Counter& transient_added = reg.GetCounter(metric_names::kLinksTransientAdded);
  Counter& transient_removed = reg.GetCounter(metric_names::kLinksTransientRemoved);
  Histogram& pass_us = reg.GetHistogram(metric_names::kConsistencyPassUs);
};

EngineMetrics& GM() {
  static EngineMetrics* m = new EngineMetrics();
  return *m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Notifications
// ---------------------------------------------------------------------------

Result<void> ConsistencyEngine::NotifyScopeChanged(DirUid uid, const Bitmap* contents_delta) {
  if (suspended_) {
    return OkResult();  // persistence replay: one global pass runs at the end
  }
  if (mode_ == ConsistencyMode::kEager) {
    if (in_pass_) {
      return OkResult();  // the outer propagation already covers this change
    }
    return SyncFrom(uid);
  }
  if (auto meta = host_->MetaOfUid(uid); meta.ok()) {
    ++meta.value()->scope_epoch;  // dependents' epoch sums now mismatch
  }
  Bitmap& slot = pending_origins_[uid];
  if (contents_delta != nullptr) {
    slot |= *contents_delta;
  }
  if (in_pass_) {
    return OkResult();  // folded into the next flush (remote imports, mid-pass edits)
  }
  if (batch_depth_ > 0) {
    ++host_->stats_.batched_mutations;
    GM().batched_mutations.Inc();
    batch_dirty_ = true;
    return OkResult();
  }
  return Flush();
}

void ConsistencyEngine::NoteDocChanged(DocId doc) {
  if (mode_ == ConsistencyMode::kEager || suspended_ || doc == kInvalidDocId) {
    return;  // eager visits always re-evaluate in full; no log needed
  }
  AppendDocLog(doc);
}

void ConsistencyEngine::InvalidateCache(DirUid uid) {
  if (auto meta = host_->MetaOfUid(uid); meta.ok()) {
    meta.value()->eval.Invalidate();
  }
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

Result<void> ConsistencyEngine::SyncFrom(DirUid uid) {
  if (suspended_ || in_pass_) {
    return OkResult();
  }
  if (mode_ == ConsistencyMode::kEager) {
    TraceSpan span(metric_names::kSpanConsistencyPass);
    const uint64_t t0 = kMetricsCompiledIn ? TraceRing::NowUs() : 0;
    in_pass_ = true;
    uint64_t visited = 1;
    Result<void> status = VisitEager(uid);
    ++host_->stats_.scope_propagations;
    GM().scope_propagations.Inc();
    if (status.ok()) {
      for (DirUid dep : host_->graph_.DependentsInTopoOrder(uid)) {
        status = VisitEager(dep);
        ++host_->stats_.scope_propagations;
        GM().scope_propagations.Inc();
        ++visited;
        if (!status.ok()) {
          break;
        }
      }
    }
    in_pass_ = false;
    GM().passes.Inc();
    if (kMetricsCompiledIn) {
      GM().pass_us.Record(TraceRing::NowUs() - t0);
    }
    span.Arg("origins", 1);
    span.Arg("visited", visited);
    return status;
  }
  if (batch_dirty_) {
    ++host_->stats_.batch_flushes;
    GM().batch_flushes.Inc();
    batch_dirty_ = false;
  }
  std::map<DirUid, Bitmap> origins = std::move(pending_origins_);
  pending_origins_.clear();
  origins[uid];  // an explicit sync never short-circuits the target itself
  return RunPass(std::move(origins), /*full=*/false);
}

Result<void> ConsistencyEngine::PropagateAll() {
  if (suspended_ || in_pass_) {
    return OkResult();
  }
  if (mode_ == ConsistencyMode::kEager) {
    TraceSpan span(metric_names::kSpanConsistencyPass);
    const uint64_t t0 = kMetricsCompiledIn ? TraceRing::NowUs() : 0;
    in_pass_ = true;
    uint64_t visited = 0;
    Result<void> status = OkResult();
    for (DirUid uid : host_->graph_.FullTopoOrder()) {
      status = VisitEager(uid);
      ++host_->stats_.scope_propagations;
      GM().scope_propagations.Inc();
      ++visited;
      if (!status.ok()) {
        break;
      }
    }
    in_pass_ = false;
    GM().passes.Inc();
    if (kMetricsCompiledIn) {
      GM().pass_us.Record(TraceRing::NowUs() - t0);
    }
    span.Arg("visited", visited);
    return status;
  }
  if (batch_dirty_) {
    ++host_->stats_.batch_flushes;
    GM().batch_flushes.Inc();
    batch_dirty_ = false;
  }
  std::map<DirUid, Bitmap> origins = std::move(pending_origins_);
  pending_origins_.clear();
  return RunPass(std::move(origins), /*full=*/true);
}

Result<void> ConsistencyEngine::EndBatch() {
  if (batch_depth_ == 0) {
    return Error(ErrorCode::kInvalidArgument, "EndBatch without matching BeginBatch");
  }
  if (--batch_depth_ > 0) {
    return OkResult();  // only the outermost EndBatch flushes
  }
  return Flush();
}

Result<void> ConsistencyEngine::Flush() {
  if (suspended_ || in_pass_ || mode_ == ConsistencyMode::kEager) {
    return OkResult();  // eager never defers anything
  }
  if (pending_origins_.empty()) {
    return OkResult();
  }
  if (batch_dirty_) {
    ++host_->stats_.batch_flushes;
    GM().batch_flushes.Inc();
    batch_dirty_ = false;
  }
  std::map<DirUid, Bitmap> origins = std::move(pending_origins_);
  pending_origins_.clear();
  return RunPass(std::move(origins), /*full=*/false);
}

Result<void> ConsistencyEngine::RunPass(std::map<DirUid, Bitmap> origins, bool full) {
  TraceSpan span(metric_names::kSpanConsistencyPass);
  const uint64_t t0 = kMetricsCompiledIn ? TraceRing::NowUs() : 0;
  const uint64_t evals_before =
      host_->stats_.query_evaluations + host_->stats_.delta_evaluations;
  const uint64_t short_circuits_before = host_->stats_.short_circuit_propagations;
  in_pass_ = true;
  ++gen_;
  std::vector<std::vector<DirUid>> levels;
  if (full) {
    levels = host_->graph_.FullLevels();
  } else {
    std::vector<DirUid> sources;
    sources.reserve(origins.size());
    for (const auto& [uid, delta] : origins) {
      sources.push_back(uid);
    }
    levels = host_->graph_.AffectedInLevels(sources);
  }
  size_t visited = 0;
  for (const auto& level : levels) {
    visited += level.size();
  }
  // How each directory's contents changed within THIS pass, seeded with the origins'
  // mutation deltas. dir() dependents re-evaluate exactly over these docs.
  std::unordered_map<DirUid, Bitmap> contents_delta;
  for (const auto& [uid, delta] : origins) {
    if (!delta.Empty()) {
      contents_delta[uid] |= delta;
    }
  }
  Result<void> status = OkResult();
  for (auto level = levels.begin(); status.ok() && level != levels.end(); ++level) {
    for (auto uid = level->begin(); status.ok() && uid != level->end(); ++uid) {
      status = VisitIncremental(*uid, origins, &contents_delta);
    }
  }
  in_pass_ = false;
  GM().passes.Inc();
  if (kMetricsCompiledIn) {
    GM().pass_us.Record(TraceRing::NowUs() - t0);
  }
  span.Arg("origins", origins.size());
  span.Arg("visited", visited);
  span.Arg("levels", levels.size());
  span.Arg("docs_reevaluated",
           host_->stats_.query_evaluations + host_->stats_.delta_evaluations -
               evals_before);
  span.Arg("cache_hits",
           host_->stats_.short_circuit_propagations - short_circuits_before);
  if (!status.ok()) {
    // Hand the unconsumed deltas back so the next flush retries; dropping them would
    // let downstream caches go quietly stale.
    for (auto& [uid, delta] : origins) {
      pending_origins_[uid] |= delta;
    }
    return status;
  }
  CompactDocLog();
  return OkResult();
}

// ---------------------------------------------------------------------------
// Visits
// ---------------------------------------------------------------------------

Result<void> ConsistencyEngine::VisitEager(DirUid uid) {
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, host_->MetaOfUid(uid));
  if (!meta->IsSemantic()) {
    return OkResult();  // syntactic directories own no transient links
  }
  HAC_ASSIGN_OR_RETURN(std::string path, host_->uid_map_.PathOf(uid));
  std::string parent_path = DirName(path);

  // If the parent is a semantic mount point, the query's scope includes the mounted
  // name spaces: forward the content part and import the results first (section 3.1).
  if (const SemanticMount* mount = host_->mounts_.FindSemanticAt(parent_path);
      mount != nullptr) {
    HAC_RETURN_IF_ERROR(host_->ImportRemoteResults(*mount, *meta->query));
    HAC_ASSIGN_OR_RETURN(meta, host_->MetaOfUid(uid));  // imports may rehash metadata_
  }

  // Hierarchical refinement: the query is evaluated against the scope the parent
  // provides (equivalent to the paper's `<query> AND dir(parent)` encoding, since the
  // evaluator interprets NOT relative to the supplied scope). User-written dir()
  // references resolve to the referenced directory's own contents.
  HAC_ASSIGN_OR_RETURN(DirUid parent_uid, host_->uid_map_.UidOf(parent_path));
  HAC_ASSIGN_OR_RETURN(Bitmap parent_scope, host_->ScopeOfUid(parent_uid));

  DirResolver resolver = [this](DirUid ref) -> Result<Bitmap> {
    return host_->DirContentsOfUid(ref);
  };
  ++host_->stats_.query_evaluations;
  GM().query_evaluations.Inc();
  // The stored query stays as written (GetQuery renders it back); evaluation runs the
  // optimized form, re-derived here so selectivity ordering uses current statistics.
  QueryExprPtr optimized = OptimizeQuery(meta->query->Clone(), host_->index_.get());
  HAC_ASSIGN_OR_RETURN(Bitmap raw,
                       host_->index_->Evaluate(*optimized, parent_scope, &resolver));

  Bitmap transient_delta;
  return MaterializeTransients(uid, path, raw, /*refresh_filter=*/nullptr,
                               &transient_delta);
}

Result<void> ConsistencyEngine::VisitIncremental(
    DirUid uid, const std::map<DirUid, Bitmap>& origins,
    std::unordered_map<DirUid, Bitmap>* contents_delta) {
  auto meta_or = host_->MetaOfUid(uid);
  if (!meta_or.ok()) {
    return OkResult();  // removed while the batch was open
  }
  DirMetadata* meta = meta_or.value();
  const bool is_origin = origins.count(uid) != 0;

  if (!meta->IsSemantic()) {
    // Scope-transparent bookkeeping: a syntactic directory passes its parent's scope
    // through, so an upstream change must bump its epoch for its own dependents to
    // notice. The stored dep_epoch_sum (no cached result needed) detects "upstream
    // actually moved" vs "visited for nothing".
    const uint64_t dep_epoch_sum = DepEpochSum(uid);
    if (is_origin || dep_epoch_sum != meta->eval.dep_epoch_sum) {
      ++meta->scope_epoch;
    }
    meta->eval.dep_epoch_sum = dep_epoch_sum;
    return OkResult();
  }

  HAC_ASSIGN_OR_RETURN(std::string path, host_->uid_map_.PathOf(uid));
  std::string parent_path = DirName(path);

  // If the parent is a semantic mount point, the query's scope includes the mounted
  // name spaces. Each visit re-imports (the remote side may have new results for the
  // same query) and never short-circuits.
  const SemanticMount* mount = host_->mounts_.FindSemanticAt(parent_path);
  if (mount != nullptr) {
    HAC_RETURN_IF_ERROR(host_->ImportRemoteResults(*mount, *meta->query));
    meta_or = host_->MetaOfUid(uid);  // imports may rehash metadata_
    if (!meta_or.ok()) {
      return OkResult();
    }
    meta = meta_or.value();
  }

  const uint64_t dep_epoch_sum = DepEpochSum(uid);
  Bitmap doc_delta = DocDeltaSince(meta->eval.doc_gen_seen);
  std::vector<DirUid> deps = host_->graph_.DependenciesOf(uid);
  bool dep_changed = false;
  for (DirUid dep : deps) {
    auto it = contents_delta->find(dep);
    if (it != contents_delta->end() && !it->second.Empty()) {
      dep_changed = true;
      break;
    }
  }

  // Short-circuit: nothing this directory reads has changed since its last visit.
  if (mount == nullptr && meta->eval.valid && !is_origin &&
      dep_epoch_sum == meta->eval.dep_epoch_sum && doc_delta.Empty() && !dep_changed) {
    ++host_->stats_.short_circuit_propagations;
    GM().short_circuits.Inc();
    meta->eval.doc_gen_seen = gen_ - 1;
    return OkResult();
  }

  HAC_ASSIGN_OR_RETURN(DirUid parent_uid, host_->uid_map_.UidOf(parent_path));
  HAC_ASSIGN_OR_RETURN(Bitmap parent_scope, host_->ScopeOfUid(parent_uid));
  DirResolver resolver = [this](DirUid ref) -> Result<Bitmap> {
    return host_->DirContentsOfUid(ref);
  };
  QueryExprPtr optimized = OptimizeQuery(meta->query->Clone(), host_->index_.get());

  Bitmap raw;
  Bitmap delta;
  const bool full_eval = !meta->eval.valid;
  if (full_eval) {
    ++host_->stats_.query_evaluations;
    GM().query_evaluations.Inc();
    HAC_ASSIGN_OR_RETURN(raw, host_->index_->Evaluate(*optimized, parent_scope, &resolver));
  } else {
    Bitmap scope_added, scope_removed;
    meta->eval.scope.DiffWith(parent_scope, &scope_added, &scope_removed);
    delta = std::move(scope_added);
    delta |= scope_removed;
    delta |= doc_delta;
    for (DirUid dep : deps) {
      if (auto it = contents_delta->find(dep); it != contents_delta->end()) {
        delta |= it->second;
      }
    }
    if (auto it = origins.find(uid); it != origins.end()) {
      delta |= it->second;
    }
    raw = meta->eval.raw_result;
    raw.AndNot(delta);
    Bitmap eval_scope = parent_scope;
    eval_scope &= delta;
    if (!eval_scope.Empty()) {
      ++host_->stats_.delta_evaluations;
      GM().delta_evaluations.Inc();
      HAC_ASSIGN_OR_RETURN(Bitmap part,
                           host_->index_->Evaluate(*optimized, eval_scope, &resolver));
      raw |= part;
    }
  }

  ++host_->stats_.scope_propagations;
  GM().scope_propagations.Inc();
  Bitmap transient_delta;
  HAC_RETURN_IF_ERROR(MaterializeTransients(uid, path, raw,
                                            full_eval ? nullptr : &delta,
                                            &transient_delta));
  HAC_ASSIGN_OR_RETURN(meta, host_->MetaOfUid(uid));
  if (!transient_delta.Empty()) {
    ++meta->scope_epoch;
    (*contents_delta)[uid] |= transient_delta;
  }
  meta->eval.valid = true;
  meta->eval.raw_result = std::move(raw);
  meta->eval.scope = std::move(parent_scope);
  meta->eval.dep_epoch_sum = dep_epoch_sum;  // deps finalized in earlier levels
  meta->eval.doc_gen_seen = gen_ - 1;  // in-pass entries re-apply next pass: idempotent
  return OkResult();
}

Result<void> ConsistencyEngine::MaterializeTransients(DirUid uid, const std::string& path,
                                                      const Bitmap& raw,
                                                      const Bitmap* refresh_filter,
                                                      Bitmap* transient_delta) {
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, host_->MetaOfUid(uid));
  // A file physically sitting in this very directory is already "here": no self-link.
  Bitmap result = raw;
  result.AndNot(host_->registry_.DirectChildrenOf(path));

  // The user's edits always win: permanent links are never re-derived, prohibited links
  // never return.
  Bitmap new_transient = result;
  new_transient.AndNot(meta->links.permanent());
  new_transient.AndNot(meta->links.prohibited());

  // Materialize the diff as symlink churn in the VFS.
  Bitmap old_transient = meta->links.transient();
  Bitmap removed = old_transient;
  removed.AndNot(new_transient);
  Bitmap added = new_transient;
  added.AndNot(old_transient);

  Result<void> status = OkResult();
  removed.ForEach([&](DocId doc) {
    if (!status.ok()) {
      return;
    }
    auto name = meta->links.NameOf(doc);
    if (!name.ok()) {
      return;
    }
    (void)meta->links.RemoveLink(name.value());
    (void)host_->vfs_.Unlink(JoinPath(path == "/" ? "" : path, name.value()));
    ++host_->stats_.transient_links_removed;
    GM().transient_removed.Inc();
  });
  HAC_RETURN_IF_ERROR(status);

  auto taken = [this, &path](const std::string& candidate) {
    return host_->vfs_.Exists(JoinPath(path == "/" ? "" : path, candidate));
  };
  added.ForEach([&](DocId doc) {
    if (!status.ok()) {
      return;
    }
    const FileRecord* rec = host_->registry_.Get(doc);
    if (rec == nullptr || !rec->alive) {
      return;
    }
    std::string name = meta->links.UniqueName(BaseName(rec->path), taken);
    Result<void> s =
        host_->vfs_.Symlink(rec->path, JoinPath(path == "/" ? "" : path, name));
    if (!s.ok()) {
      status = s;
      return;
    }
    s = meta->links.AddLink(name, doc, LinkClass::kTransient);
    if (!s.ok()) {
      status = s;
      return;
    }
    ++host_->stats_.transient_links_added;
    GM().transient_added.Inc();
  });
  HAC_RETURN_IF_ERROR(status);

  // Refresh stale symlink targets (files may have been renamed since materialization).
  // An incremental visit only needs to look at links whose doc is in the delta — a
  // rename always logs the doc, so anything outside the delta still points right.
  for (const auto& [name, rec] : meta->links.links()) {
    if (rec.doc == kInvalidDocId) {
      continue;
    }
    if (refresh_filter != nullptr && !refresh_filter->Test(rec.doc)) {
      continue;
    }
    const FileRecord* file = host_->registry_.Get(rec.doc);
    if (file == nullptr || !file->alive) {
      continue;
    }
    std::string link_path = JoinPath(path == "/" ? "" : path, name);
    auto target = host_->vfs_.ReadLink(link_path);
    if (target.ok() && target.value() != file->path) {
      (void)host_->vfs_.Unlink(link_path);
      (void)host_->vfs_.Symlink(file->path, link_path);
    }
  }

  *transient_delta = old_transient;
  *transient_delta ^= new_transient;
  return OkResult();
}

// ---------------------------------------------------------------------------
// Bookkeeping
// ---------------------------------------------------------------------------

uint64_t ConsistencyEngine::DepEpochSum(DirUid uid) const {
  // Epochs are monotone, so an unchanged SUM implies every term is unchanged.
  uint64_t sum = 0;
  for (DirUid dep : host_->graph_.DependenciesOf(uid)) {
    auto it = host_->metadata_.find(dep);
    if (it != host_->metadata_.end()) {
      sum += it->second.scope_epoch;
    }
  }
  return sum;
}

Bitmap ConsistencyEngine::DocDeltaSince(uint64_t gen_seen) const {
  Bitmap out;
  for (const auto& [gen, docs] : doc_log_) {
    if (gen > gen_seen) {
      out |= docs;
    }
  }
  return out;
}

void ConsistencyEngine::AppendDocLog(DocId doc) {
  if (doc_log_.empty() || doc_log_.back().first != gen_) {
    doc_log_.emplace_back(gen_, Bitmap());
  }
  doc_log_.back().second.Set(doc);
}

void ConsistencyEngine::CompactDocLog() {
  if (doc_log_.empty()) {
    return;
  }
  uint64_t min_seen = UINT64_MAX;
  bool any_cached = false;
  for (const auto& [uid, meta] : host_->metadata_) {
    if (meta.IsSemantic() && meta.eval.valid) {
      any_cached = true;
      min_seen = std::min(min_seen, meta.eval.doc_gen_seen);
    }
  }
  if (!any_cached) {
    doc_log_.clear();  // cold caches full-evaluate; the log has no reader
    return;
  }
  auto first_kept = std::find_if(doc_log_.begin(), doc_log_.end(),
                                 [&](const auto& e) { return e.first > min_seen; });
  doc_log_.erase(doc_log_.begin(), first_kept);
}

}  // namespace hac
