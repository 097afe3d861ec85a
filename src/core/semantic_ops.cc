// Semantic command layer: smkdir / schq / sreadq / ssync / sact / smount plus the
// link-class control API the paper exposes to "sophisticated users" (footnote 1).
#include <algorithm>
#include <cctype>

#include "src/core/hac_file_system.h"
#include "src/index/query_optimizer.h"
#include "src/support/string_util.h"
#include "src/vfs/path.h"

namespace hac {

Result<void> HacFileSystem::SMkdir(const std::string& path, const std::string& query) {
  HAC_RETURN_IF_ERROR(Mkdir(path));
  return SetQuery(path, query);
}

Result<void> HacFileSystem::SetQuery(const std::string& path, const std::string& query) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "queries live in the local name space");
  }
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.UidOf(r.path));
  if (uid == uid_map_.root_uid()) {
    return Error(ErrorCode::kPermission, "the root has no query");
  }
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, MetaOfUid(uid));

  if (TrimWhitespace(query).empty()) {
    // Revert to a syntactic directory: HAC-owned transient links disappear, the user's
    // permanent and prohibited bookkeeping stays. The cached evaluation and the
    // query's dependency-graph edges must go with the query — a stale cache here
    // would resurrect the old result set if a query is ever set again.
    meta->query_text.clear();
    QueryExprPtr old_query = std::move(meta->query);
    meta->query = nullptr;
    engine_->InvalidateCache(uid);
    Bitmap old_transient = meta->links.transient();
    Result<void> status = OkResult();
    old_transient.ForEach([&](DocId doc) {
      if (!status.ok()) {
        return;
      }
      auto name = meta->links.NameOf(doc);
      if (!name.ok()) {
        return;
      }
      (void)meta->links.RemoveLink(name.value());
      (void)vfs_.Unlink(JoinPath(r.path == "/" ? "" : r.path, name.value()));
      ++stats_.transient_links_removed;
    });
    HAC_RETURN_IF_ERROR(status);
    HAC_ASSIGN_OR_RETURN(std::vector<DirUid> deps, ComputeDeps(uid, r.path, nullptr));
    HAC_RETURN_IF_ERROR(graph_.SetDependencies(uid, deps));
    journal_.Append(JournalOp::kQuerySet, uid, r.path, "");
    // Dependents see every formerly provided transient doc as the delta.
    return engine_->NotifyScopeChanged(uid, &old_transient);
  }

  HAC_ASSIGN_OR_RETURN(QueryExprPtr ast, ParseQuery(query));
  // Bind dir() references to stable UIDs (section 2.5): queries never store paths.
  std::vector<QueryExpr*> refs;
  ast->CollectDirRefs(refs);
  for (QueryExpr* ref : refs) {
    if (ref->dir_uid != kInvalidDirUid) {
      continue;  // pre-bound (programmatic queries)
    }
    std::string ref_path = NormalizePath(ref->text);
    if (ref_path.empty()) {
      return Error(ErrorCode::kInvalidArgument,
                   "dir() needs an absolute path: " + ref->text);
    }
    HAC_ASSIGN_OR_RETURN(DirUid ref_uid, uid_map_.UidOf(ref_path));
    ref->dir_uid = ref_uid;
    ref->text.clear();
  }
  HAC_ASSIGN_OR_RETURN(std::vector<DirUid> deps, ComputeDeps(uid, r.path, ast.get()));
  // Cycle rejection happens here, before any state changes.
  HAC_RETURN_IF_ERROR(graph_.SetDependencies(uid, deps));
  meta->query_text = query;
  meta->query = std::move(ast);
  // A cached evaluation of the previous query says nothing about this one.
  engine_->InvalidateCache(uid);
  journal_.Append(JournalOp::kQuerySet, uid, r.path, query);
  return engine_->NotifyScopeChanged(uid);
}

Result<std::string> HacFileSystem::GetQuery(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "queries live in the local name space");
  }
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, MetaOfPath(r.path));
  if (!meta->IsSemantic()) {
    return std::string();
  }
  std::function<std::string(DirUid)> uid_to_path = [this](DirUid uid) {
    auto p = uid_map_.PathOf(uid);
    return p.ok() ? p.value() : "#" + std::to_string(uid);
  };
  return meta->query->ToString(&uid_to_path);
}

Result<void> HacFileSystem::SSync(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "ssync applies to the local name space");
  }
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.UidOf(r.path));
  return engine_->SyncFrom(uid);
}

Result<std::vector<std::string>> HacFileSystem::SAct(const std::string& link_path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(link_path));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "sact applies to the local name space");
  }
  HAC_RETURN_IF_ERROR(engine_->Flush());
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, MetaOfPath(DirName(r.path)));
  if (!meta->IsSemantic()) {
    return Error(ErrorCode::kNotSemantic, DirName(r.path) + " has no query");
  }
  HAC_ASSIGN_OR_RETURN(std::string body, vfs_.ReadFileToString(r.path));
  std::vector<std::string> matching;
  size_t start = 0;
  while (start <= body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) {
      end = body.size();
    }
    std::string_view line(body.data() + start, end - start);
    if (!line.empty() && index_->MatchesText(*meta->query, line)) {
      matching.emplace_back(line);
    }
    if (end == body.size()) {
      break;
    }
    start = end + 1;
  }
  return matching;
}

Result<HacFileSystem::PreparedSearch> HacFileSystem::PrepareSearch(
    const std::string& query, const std::string& scope_path) {
  HAC_ASSIGN_OR_RETURN(QueryExprPtr ast, ParseQuery(query));
  std::vector<QueryExpr*> refs;
  ast->CollectDirRefs(refs);
  for (QueryExpr* ref : refs) {
    std::string ref_path = NormalizePath(ref->text);
    if (ref_path.empty()) {
      return Error(ErrorCode::kInvalidArgument, "dir() needs an absolute path");
    }
    HAC_ASSIGN_OR_RETURN(DirUid ref_uid, uid_map_.UidOf(ref_path));
    ref->dir_uid = ref_uid;
    ref->text.clear();
  }
  HAC_ASSIGN_OR_RETURN(DirUid scope_uid, uid_map_.UidOf(scope_path));
  HAC_ASSIGN_OR_RETURN(Bitmap scope, CachedDirContents(scope_uid));
  DirResolver resolver = [this](DirUid uid) -> Result<Bitmap> {
    return this->DirContentsOfUid(uid);
  };
  return PreparedSearch{OptimizeQuery(std::move(ast), index_.get()), std::move(scope),
                        std::move(resolver)};
}

Result<std::vector<std::string>> HacFileSystem::Search(const std::string& query,
                                                       const std::string& scope_dir) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(scope_dir));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "search applies to the local name space");
  }
  // Search reads link sets through dir() references and the scope directory: settle
  // any batched mutations first.
  HAC_RETURN_IF_ERROR(engine_->Flush());
  HAC_ASSIGN_OR_RETURN(PreparedSearch prepared, PrepareSearch(query, r.path));
  HAC_ASSIGN_OR_RETURN(Bitmap result, index_->Evaluate(*prepared.query, prepared.scope,
                                                       &prepared.resolver));
  std::vector<std::string> paths;
  result.ForEach([&](DocId doc) {
    const FileRecord* rec = registry_.Get(doc);
    if (rec != nullptr && rec->alive) {
      paths.push_back(rec->path);
    }
  });
  std::sort(paths.begin(), paths.end());
  return paths;
}

Result<Bitmap> HacFileSystem::CachedDirContents(DirUid uid) const {
  const uint64_t epoch = MutationEpoch();
  {
    std::lock_guard<std::mutex> lk(scope_memo_mu_);
    if (scope_memo_uid_ == uid && scope_memo_epoch_ == epoch) {
      return scope_memo_;
    }
  }
  HAC_ASSIGN_OR_RETURN(Bitmap contents, DirContentsOfUid(uid));
  std::lock_guard<std::mutex> lk(scope_memo_mu_);
  scope_memo_uid_ = uid;
  scope_memo_epoch_ = epoch;
  scope_memo_ = contents;
  return contents;
}

Result<SearchPageResult> HacFileSystem::SearchPage(const std::string& query,
                                                   const std::string& scope_dir,
                                                   const PageToken* token,
                                                   size_t max_results,
                                                   size_t max_bytes) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(scope_dir));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "search applies to the local name space");
  }
  HAC_RETURN_IF_ERROR(engine_->Flush());
  if (max_results == 0) {
    max_results = kDefaultPageEntries;
  }
  max_results = std::min(max_results, kMaxPageEntries);
  if (max_bytes == 0) {
    max_bytes = kDefaultPageBytes;
  }
  const uint64_t epoch = MutationEpoch();
  const bool resuming = token != nullptr && !token->at_start;
  // As in ReadDirPage: an at_start token rebases onto the current epoch.
  if (resuming && token->epoch != epoch) {
    return Error(ErrorCode::kStaleCursor,
                 "page token epoch " + std::to_string(token->epoch) +
                     " superseded by " + std::to_string(epoch) +
                     "; restart from the first page");
  }
  // Prepared exactly as Search() is; the difference is downstream — a lazy
  // cursor pull instead of a materialized result bitmap.
  HAC_ASSIGN_OR_RETURN(PreparedSearch prepared, PrepareSearch(query, r.path));
  HAC_ASSIGN_OR_RETURN(PostingCursorPtr cursor,
                       index_->OpenCursor(*prepared.query, prepared.scope,
                                          &prepared.resolver));
  const uint32_t start =
      resuming ? static_cast<uint32_t>(token->last_doc) + 1 : 0;
  SearchPageResult page;
  page.next = token != nullptr ? *token : PageToken{};
  page.next.epoch = epoch;
  size_t bytes = 0;
  for (uint32_t doc = cursor->SeekGE(start); doc != PostingCursor::kCursorEnd;
       doc = cursor->Next()) {
    const FileRecord* rec = registry_.Get(doc);
    if (rec == nullptr || !rec->alive) {
      continue;
    }
    if (page.paths.size() >= max_results ||
        (!page.paths.empty() && bytes + rec->path.size() > max_bytes)) {
      page.has_more = true;
      break;
    }
    bytes += rec->path.size();
    page.paths.push_back(rec->path);
    page.next.at_start = false;
    page.next.last_doc = doc;
  }
  return page;
}

// ---------------------------------------------------------------------------
// Mounts
// ---------------------------------------------------------------------------

Result<void> HacFileSystem::MountSyntactic(const std::string& path, FsInterface* fs,
                                           const std::string& remote_root) {
  std::string norm = NormalizePath(path);
  if (norm.empty()) {
    return Error(ErrorCode::kInvalidArgument, "path must be absolute: " + path);
  }
  HAC_ASSIGN_OR_RETURN(Stat st, vfs_.LstatPath(norm));
  if (st.type != NodeType::kDirectory) {
    return Error(ErrorCode::kNotADirectory, norm);
  }
  std::string remote_norm = NormalizePath(remote_root);
  if (remote_norm.empty()) {
    return Error(ErrorCode::kInvalidArgument, "remote root must be absolute");
  }
  HAC_RETURN_IF_ERROR(mounts_.AddSyntactic(norm, fs, remote_norm));
  journal_.Append(JournalOp::kMount, 0, norm, "syntactic:" + remote_norm);
  return OkResult();
}

Result<void> HacFileSystem::MountSemantic(const std::string& path, NameSpace* space) {
  std::string norm = NormalizePath(path);
  if (norm.empty()) {
    return Error(ErrorCode::kInvalidArgument, "path must be absolute: " + path);
  }
  HAC_ASSIGN_OR_RETURN(Stat st, vfs_.LstatPath(norm));
  if (st.type != NodeType::kDirectory) {
    return Error(ErrorCode::kNotADirectory, norm);
  }
  if (space != nullptr && !IsValidEntryName(space->Name())) {
    return Error(ErrorCode::kInvalidArgument, "name space needs a path-safe name");
  }
  HAC_RETURN_IF_ERROR(mounts_.AddSemantic(norm, space));
  journal_.Append(JournalOp::kMount, 0, norm, "semantic:" + space->Name());
  // Queries already asked under the mount now cover the new name space.
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.UidOf(norm));
  return engine_->NotifyScopeChanged(uid);
}

Result<void> HacFileSystem::UnmountSyntactic(const std::string& path) {
  std::string norm = NormalizePath(path);
  HAC_RETURN_IF_ERROR(mounts_.RemoveSyntactic(norm));
  journal_.Append(JournalOp::kUnmount, 0, norm, "syntactic");
  return OkResult();
}

Result<void> HacFileSystem::UnmountSemantic(const std::string& path) {
  std::string norm = NormalizePath(path);
  HAC_RETURN_IF_ERROR(mounts_.RemoveSemantic(norm));
  journal_.Append(JournalOp::kUnmount, 0, norm, "semantic");
  // Cached imports remain as ordinary local files; only the live connection goes away.
  return OkResult();
}

// ---------------------------------------------------------------------------
// Link-class control
// ---------------------------------------------------------------------------

Result<LinkClassView> HacFileSystem::GetLinkClasses(const std::string& dir_path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(dir_path));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "link classes live in the local name space");
  }
  HAC_RETURN_IF_ERROR(engine_->Flush());
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, MetaOfPath(r.path));
  LinkClassView view;
  for (const auto& [name, rec] : meta->links.links()) {
    std::string target;
    if (rec.doc != kInvalidDocId) {
      const FileRecord* file = registry_.Get(rec.doc);
      target = file != nullptr ? file->path : "";
    } else {
      auto t = vfs_.ReadLink(JoinPath(r.path == "/" ? "" : r.path, name));
      target = t.ok() ? t.value() : "";
    }
    if (rec.cls == LinkClass::kPermanent) {
      view.permanent.emplace_back(name, target);
    } else {
      view.transient.emplace_back(name, target);
    }
  }
  meta->links.prohibited().ForEach([&](DocId doc) {
    const FileRecord* file = registry_.Get(doc);
    view.prohibited.push_back(file != nullptr ? file->path
                                              : "#" + std::to_string(doc));
  });
  return view;
}

Result<void> HacFileSystem::PromoteLink(const std::string& link_path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(link_path));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "link classes live in the local name space");
  }
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, MetaOfPath(DirName(r.path)));
  HAC_RETURN_IF_ERROR(meta->links.Promote(BaseName(r.path)));
  journal_.Append(JournalOp::kLinkPromoted, meta->uid, r.path);
  // Promotion changes classification, not membership: no propagation needed.
  return OkResult();
}

Result<void> HacFileSystem::DemoteLink(const std::string& link_path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(link_path));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "link classes live in the local name space");
  }
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, MetaOfPath(DirName(r.path)));
  std::string name = BaseName(r.path);
  const LinkRecord* rec = meta->links.Find(name);
  if (rec == nullptr) {
    return Error(ErrorCode::kNotFound, "link " + name);
  }
  DocId doc = rec->doc;
  HAC_RETURN_IF_ERROR(meta->links.Demote(name));
  journal_.Append(JournalOp::kLinkDemoted, meta->uid, r.path);
  // Unlike promotion, demotion can change membership: the link is HAC's again and the
  // re-evaluation removes it unless the query still selects it.
  Bitmap delta;
  delta.Set(doc);
  return engine_->NotifyScopeChanged(meta->uid, &delta);
}

Result<void> HacFileSystem::Prohibit(const std::string& dir_path,
                                     const std::string& file_path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(dir_path));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "link classes live in the local name space");
  }
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, MetaOfPath(r.path));
  std::string norm_file = NormalizePath(file_path);
  if (norm_file.empty()) {
    return Error(ErrorCode::kInvalidArgument, "file path must be absolute");
  }
  HAC_ASSIGN_OR_RETURN(DocId doc, registry_.FindByPath(norm_file));
  if (meta->links.HasDoc(doc)) {
    // Currently linked here: drop the links (and their symlinks) on the way out. Each
    // removal hands the doc to the next alias, and the last one prohibits it.
    journal_.Append(JournalOp::kProhibitAdded, meta->uid, r.path, norm_file);
    for (auto name = meta->links.NameOf(doc); name.ok(); name = meta->links.NameOf(doc)) {
      HAC_RETURN_IF_ERROR(
          ProhibitTrackedLink(meta, r.path, name.value(), /*unlink_vfs=*/true));
    }
    return OkResult();
  }
  if (meta->links.IsProhibited(doc)) {
    return OkResult();
  }
  meta->links.Prohibit(doc);
  journal_.Append(JournalOp::kProhibitAdded, meta->uid, r.path, norm_file);
  Bitmap delta;
  delta.Set(doc);
  return engine_->NotifyScopeChanged(meta->uid, &delta);
}

Result<void> HacFileSystem::Unprohibit(const std::string& dir_path,
                                       const std::string& file_path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(dir_path));
  if (!r.local) {
    return Error(ErrorCode::kUnsupported, "link classes live in the local name space");
  }
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, MetaOfPath(r.path));
  std::string norm_file = NormalizePath(file_path);
  if (norm_file.empty()) {
    return Error(ErrorCode::kInvalidArgument, "file path must be absolute");
  }
  HAC_ASSIGN_OR_RETURN(DocId doc, registry_.FindByPath(norm_file));
  if (!meta->links.IsProhibited(doc)) {
    return Error(ErrorCode::kNotFound, norm_file + " is not prohibited here");
  }
  meta->links.Unprohibit(doc);
  journal_.Append(JournalOp::kProhibitCleared, meta->uid, r.path, norm_file);
  // The file may now come back as a transient link.
  Bitmap delta;
  delta.Set(doc);
  return engine_->NotifyScopeChanged(meta->uid, &delta);
}

}  // namespace hac
