// Ordinary file-system call surface of HacFileSystem: forwarding plus HAC bookkeeping.
// The scope-consistency engine lives in consistency.cc.
#include "src/core/hac_file_system.h"

#include <algorithm>

#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/vfs/path.h"

namespace hac {

namespace {

Counter& AttrCacheHitCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kAttrCacheHits);
  return c;
}

Counter& AttrCacheMissCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter(metric_names::kAttrCacheMisses);
  return c;
}

// Absolute, normalized form of a symlink target as written in `dir_path`.
std::string AbsoluteLinkTarget(const std::string& dir_path, const std::string& target) {
  if (target.empty() || target[0] != '/') {
    return NormalizePath(JoinPath(dir_path == "/" ? "" : dir_path, target));
  }
  return NormalizePath(target);
}

}  // namespace

HacFileSystem::HacFileSystem(HacOptions options)
    : options_(options),
      index_(std::make_unique<InvertedIndex>(options.tokenizer)),
      engine_(std::make_unique<ConsistencyEngine>(this, options.consistency)) {
  // The root's bookkeeping: UID 1 (pre-registered by UidMap), a dependency-graph node,
  // and metadata with no query.
  DirUid root = uid_map_.root_uid();
  (void)graph_.AddNode(root);
  DirMetadata meta;
  meta.uid = root;
  meta.inode = vfs_.root_id();
  metadata_.emplace(root, std::move(meta));
  processes_.emplace_back();  // process 0
  if (options_.verify_results_with_content) {
    index_->SetContentVerifier([this](DocId doc) -> Result<std::string> {
      const FileRecord* rec = registry_.Get(doc);
      if (rec == nullptr || !rec->alive) {
        return Error(ErrorCode::kNotFound, "doc " + std::to_string(doc));
      }
      return vfs_.ReadFileToString(rec->path);
    });
  }
}

// ---------------------------------------------------------------------------
// Routing & lookup helpers
// ---------------------------------------------------------------------------

Result<HacFileSystem::Routed> HacFileSystem::Route(const std::string& path) const {
  std::string norm = NormalizePath(path);
  if (norm.empty()) {
    return Error(ErrorCode::kInvalidArgument, "path must be absolute: " + path);
  }
  const SyntacticMount* m = mounts_.FindSyntacticCovering(norm);
  if (m != nullptr) {
    return Routed{m->fs, RebasePath(norm, m->mount_path, m->remote_root), false};
  }
  return Routed{const_cast<FileSystem*>(&vfs_), norm, true};
}

Result<DirMetadata*> HacFileSystem::MetaOfPath(const std::string& norm_path) {
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.UidOf(norm_path));
  return MetaOfUid(uid);
}

Result<DirMetadata*> HacFileSystem::MetaOfUid(DirUid uid) {
  auto it = metadata_.find(uid);
  if (it == metadata_.end()) {
    return Error(ErrorCode::kNotFound, "no metadata for uid " + std::to_string(uid));
  }
  return &it->second;
}

Result<const DirMetadata*> HacFileSystem::MetaOfUid(DirUid uid) const {
  auto it = metadata_.find(uid);
  if (it == metadata_.end()) {
    return Error(ErrorCode::kNotFound, "no metadata for uid " + std::to_string(uid));
  }
  return &it->second;
}

void HacFileSystem::NoteContentMutation() {
  ++content_mutations_since_reindex_;
  if (engine_->InBatch()) {
    // The auto-reindex check runs once, when the outermost EndBatch flushes.
    batch_had_content_mutation_ = true;
    return;
  }
  MaybeAutoReindex();
}

// ---------------------------------------------------------------------------
// Batched mutation surface
// ---------------------------------------------------------------------------

void HacFileSystem::BeginBatch() { engine_->BeginBatch(); }

Result<void> HacFileSystem::EndBatch() {
  HAC_RETURN_IF_ERROR(engine_->EndBatch());
  if (!engine_->InBatch() && batch_had_content_mutation_) {
    batch_had_content_mutation_ = false;
    MaybeAutoReindex();
  }
  return OkResult();
}

bool HacFileSystem::InBatch() const { return engine_->InBatch(); }

// ---------------------------------------------------------------------------
// Directories
// ---------------------------------------------------------------------------

Result<void> HacFileSystem::RegisterDirectory(const std::string& norm_path) {
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.Register(norm_path));
  HAC_RETURN_IF_ERROR(graph_.AddNode(uid));
  HAC_ASSIGN_OR_RETURN(DirUid parent_uid, uid_map_.UidOf(DirName(norm_path)));
  HAC_RETURN_IF_ERROR(graph_.SetDependencies(uid, {parent_uid}));
  DirMetadata meta;
  meta.uid = uid;
  auto inode = vfs_.Lookup(norm_path, /*follow_final=*/false);
  meta.inode = inode.ok() ? inode.value() : kInvalidInode;
  metadata_.emplace(uid, std::move(meta));
  journal_.Append(JournalOp::kDirCreated, uid, norm_path);
  return OkResult();
}

Result<void> HacFileSystem::Mkdir(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (!r.local) {
    return r.fs->Mkdir(r.path);
  }
  HAC_RETURN_IF_ERROR(vfs_.Mkdir(r.path));
  return RegisterDirectory(r.path);
}

Result<void> HacFileSystem::Rmdir(const std::string& path) {
  std::string norm = NormalizePath(path);
  if (mounts_.FindSemanticAt(norm) != nullptr) {
    return Error(ErrorCode::kBusy, norm + " is a semantic mount point");
  }
  for (const SyntacticMount& m : mounts_.syntactic()) {
    if (m.mount_path == norm) {
      return Error(ErrorCode::kBusy, norm + " is a syntactic mount point");
    }
  }
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (!r.local) {
    return r.fs->Rmdir(r.path);
  }
  // The emptiness check below must see settled link sets, not a half-open batch.
  HAC_RETURN_IF_ERROR(engine_->Flush());
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.UidOf(r.path));
  if (!graph_.DirectDependentsOf(uid).empty()) {
    // Either child directories (then the directory is not empty) or query references
    // from elsewhere (then removal would orphan those queries).
    HAC_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, vfs_.ReadDir(r.path));
    if (!entries.empty()) {
      return Error(ErrorCode::kNotEmpty, r.path);
    }
    return Error(ErrorCode::kBusy, r.path + " is referenced by other queries");
  }
  HAC_RETURN_IF_ERROR(vfs_.Rmdir(r.path));
  (void)graph_.RemoveNode(uid);
  metadata_.erase(uid);
  (void)uid_map_.Remove(r.path);
  journal_.Append(JournalOp::kDirRemoved, uid, r.path);
  return OkResult();
}

Result<std::vector<DirEntry>> HacFileSystem::ReadDir(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (r.local) {
    // Listing a directory observes its link set: settle any batched mutations first.
    HAC_RETURN_IF_ERROR(engine_->Flush());
  }
  return r.fs->ReadDir(r.path);
}

// ---------------------------------------------------------------------------
// Streaming reads (core/paging.h)
// ---------------------------------------------------------------------------

uint64_t HacFileSystem::MutationEpoch() const {
  // Journaled records cover every acknowledged user mutation; reindexing settles
  // deferred data consistency without journaling, so its ingest/purge counters
  // fold in too. Monotone: drains don't reset RecordCount().
  return journal_.RecordCount() + stats_.docs_indexed.load(std::memory_order_relaxed) +
         stats_.docs_purged.load(std::memory_order_relaxed);
}

namespace {

Error StaleCursorError(uint64_t token_epoch, uint64_t epoch) {
  return Error(ErrorCode::kStaleCursor,
               "page token epoch " + std::to_string(token_epoch) +
                   " superseded by " + std::to_string(epoch) +
                   "; restart from the first page");
}

void ClampPage(size_t* max_entries, size_t* max_bytes) {
  if (*max_entries == 0) {
    *max_entries = kDefaultPageEntries;
  }
  *max_entries = std::min(*max_entries, kMaxPageEntries);
  if (*max_bytes == 0) {
    *max_bytes = kDefaultPageBytes;
  }
}

}  // namespace

Result<DirPageResult> HacFileSystem::ReadDirPage(const std::string& path,
                                                 const PageToken* token,
                                                 size_t max_entries, size_t max_bytes) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (r.local) {
    // Same read point as ReadDir: settle batched mutations before observing links.
    HAC_RETURN_IF_ERROR(engine_->Flush());
  }
  ClampPage(&max_entries, &max_bytes);
  const uint64_t epoch = MutationEpoch();
  const bool resuming = token != nullptr && !token->at_start;
  // A token with no delivered position yet has nothing to invalidate: it rebases
  // onto the current epoch instead of failing (open-then-write-then-fetch works).
  if (resuming && token->epoch != epoch) {
    return StaleCursorError(token->epoch, epoch);
  }
  const std::string& after = resuming ? token->last_name : std::string();
  DirPageResult page;
  if (r.local) {
    HAC_ASSIGN_OR_RETURN(page.entries, vfs_.ReadDirPage(r.path, after, max_entries,
                                                        max_bytes, &page.has_more));
  } else {
    // Mounted name spaces only expose the plain interface: enumerate fully and
    // slice — paging still bounds the *returned* (and wire-encoded) volume.
    HAC_ASSIGN_OR_RETURN(std::vector<DirEntry> all, r.fs->ReadDir(r.path));
    size_t bytes = 0;
    for (DirEntry& e : all) {
      if (resuming && e.name <= after) {
        continue;
      }
      if (page.entries.size() >= max_entries ||
          (!page.entries.empty() && bytes + e.name.size() > max_bytes)) {
        page.has_more = true;
        break;
      }
      bytes += e.name.size();
      page.entries.push_back(std::move(e));
    }
  }
  page.next = token != nullptr ? *token : PageToken{};
  page.next.epoch = epoch;
  if (!page.entries.empty()) {
    page.next.at_start = false;
    page.next.last_name = page.entries.back().name;
  }
  return page;
}

// ---------------------------------------------------------------------------
// Files & descriptors
// ---------------------------------------------------------------------------

Result<Fd> HacFileSystem::Open(const std::string& path, uint32_t flags) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (!r.local) {
    HAC_ASSIGN_OR_RETURN(Fd backend_fd, r.fs->Open(r.path, flags));
    return processes_[current_process_].Allocate(
        HacOpenFile{r.fs, backend_fd, kInvalidInode, NormalizePath(path)});
  }
  const bool existed = vfs_.Exists(r.path);
  HAC_ASSIGN_OR_RETURN(Fd backend_fd, vfs_.Open(r.path, flags));
  HAC_ASSIGN_OR_RETURN(InodeId inode, vfs_.Lookup(r.path));
  if (!existed) {
    // Phase-2 bookkeeping: register the file, seed the attribute cache, journal it.
    auto doc = registry_.Add(inode, r.path);
    if (doc.ok()) {
      journal_.Append(JournalOp::kFileRegistered, doc.value(), r.path);
      // The new doc entered every enclosing scope; dependents fold it into their next
      // delta (it stays unindexed until reindex, exactly the deferred semantics).
      engine_->NoteDocChanged(doc.value());
    }
    const Inode* node = vfs_.FindInode(inode);
    if (node != nullptr) {
      attr_cache_.Put(inode, vfs_.StatOf(*node));
    }
    NoteContentMutation();
  } else if ((flags & kOpenTruncate) != 0) {
    if (auto doc = registry_.FindByInode(inode); doc.ok()) {
      (void)registry_.MarkDirty(doc.value());
    }
    attr_cache_.Invalidate(inode);
    journal_.Append(JournalOp::kFileTruncated, 0, r.path);
    NoteContentMutation();
  }
  return processes_[current_process_].Allocate(HacOpenFile{&vfs_, backend_fd, inode, r.path});
}

Result<void> HacFileSystem::Close(Fd fd) {
  HAC_ASSIGN_OR_RETURN(HacOpenFile of, processes_[current_process_].Release(fd));
  return of.backend->Close(of.backend_fd);
}

Result<size_t> HacFileSystem::Read(Fd fd, void* buf, size_t n) {
  HAC_ASSIGN_OR_RETURN(HacOpenFile * of, processes_[current_process_].Get(fd));
  HAC_ASSIGN_OR_RETURN(size_t got, of->backend->Read(of->backend_fd, buf, n));
  ++of->reads;
  return got;
}

Result<size_t> HacFileSystem::Write(Fd fd, const void* buf, size_t n) {
  HAC_ASSIGN_OR_RETURN(HacOpenFile * of, processes_[current_process_].Get(fd));
  HAC_ASSIGN_OR_RETURN(size_t put, of->backend->Write(of->backend_fd, buf, n));
  ++of->writes;
  if (of->inode != kInvalidInode) {
    if (auto doc = registry_.FindByInode(of->inode); doc.ok()) {
      (void)registry_.MarkDirty(doc.value());
    }
    attr_cache_.Invalidate(of->inode);
    // inode valid ⇒ local file ⇒ the backend is our VFS: the post-write offset minus
    // the byte count is where this write landed. Journaled with the payload so the
    // WAL can replay it (appends land at the same place because replay preserves
    // operation order).
    auto pos = vfs_.Tell(of->backend_fd);
    const uint64_t at = pos.ok() && pos.value() >= put ? pos.value() - put : 0;
    journal_.Append(JournalOp::kFileWritten, at, of->path,
                    std::string_view(static_cast<const char*>(buf), put));
    NoteContentMutation();
  }
  return put;
}

Result<uint64_t> HacFileSystem::Seek(Fd fd, uint64_t offset) {
  HAC_ASSIGN_OR_RETURN(HacOpenFile * of, processes_[current_process_].Get(fd));
  return of->backend->Seek(of->backend_fd, offset);
}

// ---------------------------------------------------------------------------
// Namespace mutations
// ---------------------------------------------------------------------------

Result<void> HacFileSystem::ProhibitTrackedLink(DirMetadata* m, const std::string& dir_path,
                                                const std::string& name, bool unlink_vfs) {
  if (unlink_vfs) {
    (void)vfs_.Unlink(JoinPath(dir_path == "/" ? "" : dir_path, name));
  }
  auto removed = m->links.RemoveLink(name);
  journal_.Append(JournalOp::kLinkRemoved, m->uid, name);
  if (!removed.ok() || removed.value().doc == kInvalidDocId) {
    return OkResult();  // foreign link: nothing to prohibit, no scope change
  }
  const DocId doc = removed.value().doc;
  // A second explicit link to the same file (an alias; see Symlink) keeps the file
  // linked here: the alias takes over as the doc's permanent link and the link set
  // is unchanged, so nothing is prohibited and nothing propagates.
  for (const auto& [alias, rec] : m->links.links()) {
    if (rec.doc != kInvalidDocId) {
      continue;
    }
    auto target = vfs_.ReadLink(JoinPath(dir_path == "/" ? "" : dir_path, alias));
    if (!target.ok()) {
      continue;
    }
    std::string abs_target = AbsoluteLinkTarget(dir_path, target.value());
    auto target_doc = registry_.FindByPath(abs_target);
    if (target_doc.ok() && target_doc.value() == doc) {
      const std::string alias_name = alias;  // RemoveLink invalidates `alias`
      (void)m->links.RemoveLink(alias_name);
      HAC_RETURN_IF_ERROR(m->links.AddLink(alias_name, doc, LinkClass::kPermanent));
      journal_.Append(JournalOp::kLinkAdded, m->uid, alias_name, abs_target);
      return OkResult();
    }
  }
  m->links.Prohibit(doc);
  Bitmap delta;
  delta.Set(doc);
  return engine_->NotifyScopeChanged(m->uid, &delta);
}

Result<void> HacFileSystem::Unlink(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (!r.local) {
    return r.fs->Unlink(r.path);
  }
  HAC_ASSIGN_OR_RETURN(Stat st, vfs_.LstatPath(r.path));
  std::string parent_path = DirName(r.path);
  std::string name = BaseName(r.path);

  if (st.type == NodeType::kSymlink) {
    HAC_RETURN_IF_ERROR(vfs_.Unlink(r.path));
    journal_.Append(JournalOp::kUnlinked, 0, r.path);
    auto meta = MetaOfPath(parent_path);
    if (meta.ok() && meta.value()->links.Find(name) != nullptr) {
      // Explicit user deletion: the link becomes prohibited and must never be
      // silently re-added (section 2.3). Shared with the Prohibit() API.
      return ProhibitTrackedLink(meta.value(), parent_path, name,
                                 /*unlink_vfs=*/false);
    }
    return OkResult();
  }

  // Regular file: deferred data consistency — links elsewhere dangle until reindex.
  HAC_RETURN_IF_ERROR(vfs_.Unlink(r.path));
  journal_.Append(JournalOp::kUnlinked, 0, r.path);
  if (auto doc = registry_.FindByInode(st.inode); doc.ok()) {
    (void)registry_.Deactivate(doc.value());
    journal_.Append(JournalOp::kFileDeactivated, doc.value(), r.path);
    engine_->NoteDocChanged(doc.value());  // left every scope it was in
  }
  attr_cache_.Invalidate(st.inode);
  NoteContentMutation();
  return OkResult();
}

Result<void> HacFileSystem::Rename(const std::string& from, const std::string& to) {
  std::string norm_from = NormalizePath(from);
  for (const SyntacticMount& m : mounts_.syntactic()) {
    if (m.mount_path == norm_from) {
      return Error(ErrorCode::kBusy, norm_from + " is a mount point");
    }
  }
  HAC_ASSIGN_OR_RETURN(Routed src, Route(from));
  HAC_ASSIGN_OR_RETURN(Routed dst, Route(to));
  if (src.fs != dst.fs) {
    return Error(ErrorCode::kCrossDevice, "rename across a mount boundary");
  }
  if (!src.local) {
    return src.fs->Rename(src.path, dst.path);
  }
  HAC_ASSIGN_OR_RETURN(Stat st, vfs_.LstatPath(src.path));

  if (st.type == NodeType::kSymlink) {
    // Moving a query-result link: leaving a directory prohibits it there; arriving in a
    // directory makes it a permanent, user-chosen link (section 2.2: results of queries
    // can be moved like regular files).
    std::string src_parent = DirName(src.path);
    std::string dst_parent = DirName(dst.path);
    std::string src_name = BaseName(src.path);
    std::string dst_name = BaseName(dst.path);
    HAC_RETURN_IF_ERROR(vfs_.Rename(src.path, dst.path));
    DocId doc = kInvalidDocId;
    if (auto meta = MetaOfPath(src_parent); meta.ok()) {
      if (meta.value()->links.Find(src_name) != nullptr) {
        auto removed = meta.value()->links.RemoveLink(src_name);
        if (removed.ok()) {
          doc = removed.value().doc;
        }
        if (src_parent != dst_parent && doc != kInvalidDocId) {
          meta.value()->links.Prohibit(doc);
        }
        journal_.Append(JournalOp::kLinkRemoved, meta.value()->uid, src_name);
        Bitmap delta;
        if (doc != kInvalidDocId) {
          delta.Set(doc);
        }
        HAC_RETURN_IF_ERROR(engine_->NotifyScopeChanged(meta.value()->uid, &delta));
      }
    }
    if (auto meta = MetaOfPath(dst_parent); meta.ok()) {
      DirMetadata* m = meta.value();
      if (doc != kInvalidDocId && !m->links.HasDoc(doc)) {
        m->links.Unprohibit(doc);
        HAC_RETURN_IF_ERROR(m->links.AddLink(dst_name, doc, LinkClass::kPermanent));
      } else {
        HAC_RETURN_IF_ERROR(m->links.AddForeignLink(dst_name));
      }
      journal_.Append(JournalOp::kLinkAdded, m->uid, dst_name);
      Bitmap delta;
      if (doc != kInvalidDocId) {
        delta.Set(doc);
      }
      HAC_RETURN_IF_ERROR(engine_->NotifyScopeChanged(m->uid, &delta));
    }
    journal_.Append(JournalOp::kRename, 0, src.path, dst.path);
    return OkResult();
  }

  if (st.type == NodeType::kFile) {
    // The replaced target (if any) disappears.
    auto old_target = vfs_.LstatPath(dst.path);
    HAC_RETURN_IF_ERROR(vfs_.Rename(src.path, dst.path));
    if (old_target.ok() && old_target.value().type == NodeType::kFile) {
      if (auto doc = registry_.FindByInode(old_target.value().inode); doc.ok()) {
        (void)registry_.Deactivate(doc.value());
        journal_.Append(JournalOp::kFileDeactivated, doc.value(), dst.path);
        engine_->NoteDocChanged(doc.value());
      }
      attr_cache_.Invalidate(old_target.value().inode);
    }
    if (auto doc = registry_.FindByInode(st.inode); doc.ok()) {
      (void)registry_.SetPath(doc.value(), dst.path);
      // Membership in dir()-referenced scopes and link-target paths both shift with
      // the path; the log puts the doc into every dependent's next delta.
      engine_->NoteDocChanged(doc.value());
    }
    journal_.Append(JournalOp::kRename, 0, src.path, dst.path);
    // Scope effects of a file move are data consistency: settled at the next reindex
    // (the paper's "moved to archive" example).
    NoteContentMutation();
    return OkResult();
  }

  // Directory move. UIDs are stable, so queries referencing the directory survive; only
  // the moved directory's parent dependency changes.
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.UidOf(src.path));
  HAC_RETURN_IF_ERROR(vfs_.Rename(src.path, dst.path));
  HAC_ASSIGN_OR_RETURN(DirMetadata * meta, MetaOfUid(uid));
  auto deps = ComputeDeps(uid, dst.path, meta->query.get());
  Result<void> dep_update =
      deps.ok() ? graph_.SetDependencies(uid, deps.value()) : Result<void>(deps.error());
  if (!dep_update.ok()) {
    (void)vfs_.Rename(dst.path, src.path);
    return dep_update.error();
  }
  // Every file in the moved subtree changes which scopes it belongs to; capture the
  // set before the registry paths move.
  Bitmap moved_docs = registry_.FilesWithin(src.path);
  uid_map_.RenameSubtree(src.path, dst.path);
  registry_.RenameSubtree(src.path, dst.path);
  mounts_.RenameSubtree(src.path, dst.path);
  journal_.Append(JournalOp::kRename, uid, src.path, dst.path);
  moved_docs.ForEach([this](DocId doc) { engine_->NoteDocChanged(doc); });
  // Immediate scope consistency: the directory's scope (and its descendants') changed.
  return engine_->NotifyScopeChanged(uid);
}

Result<void> HacFileSystem::Symlink(const std::string& target, const std::string& link_path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(link_path));
  if (!r.local) {
    return r.fs->Symlink(target, r.path);
  }
  HAC_RETURN_IF_ERROR(vfs_.Symlink(target, r.path));
  std::string parent_path = DirName(r.path);
  std::string name = BaseName(r.path);
  auto meta = MetaOfPath(parent_path);
  if (!meta.ok()) {
    journal_.Append(JournalOp::kSymlinked, 0, r.path, target);
    return OkResult();  // parent untracked (shouldn't happen for local dirs)
  }
  DirMetadata* m = meta.value();
  // Resolve the target to a registered document if possible.
  std::string abs_target = AbsoluteLinkTarget(parent_path, target);
  auto doc = registry_.FindByPath(abs_target);
  Bitmap delta;
  if (doc.ok() && !m->links.HasDoc(doc.value())) {
    // An explicit user action: re-adding a prohibited file un-prohibits it.
    m->links.Unprohibit(doc.value());
    HAC_RETURN_IF_ERROR(m->links.AddLink(name, doc.value(), LinkClass::kPermanent));
    delta.Set(doc.value());
  } else if (doc.ok()) {
    // The file is already linked here; the user's explicit symlink pins it. Promote the
    // existing link to permanent and track the new entry as a plain alias.
    HAC_ASSIGN_OR_RETURN(std::string existing, m->links.NameOf(doc.value()));
    HAC_RETURN_IF_ERROR(m->links.Promote(existing));
    HAC_RETURN_IF_ERROR(m->links.AddForeignLink(name));
    delta.Set(doc.value());
  } else {
    HAC_RETURN_IF_ERROR(m->links.AddForeignLink(name));
  }
  journal_.Append(JournalOp::kLinkAdded, m->uid, name, abs_target);
  // The replayable record keeps the target verbatim (possibly relative): replay must
  // recreate the identical symlink, not its resolution.
  journal_.Append(JournalOp::kSymlinked, m->uid, r.path, target);
  return engine_->NotifyScopeChanged(m->uid, &delta);
}

Result<std::string> HacFileSystem::ReadLink(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  return r.fs->ReadLink(r.path);
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

Result<Stat> HacFileSystem::StatPath(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (!r.local) {
    return r.fs->StatPath(r.path);
  }
  // Phase-3 path: resolve, then consult the shared attribute cache.
  HAC_ASSIGN_OR_RETURN(InodeId inode, vfs_.Lookup(r.path, /*follow_final=*/true));
  if (auto cached = attr_cache_.Get(inode); cached.has_value()) {
    ++stats_.attr_cache_hits;
    AttrCacheHitCounter().Inc();
    return *cached;
  }
  ++stats_.attr_cache_misses;
  AttrCacheMissCounter().Inc();
  HAC_ASSIGN_OR_RETURN(Stat st, vfs_.StatPath(r.path));
  attr_cache_.Put(inode, st);
  return st;
}

Result<Stat> HacFileSystem::LstatPath(const std::string& path) {
  HAC_ASSIGN_OR_RETURN(Routed r, Route(path));
  if (!r.local) {
    return r.fs->LstatPath(r.path);
  }
  return vfs_.LstatPath(r.path);
}

// ---------------------------------------------------------------------------
// Processes & stats
// ---------------------------------------------------------------------------

ProcessId HacFileSystem::CreateProcess() {
  processes_.emplace_back();
  return static_cast<ProcessId>(processes_.size() - 1);
}

Result<void> HacFileSystem::SetCurrentProcess(ProcessId pid) {
  if (pid >= processes_.size()) {
    return Error(ErrorCode::kInvalidArgument, "unknown process " + std::to_string(pid));
  }
  current_process_ = pid;
  return OkResult();
}

StatsSnapshot HacFileSystem::Stats() const {
  StatsSnapshot s = stats_;
  s.attr_cache_hits = attr_cache_.hits();
  s.attr_cache_misses = attr_cache_.misses();
  s.index = index_->Stats();
  s.vfs = vfs_.stats();
  return s;
}

Result<Bitmap> HacFileSystem::ScopeOf(const std::string& dir_path) {
  std::string norm = NormalizePath(dir_path);
  if (norm.empty()) {
    return Error(ErrorCode::kInvalidArgument, "path must be absolute: " + dir_path);
  }
  HAC_RETURN_IF_ERROR(engine_->Flush());
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.UidOf(norm));
  return ScopeOfUid(uid);
}

Result<Bitmap> HacFileSystem::DirectoryResultOf(const std::string& dir_path) {
  std::string norm = NormalizePath(dir_path);
  if (norm.empty()) {
    return Error(ErrorCode::kInvalidArgument, "path must be absolute: " + dir_path);
  }
  HAC_RETURN_IF_ERROR(engine_->Flush());
  HAC_ASSIGN_OR_RETURN(DirUid uid, uid_map_.UidOf(norm));
  return DirContentsOfUid(uid);
}

Result<std::string> HacFileSystem::PathOfDoc(DocId doc) const {
  const FileRecord* rec = registry_.Get(doc);
  if (rec == nullptr) {
    return Error(ErrorCode::kNotFound, "doc " + std::to_string(doc));
  }
  return rec->path;
}

size_t HacFileSystem::MetadataSizeBytes() const {
  // Resident HAC structures. The append-only journal is excluded: it is this
  // implementation's stand-in for the paper's synchronous metadata writes and is
  // reported separately (journal().SizeBytes()); a production system would checkpoint
  // and truncate it.
  size_t total = uid_map_.SizeBytes() + graph_.SizeBytes() + registry_.SizeBytes() +
                 mounts_.SizeBytes();
  for (const auto& [uid, meta] : metadata_) {
    total += meta.SizeBytes();
  }
  return total;
}

size_t HacFileSystem::SharedMemoryBytesPerProcess() const {
  size_t fd_total = 0;
  for (const HacFdTable& t : processes_) {
    fd_total += t.SizeBytes();
  }
  return attr_cache_.SizeBytes() / std::max<size_t>(1, processes_.size()) +
         fd_total / std::max<size_t>(1, processes_.size());
}

}  // namespace hac
