// HacFileSystem: the public facade of the library — the paper's HAC file system.
//
// It layers on the in-memory VFS exactly the way the paper's prototype layers on UNIX:
// every file-system call is intercepted, forwarded, and charged with HAC bookkeeping
// (per-directory metadata, the global UID map, the dependency graph, the attribute
// cache, per-process descriptor tables, the metadata journal). On top of the ordinary
// call surface it adds the semantic operations: smkdir / schq / sreadq / ssync / sact /
// smount and the link-class control API of the paper's footnote 1.
//
// Consistency model (sections 2.3-2.4):
//   * scope consistency is restored after any link edit, query change or directory
//     move by the ConsistencyEngine (core/consistency_engine.h): immediately with the
//     eager engine, or as epoch-gated delta propagation — coalescible into batches via
//     BeginBatch()/EndBatch() — with the incremental engine (the default);
//   * data consistency (file contents/creation/deletion) is deferred to Reindex(),
//     driven manually or by a SyncPolicy.
#ifndef HAC_CORE_HAC_FILE_SYSTEM_H_
#define HAC_CORE_HAC_FILE_SYSTEM_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/attribute_cache.h"
#include "src/core/consistency_engine.h"
#include "src/core/dependency_graph.h"
#include "src/core/dir_metadata.h"
#include "src/core/file_registry.h"
#include "src/core/metadata_journal.h"
#include "src/core/mount_table.h"
#include "src/core/paging.h"
#include "src/core/process_state.h"
#include "src/core/stats_snapshot.h"
#include "src/core/sync_policy.h"
#include "src/core/uid_map.h"
#include "src/index/cba.h"
#include "src/index/inverted_index.h"
#include "src/vfs/file_system.h"

namespace hac {

struct HacOptions {
  SyncPolicy sync_policy = SyncPolicy::Manual();
  TokenizerOptions tokenizer;
  // Which scope-consistency engine maintains transient links. kIncremental batches
  // and delta-evaluates; kEager is the paper-faithful full re-evaluation. Both keep
  // identical link sets at every read point.
  ConsistencyMode consistency = ConsistencyMode::kIncremental;
  // Glimpse-fidelity mode: re-check every query candidate against the file's current
  // content (the two-level search cost model). Off by default — the library's deferred
  // data-consistency semantics (stale links persist until reindex) are the paper's.
  bool verify_results_with_content = false;
};

// Snapshot of a directory's link classification (names relative to the directory).
struct LinkClassView {
  std::vector<std::pair<std::string, std::string>> permanent;  // name -> target
  std::vector<std::pair<std::string, std::string>> transient;  // name -> target
  std::vector<std::string> prohibited;                         // target paths
};

class HacFileSystem final : public FsInterface {
 public:
  explicit HacFileSystem(HacOptions options = {});

  // --- FsInterface (intercepted ordinary operations) ---
  Result<void> Mkdir(const std::string& path) override;
  Result<void> Rmdir(const std::string& path) override;
  Result<std::vector<DirEntry>> ReadDir(const std::string& path) override;
  Result<Fd> Open(const std::string& path, uint32_t flags) override;
  Result<void> Close(Fd fd) override;
  Result<size_t> Read(Fd fd, void* buf, size_t n) override;
  Result<size_t> Write(Fd fd, const void* buf, size_t n) override;
  Result<uint64_t> Seek(Fd fd, uint64_t offset) override;
  Result<void> Unlink(const std::string& path) override;
  Result<void> Rename(const std::string& from, const std::string& to) override;
  Result<void> Symlink(const std::string& target, const std::string& link_path) override;
  Result<std::string> ReadLink(const std::string& path) override;
  Result<Stat> StatPath(const std::string& path) override;
  Result<Stat> LstatPath(const std::string& path) override;

  // --- semantic operations (the paper's command extensions) ---

  // smkdir: create a directory and associate a query with it.
  Result<void> SMkdir(const std::string& path, const std::string& query);

  // schq: set/replace the query of an existing directory ("" reverts it to syntactic).
  Result<void> SetQuery(const std::string& path, const std::string& query);

  // sreadq: the directory's query, rendered with current (post-rename) paths.
  Result<std::string> GetQuery(const std::string& path);

  // ssync: re-evaluate this directory and everything depending on it.
  Result<void> SSync(const std::string& path);

  // Full data-consistency pass: flush dirty documents into the index, then restore
  // scope consistency globally.
  Result<void> Reindex();

  // Same, restricted to files under `path` (plus the directories depending on it).
  Result<void> ReindexSubtree(const std::string& path);

  // sact: lines of the linked file that match the containing directory's query.
  Result<std::vector<std::string>> SAct(const std::string& link_path);

  // One-shot search: evaluates `query` over the files reachable from `scope_dir`
  // (its contents, recursively) without creating a semantic directory. Returns the
  // matching paths, sorted. The Table 4 "direct Glimpse search" counterpart.
  Result<std::vector<std::string>> Search(const std::string& query,
                                          const std::string& scope_dir = "/");

  // --- streaming reads (core/paging.h) ---
  //
  // Counts every acknowledged mutation: journaled user operations plus reindex
  // ingest/purge (reindexing settles deferred data consistency without
  // journaling). Monotone; a page sequence whose token epoch no longer matches
  // is refused with kStaleCursor.
  uint64_t MutationEpoch() const;

  // Paged ReadDir: the page of entries after `token` (nullptr = first page).
  // max_entries/max_bytes of 0 pick kDefaultPageEntries/kDefaultPageBytes;
  // entries are capped at kMaxPageEntries. Concatenating pages at a quiesced
  // epoch reproduces ReadDir exactly; an epoch mismatch returns kStaleCursor and
  // the caller restarts from the first page.
  Result<DirPageResult> ReadDirPage(const std::string& path, const PageToken* token,
                                    size_t max_entries = 0, size_t max_bytes = 0);

  // Paged Search: pulls the next page of matches lazily through a PostingCursor
  // tree (index/posting_cursor.h) instead of materializing the result bitmap.
  // Paths come back in DocId order; the union of pages at a quiesced epoch
  // equals Search() as a set. Token semantics as in ReadDirPage.
  Result<SearchPageResult> SearchPage(const std::string& query,
                                      const std::string& scope_dir,
                                      const PageToken* token,
                                      size_t max_results = 0, size_t max_bytes = 0);

  // smount (syntactic): graft `fs`'s subtree rooted at `remote_root` under `path`.
  Result<void> MountSyntactic(const std::string& path, FsInterface* fs,
                              const std::string& remote_root = "/");
  // smount (semantic): attach a name space at `path`; repeatable for multiple mounts.
  Result<void> MountSemantic(const std::string& path, NameSpace* space);
  Result<void> UnmountSyntactic(const std::string& path);
  Result<void> UnmountSemantic(const std::string& path);

  // --- batched mutation surface ---
  //
  // Mutations issued between BeginBatch() and the matching EndBatch() are coalesced:
  // scope propagation is deferred and EndBatch runs ONE multi-source topological pass
  // over everything the batch touched, instead of one pass per mutation. Readers that
  // observe link sets (ReadDir, Search, SSync, SAct, GetLinkClasses, ScopeOf,
  // DirectoryResultOf, Reindex, SaveState) force a flush first, so batching is never
  // observable — only cheaper. Open/StatPath/ReadLink do NOT flush, which keeps bulk
  // ingest inside a batch from defeating it. Nesting balances; only the outermost
  // EndBatch flushes. The eager engine propagates immediately and treats these as
  // no-ops (the paper's behavior). Prefer the RAII BatchScope below.
  void BeginBatch();
  Result<void> EndBatch();
  bool InBatch() const;
  ConsistencyMode consistency_mode() const { return engine_->mode(); }

  // --- link-class control (the paper's footnote-1 API) ---
  Result<LinkClassView> GetLinkClasses(const std::string& dir_path);
  // Promote a transient link to permanent so no query change can remove it.
  Result<void> PromoteLink(const std::string& link_path);
  // The inverse: hand a permanent link back to HAC as transient; the re-evaluation
  // this triggers removes it unless the directory's query still selects it.
  Result<void> DemoteLink(const std::string& link_path);
  // Prohibit a file in a directory: removes any existing link to it there and
  // guarantees HAC never re-adds it. Unlink of a transient link routes through the
  // same path (section 2.3's "deleted results stay deleted").
  Result<void> Prohibit(const std::string& dir_path, const std::string& file_path);
  // Forget a prohibition so the file may reappear as a transient link.
  Result<void> Unprohibit(const std::string& dir_path, const std::string& file_path);

  // --- process model (shared attribute cache, per-process descriptors) ---
  ProcessId CreateProcess();
  Result<void> SetCurrentProcess(ProcessId pid);
  ProcessId CurrentProcess() const { return current_process_; }

  // --- introspection ---
  FileSystem& vfs() { return vfs_; }
  const FileSystem& vfs() const { return vfs_; }
  CbaMechanism& index() { return *index_; }
  const FileRegistry& registry() const { return registry_; }
  const UidMap& uid_map() const { return uid_map_; }
  const DependencyGraph& dependency_graph() const { return graph_; }
  const MetadataJournal& journal() const { return journal_; }
  // Drains up to `max_records` buffered journal records (0 = all): the durability
  // layer moves them into the on-disk WAL at each group commit, bounding the
  // in-memory buffer.
  std::vector<JournalRecord> DrainJournal(size_t max_records = 0) {
    return journal_.Drain(max_records);
  }
  // Unified counter snapshot: facade counters plus the index and VFS component views.
  StatsSnapshot Stats() const;

  // Scope a directory provides to its children (syntactic directories inherit their
  // parent's scope in addition to their own contents).
  Result<Bitmap> ScopeOf(const std::string& dir_path);

  // What a dir() reference to this directory denotes: its current link set plus the
  // files physically inside it — no inheritance.
  Result<Bitmap> DirectoryResultOf(const std::string& dir_path);

  // Current absolute path of a registered document.
  Result<std::string> PathOfDoc(DocId doc) const;

  // HAC metadata footprint (per-dir metadata, UID map, dep graph, registry, mounts,
  // journal) — the paper's "222 KB vs 210 KB" measurement.
  size_t MetadataSizeBytes() const;
  // Shared-memory-equivalent footprint per process (attribute cache share + fd table).
  size_t SharedMemoryBytesPerProcess() const;

  // --- whole-state persistence (core/hac_persistence.cc) ---
  //
  // Saves the VFS image plus all durable HAC state: the file registry, every
  // directory's query and link classification (permanent/transient/prohibited).
  // Queries are saved in rendered form (current paths), so the UID map and dependency
  // graph are rebuilt at load and dir() references re-bind correctly. Mounts,
  // descriptor tables, the attribute cache and the journal are session state and are
  // not part of the image; the content index is rebuilt by a load-time reindex.
  std::vector<uint8_t> SaveState() const;
  static Result<std::unique_ptr<HacFileSystem>> LoadState(const std::vector<uint8_t>& image,
                                                          HacOptions options = {});

 private:
  friend class HacStateCodec;
  friend class ConsistencyEngine;

  struct Routed {
    FsInterface* fs;
    std::string path;
    bool local;
  };

  // Normalizes and routes a path through the syntactic mount table.
  Result<Routed> Route(const std::string& path) const;

  Result<DirMetadata*> MetaOfPath(const std::string& norm_path);
  Result<DirMetadata*> MetaOfUid(DirUid uid);
  Result<const DirMetadata*> MetaOfUid(DirUid uid) const;

  // Scope bitmap provided by a directory identified by uid (see ScopeOf). Const —
  // service readers derive scopes concurrently under the shared lock.
  Result<Bitmap> ScopeOfUid(DirUid uid) const;
  // Contents bitmap of a directory (see DirectoryResultOf).
  Result<Bitmap> DirContentsOfUid(DirUid uid) const;
  // DirContentsOfUid memoized on (uid, MutationEpoch): the search read path —
  // especially a paged drain, which re-derives the same scope once per
  // FetchPage — asks for identical bitmaps at a quiesced epoch. Mutex-guarded
  // because readers run concurrently under the service's shared lock.
  Result<Bitmap> CachedDirContents(DirUid uid) const;

  // Search and SearchPage's shared front half: parses `query`, binds its dir()
  // references to UIDs and optimizes it, and loads the contents of the routed
  // local directory `scope_path` as the scope.
  struct PreparedSearch {
    QueryExprPtr query;
    Bitmap scope;
    DirResolver resolver;
  };
  Result<PreparedSearch> PrepareSearch(const std::string& query,
                                       const std::string& scope_path);

  // Dependency set for a directory: its parent plus all dirs referenced by its query.
  Result<std::vector<DirUid>> ComputeDeps(DirUid uid, const std::string& norm_path,
                                          const QueryExpr* query);

  // --- consistency helpers (consistency.cc); propagation itself lives in the
  //     ConsistencyEngine (consistency_engine.cc) ---
  Result<void> ImportRemoteResults(const SemanticMount& mount, const QueryExpr& query);
  Result<void> FlushDirtyDocs(const std::string& subtree_root);
  void MaybeAutoReindex();
  void NoteContentMutation();

  // Shared prohibit path: removes `name`'s link record from `m` (and its symlink when
  // `unlink_vfs`), marks the doc prohibited, journals, and notifies the engine.
  Result<void> ProhibitTrackedLink(DirMetadata* m, const std::string& dir_path,
                                   const std::string& name, bool unlink_vfs);

  // Registers bookkeeping for a directory created locally at `norm_path`.
  Result<void> RegisterDirectory(const std::string& norm_path);

  // Strips dir() references (they are local concepts) for remote forwarding.
  static QueryExprPtr ContentOnly(const QueryExpr& query);

  HacOptions options_;
  FileSystem vfs_;
  std::unique_ptr<InvertedIndex> index_;
  FileRegistry registry_;
  UidMap uid_map_;
  DependencyGraph graph_;
  std::unordered_map<DirUid, DirMetadata> metadata_;
  MountTable mounts_;
  MetadataJournal journal_;
  AttributeCache attr_cache_;

  // Single-entry scope memo for CachedDirContents. Epoch-keyed, so any
  // journaled mutation or (re)index activity invalidates it implicitly.
  mutable std::mutex scope_memo_mu_;
  mutable DirUid scope_memo_uid_ = kInvalidDirUid;
  mutable uint64_t scope_memo_epoch_ = 0;
  mutable Bitmap scope_memo_;
  std::vector<HacFdTable> processes_;
  ProcessId current_process_ = 0;

  std::unique_ptr<ConsistencyEngine> engine_;
  StatsSnapshot stats_;
  uint64_t content_mutations_since_reindex_ = 0;
  uint64_t last_reindex_tick_ = 0;
  bool batch_had_content_mutation_ = false;  // auto-reindex check deferred to EndBatch
};

// RAII form of the batch API: opens a batch on construction, closes it on scope exit.
// Call Commit() to observe the flush's status; the destructor swallows it otherwise.
class BatchScope {
 public:
  explicit BatchScope(HacFileSystem& fs) : fs_(&fs) { fs_->BeginBatch(); }
  ~BatchScope() {
    if (fs_ != nullptr) {
      (void)fs_->EndBatch();
    }
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

  // Ends the batch now and reports the flush's result.
  Result<void> Commit() {
    HacFileSystem* fs = fs_;
    fs_ = nullptr;
    return fs->EndBatch();
  }

 private:
  HacFileSystem* fs_;
};

}  // namespace hac

#endif  // HAC_CORE_HAC_FILE_SYSTEM_H_
