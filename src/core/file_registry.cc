#include "src/core/file_registry.h"

#include "src/vfs/path.h"

namespace hac {

DocId FileRegistry::NewRecord(InodeId inode, const std::string& path) {
  DocId id = static_cast<DocId>(records_.size());
  FileRecord rec;
  rec.id = id;
  rec.inode = inode;
  rec.path = path;
  rec.alive = true;
  rec.dirty = true;
  records_.push_back(std::move(rec));
  by_inode_.emplace(inode, id);
  universe_.Set(id);
  return id;
}

Result<DocId> FileRegistry::Add(InodeId inode, const std::string& path) {
  // One traversal: the path claims the next id, or nothing is inserted.
  if (!by_path_.try_emplace(path, static_cast<DocId>(records_.size())).second) {
    return Error(ErrorCode::kAlreadyExists, path);
  }
  return NewRecord(inode, path);
}

Result<DocId> FileRegistry::AddRemote(InodeId inode, const std::string& path,
                                      const std::string& remote_key) {
  auto it = by_remote_key_.find(remote_key);
  if (it != by_remote_key_.end()) {
    return it->second;
  }
  if (!by_path_.try_emplace(path, static_cast<DocId>(records_.size())).second) {
    return Error(ErrorCode::kAlreadyExists, path);
  }
  DocId id = NewRecord(inode, path);
  records_[id].remote = true;
  records_[id].remote_key = remote_key;
  by_remote_key_.emplace(remote_key, id);
  return id;
}

Result<DocId> FileRegistry::FindByPath(const std::string& path) const {
  auto it = by_path_.find(path);
  if (it == by_path_.end()) {
    return Error(ErrorCode::kNotFound, "unregistered file: " + path);
  }
  return it->second;
}

Result<DocId> FileRegistry::FindByInode(InodeId inode) const {
  auto it = by_inode_.find(inode);
  if (it == by_inode_.end()) {
    return Error(ErrorCode::kNotFound, "unregistered inode " + std::to_string(inode));
  }
  return it->second;
}

Result<DocId> FileRegistry::FindRemote(const std::string& remote_key) const {
  auto it = by_remote_key_.find(remote_key);
  if (it == by_remote_key_.end()) {
    return Error(ErrorCode::kNotFound, "remote key " + remote_key);
  }
  return it->second;
}

const FileRecord* FileRegistry::Get(DocId id) const {
  if (id >= records_.size()) {
    return nullptr;
  }
  return &records_[id];
}

Result<void> FileRegistry::Deactivate(DocId id) {
  if (id >= records_.size() || !records_[id].alive) {
    return Error(ErrorCode::kNotFound, "doc " + std::to_string(id));
  }
  FileRecord& rec = records_[id];
  rec.alive = false;
  rec.dirty = true;  // must be purged from the index
  by_path_.erase(rec.path);
  by_inode_.erase(rec.inode);
  universe_.Clear(id);
  return OkResult();
}

Result<void> FileRegistry::MarkDirty(DocId id) {
  if (id >= records_.size()) {
    return Error(ErrorCode::kNotFound, "doc " + std::to_string(id));
  }
  records_[id].dirty = true;
  return OkResult();
}

Result<void> FileRegistry::SetPath(DocId id, const std::string& path) {
  if (id >= records_.size() || !records_[id].alive) {
    return Error(ErrorCode::kNotFound, "doc " + std::to_string(id));
  }
  FileRecord& rec = records_[id];
  by_path_.erase(rec.path);
  rec.path = path;
  by_path_.emplace(path, id);
  return OkResult();
}

std::string FileRegistry::SubtreePrefix(const std::string& dir) {
  return dir == "/" ? dir : dir + "/";
}

void FileRegistry::RenameSubtree(const std::string& from, const std::string& to) {
  // Re-key the moved nodes without reallocating them: extract, rewrite, reinsert.
  const std::string prefix = SubtreePrefix(from);
  std::vector<PathIndex::node_type> moved;
  for (auto it = by_path_.lower_bound(prefix);
       it != by_path_.end() && it->first.starts_with(prefix);) {
    moved.push_back(by_path_.extract(it++));
  }
  for (PathIndex::node_type& node : moved) {
    FileRecord& rec = records_[node.mapped()];
    rec.path = RebasePath(rec.path, from, to);
    node.key() = rec.path;
    by_path_.insert(std::move(node));
  }
}

Bitmap FileRegistry::FilesWithin(const std::string& dir) const {
  if (dir == "/") {
    return universe_;
  }
  const std::string prefix = SubtreePrefix(dir);
  Bitmap out;
  for (auto it = by_path_.lower_bound(prefix);
       it != by_path_.end() && it->first.starts_with(prefix); ++it) {
    out.Set(it->second);
  }
  return out;
}

Bitmap FileRegistry::DirectChildrenOf(const std::string& dir) const {
  const std::string prefix = SubtreePrefix(dir);
  Bitmap out;
  for (auto it = by_path_.lower_bound(prefix);
       it != by_path_.end() && it->first.starts_with(prefix); ++it) {
    if (it->first.find('/', prefix.size()) == std::string::npos) {
      out.Set(it->second);
    }
  }
  return out;
}

std::vector<DocId> FileRegistry::DirtyDocs() const {
  std::vector<DocId> out;
  for (const FileRecord& rec : records_) {
    if (rec.dirty) {
      out.push_back(rec.id);
    }
  }
  return out;
}

void FileRegistry::ClearDirty(DocId id) {
  if (id < records_.size()) {
    records_[id].dirty = false;
  }
}

Result<void> FileRegistry::RestoreRecord(const FileRecord& rec) {
  if (rec.id != records_.size()) {
    return Error(ErrorCode::kCorrupt,
                 "registry record out of order: " + std::to_string(rec.id));
  }
  records_.push_back(rec);
  if (rec.alive) {
    if (by_inode_.count(rec.inode) != 0 ||
        !by_path_.try_emplace(rec.path, rec.id).second) {
      return Error(ErrorCode::kCorrupt, "duplicate live record: " + rec.path);
    }
    by_inode_.emplace(rec.inode, rec.id);
    universe_.Set(rec.id);
  }
  if (!rec.remote_key.empty()) {
    by_remote_key_.emplace(rec.remote_key, rec.id);
  }
  return OkResult();
}

size_t FileRegistry::SizeBytes() const {
  size_t total = records_.capacity() * sizeof(FileRecord) + universe_.SizeBytes();
  for (const FileRecord& rec : records_) {
    total += rec.path.size() + rec.remote_key.size();
  }
  // An ordered-map node holds its key/value pair plus three links and a color word.
  total += by_path_.size() * (sizeof(PathIndex::value_type) + 4 * sizeof(void*));
  total += by_inode_.size() * 48 + by_remote_key_.size() * 64;
  return total;
}

}  // namespace hac
