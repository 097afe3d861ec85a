// Shared plain types for the VFS layer.
#ifndef HAC_VFS_TYPES_H_
#define HAC_VFS_TYPES_H_

#include <cstdint>
#include <string>

namespace hac {

using InodeId = uint64_t;
inline constexpr InodeId kInvalidInode = 0;

// File descriptor handle. Negative values are never returned.
using Fd = int32_t;

enum class NodeType : uint8_t {
  kFile = 0,
  kDirectory = 1,
  kSymlink = 2,
};

// Open flags; bitwise-or combinations.
enum OpenFlags : uint32_t {
  kOpenRead = 1u << 0,
  kOpenWrite = 1u << 1,
  kOpenCreate = 1u << 2,    // create if missing (requires kOpenWrite)
  kOpenTruncate = 1u << 3,  // truncate to zero on open (requires kOpenWrite)
  kOpenAppend = 1u << 4,    // all writes go to the end
};

// stat(2)-like metadata snapshot.
struct Stat {
  InodeId inode = kInvalidInode;
  NodeType type = NodeType::kFile;
  uint64_t size = 0;   // bytes (file content / symlink target length / entry count for dirs)
  uint64_t mtime = 0;  // virtual-clock tick of last modification
  uint32_t nlink = 1;

  friend bool operator==(const Stat&, const Stat&) = default;
};

struct DirEntry {
  std::string name;
  NodeType type = NodeType::kFile;
  InodeId inode = kInvalidInode;

  bool operator==(const DirEntry&) const = default;
};

}  // namespace hac

#endif  // HAC_VFS_TYPES_H_
