// Per-term posting list: sorted unique DocIds with O(log n) membership and ordered
// insertion. Documents are usually appended in increasing id order (the fast path);
// re-indexing after deletions may insert out of order.
#ifndef HAC_INDEX_POSTING_LIST_H_
#define HAC_INDEX_POSTING_LIST_H_

#include <cstdint>
#include <vector>

#include "src/support/bitmap.h"

namespace hac {

class PostingList {
 public:
  void Add(uint32_t doc);
  void Remove(uint32_t doc);

  size_t Size() const { return docs_.size(); }
  bool Empty() const { return docs_.empty(); }
  size_t SizeBytes() const { return docs_.capacity() * sizeof(uint32_t); }

  // OR-merges this list into `out` (used by prefix queries).
  void UnionInto(Bitmap& out) const;

  Bitmap ToBitmap() const;

  const std::vector<uint32_t>& docs() const { return docs_; }

 private:
  std::vector<uint32_t> docs_;
};

}  // namespace hac

#endif  // HAC_INDEX_POSTING_LIST_H_
