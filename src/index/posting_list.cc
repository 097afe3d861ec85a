#include "src/index/posting_list.h"

#include <algorithm>

namespace hac {

void PostingList::Add(uint32_t doc) {
  if (docs_.empty() || doc > docs_.back()) {
    docs_.push_back(doc);
    return;
  }
  auto it = std::lower_bound(docs_.begin(), docs_.end(), doc);
  if (it == docs_.end() || *it != doc) {
    docs_.insert(it, doc);
  }
}

void PostingList::Remove(uint32_t doc) {
  auto it = std::lower_bound(docs_.begin(), docs_.end(), doc);
  if (it != docs_.end() && *it == doc) {
    docs_.erase(it);
  }
}

bool PostingList::Contains(uint32_t doc) const {
  return std::binary_search(docs_.begin(), docs_.end(), doc);
}

void PostingList::UnionInto(Bitmap& out) const {
  for (uint32_t doc : docs_) {
    out.Set(doc);
  }
}

Bitmap PostingList::ToBitmap() const {
  Bitmap bm;
  if (!docs_.empty()) {
    bm.Reserve(docs_.back() + 1);
  }
  UnionInto(bm);
  return bm;
}

}  // namespace hac
