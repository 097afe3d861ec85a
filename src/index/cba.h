// The CBA (content-based access) mechanism interface between HAC and its indexer.
//
// The paper stresses that HAC talks to Glimpse through "a simple, well defined API ...
// general enough to integrate any CBA mechanism". This is that API. HAC core only ever
// uses this interface; InvertedIndex (index/inverted_index.h) is the default
// implementation.
//
// Results are bitmaps over the dense DocId space (the paper's representation choice);
// the DirResolver callback lets the mechanism pull the *current link set* of a directory
// whose path appears inside a query — exactly the hook section 2.5 describes.
#ifndef HAC_INDEX_CBA_H_
#define HAC_INDEX_CBA_H_

#include <functional>
#include <string>

#include "src/index/query.h"
#include "src/support/bitmap.h"
#include "src/support/result.h"

namespace hac {

// Dense document id. HAC core allocates one per indexed file (and per imported remote
// document) and owns the DocId <-> path mapping.
using DocId = uint32_t;

// Resolves a bound dir() reference to the directory's current link set.
using DirResolver = std::function<Result<Bitmap>(DirUid uid)>;

struct CbaStats {
  uint64_t documents = 0;
  uint64_t terms = 0;
  uint64_t postings = 0;
  uint64_t queries_evaluated = 0;
};

class CbaMechanism {
 public:
  virtual ~CbaMechanism() = default;

  // (Re-)indexes one document. Replaces any previous content for `doc`.
  virtual Result<void> IndexDocument(DocId doc, std::string_view text) = 0;

  virtual Result<void> RemoveDocument(DocId doc) = 0;

  // Evaluates `query` against the index, restricted to `scope`. NOT is interpreted
  // relative to `scope` (scope AND NOT operand). `resolve_dir` may be null when the
  // query contains no dir() references.
  virtual Result<Bitmap> Evaluate(const QueryExpr& query, const Bitmap& scope,
                                  const DirResolver* resolve_dir) = 0;

  // False iff `text` alone definitely fails the content part of `query`. A dir() ref is
  // unknown from text (three-valued logic: NOT unknown is unknown, false AND x is
  // false, true OR x is true), and an unknown answer keeps the text. Used by `sact`
  // to pull matching lines out of a file and by content verification.
  virtual bool MatchesText(const QueryExpr& query, std::string_view text) const = 0;

  virtual CbaStats Stats() const = 0;

  // Approximate resident size of the index structures, for the paper's space numbers.
  virtual size_t IndexSizeBytes() const = 0;
};

}  // namespace hac

#endif  // HAC_INDEX_CBA_H_
