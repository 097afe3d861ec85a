// Word-granularity inverted index: the default CbaMechanism (the repository's Glimpse
// stand-in).
//
// Terms are interned; the dictionary is an ordered map so prefix queries can range-scan.
// Each document remembers its term ids so removal / incremental re-indexing is exact.
#ifndef HAC_INDEX_INVERTED_INDEX_H_
#define HAC_INDEX_INVERTED_INDEX_H_

#include <atomic>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/index/cba.h"
#include "src/index/posting_cursor.h"
#include "src/index/posting_list.h"
#include "src/index/tokenizer.h"

namespace hac {

class InvertedIndex final : public CbaMechanism {
 public:
  explicit InvertedIndex(TokenizerOptions tokenizer_options = {});

  // CbaMechanism:
  Result<void> IndexDocument(DocId doc, std::string_view text) override;
  Result<void> RemoveDocument(DocId doc) override;
  // Drains OpenCursor()'s tree into a bitmap: the whole result set, the shape
  // scope-consistency propagation diffs against its previous snapshot.
  Result<Bitmap> Evaluate(const QueryExpr& query, const Bitmap& scope,
                          const DirResolver* resolve_dir) override;
  bool MatchesText(const QueryExpr& query, std::string_view text) const override;
  CbaStats Stats() const override;
  size_t IndexSizeBytes() const override;

  // The one encoding of query semantics over the index: a cursor tree over the
  // docs matching `query` within `scope` (content-verified when a verifier is
  // installed), already positioned at the first match. Paged reads pull a page
  // from it; Evaluate() drains it. The cursor borrows the index's posting
  // arrays — and `query` itself when a content verifier is installed — so it is
  // valid only until the index is mutated; callers pull one page and discard it.
  Result<PostingCursorPtr> OpenCursor(const QueryExpr& query, const Bitmap& scope,
                                      const DirResolver* resolve_dir) const;

  // --- extra introspection used by benches and workload selection ---

  // Documents containing `term` (exact token), unrestricted by scope.
  Bitmap TermDocs(const std::string& term) const;

  // Number of documents containing `term`.
  size_t TermFrequency(const std::string& term) const;

  // All dictionary terms with document frequency in [min_df, max_df], sorted by term.
  std::vector<std::string> TermsWithFrequencyBetween(size_t min_df, size_t max_df) const;

  bool ContainsDocument(DocId doc) const { return doc_terms_.count(doc) != 0; }

  const Tokenizer& tokenizer() const { return tokenizer_; }

  // Glimpse-fidelity knob: Glimpse is a two-level system — a coarse index narrows the
  // candidate set, then the candidate FILES are searched (agrep). When a fetcher is
  // installed, every cursor OpenCursor() builds (and so every Evaluate()) re-checks
  // each candidate against its current content and drops non-matching ones, paying
  // the same match-proportional cost.
  // Unfetchable documents are kept (deletion is settled by reindexing, not here).
  using ContentFetcher = std::function<Result<std::string>(DocId)>;
  void SetContentVerifier(ContentFetcher fetch) { fetch_content_ = std::move(fetch); }

  // Index persistence (Glimpse keeps its index on disk; so do we). The snapshot holds
  // the dictionary, delta-compressed postings, and the per-document term lists needed
  // for incremental maintenance. The tokenizer configuration is NOT part of the image;
  // load into an index constructed with the same options.
  std::vector<uint8_t> SaveSnapshot() const;
  Result<void> LoadSnapshot(const std::vector<uint8_t>& image);

 private:
  using TermId = uint32_t;

  TermId InternTerm(const std::string& term);

  // Posting list for a term (case-folded), or nullptr when the term is unknown.
  const PostingList* FindPostings(const std::string& term) const;

  Result<PostingCursorPtr> BuildCursor(const QueryExpr& node, const Bitmap& scope,
                                       const DirResolver* resolve_dir) const;

  Tokenizer tokenizer_;
  std::map<std::string, TermId> dictionary_;     // term -> id (ordered: prefix scans)
  std::vector<PostingList> postings_;            // indexed by TermId
  std::vector<const std::string*> term_names_;   // TermId -> dictionary key
  std::unordered_map<DocId, std::vector<TermId>> doc_terms_;
  ContentFetcher fetch_content_;
  // Atomic: concurrent service readers evaluate queries under a shared lock.
  mutable std::atomic<uint64_t> queries_evaluated_ = 0;
};

}  // namespace hac

#endif  // HAC_INDEX_INVERTED_INDEX_H_
