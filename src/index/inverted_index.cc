#include "src/index/inverted_index.h"

#include <algorithm>

#include "src/index/edit_distance.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"
#include "src/support/string_util.h"
#include "src/support/trace.h"

namespace hac {

namespace {

struct IndexMetrics {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& queries = reg.GetCounter(metric_names::kIndexQueries);
  Counter& docs_indexed = reg.GetCounter(metric_names::kIndexDocsIndexed);
  Counter& docs_removed = reg.GetCounter(metric_names::kIndexDocsRemoved);
  Histogram& query_us = reg.GetHistogram(metric_names::kIndexQueryUs);
  Histogram& selectivity_pct =
      reg.GetHistogram(metric_names::kIndexQuerySelectivityPct, "pct");
};

IndexMetrics& GM() {
  static IndexMetrics* m = new IndexMetrics();
  return *m;
}

// Prefix/approx nodes expand to one posting list per matching dictionary term.
// Up to this many expand as a lazy OR of span cursors; beyond it the O(fanout)
// per-step minimum scan loses to materializing the union bitmap once.
constexpr size_t kCursorOrFanout = 16;

}  // namespace

InvertedIndex::InvertedIndex(TokenizerOptions tokenizer_options)
    : tokenizer_(tokenizer_options) {}

InvertedIndex::TermId InvertedIndex::InternTerm(const std::string& term) {
  auto [it, inserted] = dictionary_.emplace(term, static_cast<TermId>(postings_.size()));
  if (inserted) {
    postings_.emplace_back();
    term_names_.push_back(&it->first);
  }
  return it->second;
}

Result<void> InvertedIndex::IndexDocument(DocId doc, std::string_view text) {
  if (doc_terms_.count(doc) != 0) {
    HAC_RETURN_IF_ERROR(RemoveDocument(doc));
  }
  std::vector<std::string> tokens = tokenizer_.UniqueTokens(text);
  std::vector<TermId> term_ids;
  term_ids.reserve(tokens.size());
  for (const std::string& token : tokens) {
    TermId id = InternTerm(token);
    postings_[id].Add(doc);
    term_ids.push_back(id);
  }
  doc_terms_.emplace(doc, std::move(term_ids));
  GM().docs_indexed.Inc();
  return OkResult();
}

Result<void> InvertedIndex::RemoveDocument(DocId doc) {
  auto it = doc_terms_.find(doc);
  if (it == doc_terms_.end()) {
    return Error(ErrorCode::kNotFound, "document " + std::to_string(doc) + " not indexed");
  }
  for (TermId id : it->second) {
    postings_[id].Remove(doc);
  }
  doc_terms_.erase(it);
  GM().docs_removed.Inc();
  return OkResult();
}

Result<Bitmap> InvertedIndex::Evaluate(const QueryExpr& query, const Bitmap& scope,
                                       const DirResolver* resolve_dir) {
  TraceSpan span(metric_names::kSpanIndexEvaluate);
  const uint64_t t0 = kMetricsCompiledIn ? TraceRing::NowUs() : 0;
  HAC_ASSIGN_OR_RETURN(PostingCursorPtr cursor, OpenCursor(query, scope, resolve_dir));
  // Every match lies inside the scope, so its capacity bounds the result's.
  Bitmap result(scope.CapacityBits());
  for (uint32_t doc = cursor->Value(); doc != PostingCursor::kCursorEnd;
       doc = cursor->Next()) {
    result.Set(doc);
  }
  if (kMetricsCompiledIn) {
    GM().query_us.Record(TraceRing::NowUs() - t0);
    const uint64_t scope_count = scope.Count();
    const uint64_t hits = result.Count();
    if (scope_count > 0) {
      // Scope-filter selectivity: fraction of the candidate scope the query kept.
      GM().selectivity_pct.Record(hits * 100 / scope_count);
    }
    span.Arg("scope", scope_count);
    span.Arg("hits", hits);
  }
  return result;
}

Result<PostingCursorPtr> InvertedIndex::OpenCursor(const QueryExpr& query,
                                                   const Bitmap& scope,
                                                   const DirResolver* resolve_dir) const {
  ++queries_evaluated_;
  GM().queries.Inc();
  PostingCursorPtr root;
  if (query.kind == QueryKind::kAll) {
    root = std::make_unique<BitmapCursor>(scope);
  } else {
    // Leaves are built unscoped; one intersection with the scope at the root
    // restricts every node to it (intersection distributes over AND/OR, and NOT
    // nodes scope-subtract internally).
    HAC_ASSIGN_OR_RETURN(PostingCursorPtr tree, BuildCursor(query, scope, resolve_dir));
    std::vector<PostingCursorPtr> both;
    both.push_back(std::make_unique<BitmapCursor>(scope));
    both.push_back(std::move(tree));
    root = std::make_unique<AndCursor>(std::move(both));
  }
  if (fetch_content_) {
    // Two-level verification (see SetContentVerifier), applied lazily per match.
    // Borrows `query`: the caller keeps the AST alive while pulling.
    root = std::make_unique<FilterCursor>(
        std::move(root), [this, &query](uint32_t doc) {
          auto body = fetch_content_(doc);
          return !body.ok() || MatchesText(query, body.value());
        });
  }
  root->SeekGE(0);
  return root;
}

Result<PostingCursorPtr> InvertedIndex::BuildCursor(const QueryExpr& node,
                                                    const Bitmap& scope,
                                                    const DirResolver* resolve_dir) const {
  switch (node.kind) {
    case QueryKind::kAll:
      return PostingCursorPtr(std::make_unique<BitmapCursor>(scope));
    case QueryKind::kTerm: {
      const PostingList* plist = FindPostings(node.text);
      if (plist == nullptr || plist->Empty()) {
        return PostingCursorPtr(std::make_unique<VectorCursor>(std::vector<uint32_t>{}));
      }
      return PostingCursorPtr(
          std::make_unique<SpanCursor>(plist->docs().data(), plist->Size()));
    }
    case QueryKind::kPrefix:
    case QueryKind::kApprox: {
      std::vector<PostingCursorPtr> lists;
      bool overflow = false;
      Bitmap merged;
      auto add = [&](const PostingList& p) {
        if (p.Empty()) {
          return;
        }
        if (!overflow && lists.size() == kCursorOrFanout) {
          overflow = true;
          for (const PostingCursorPtr& c : lists) {
            // Spill the collected spans into a bitmap; SpanCursor is fresh, so a
            // full SeekGE walk is just the list replay.
            for (uint32_t v = c->SeekGE(0); v != PostingCursor::kCursorEnd;
                 v = c->Next()) {
              merged.Set(v);
            }
          }
          lists.clear();
        }
        if (overflow) {
          p.UnionInto(merged);
        } else {
          lists.push_back(std::make_unique<SpanCursor>(p.docs().data(), p.Size()));
        }
      };
      if (node.kind == QueryKind::kPrefix) {
        for (auto it = dictionary_.lower_bound(node.text);
             it != dictionary_.end() && StartsWith(it->first, node.text); ++it) {
          add(postings_[it->second]);
        }
      } else {
        for (const auto& [term, id] : dictionary_) {
          if (WithinEditDistance(term, node.text, node.approx_distance)) {
            add(postings_[id]);
          }
        }
      }
      if (overflow) {
        return PostingCursorPtr(std::make_unique<BitmapCursor>(std::move(merged)));
      }
      if (lists.empty()) {
        return PostingCursorPtr(std::make_unique<VectorCursor>(std::vector<uint32_t>{}));
      }
      if (lists.size() == 1) {
        return std::move(lists.front());
      }
      return PostingCursorPtr(std::make_unique<OrCursor>(std::move(lists)));
    }
    case QueryKind::kDirRef: {
      if (node.dir_uid == kInvalidDirUid) {
        return Error(ErrorCode::kInvalidArgument,
                     "unbound dir() reference: " + node.text);
      }
      if (resolve_dir == nullptr || !*resolve_dir) {
        return Error(ErrorCode::kInvalidArgument, "no dir() resolver supplied");
      }
      HAC_ASSIGN_OR_RETURN(Bitmap bm, (*resolve_dir)(node.dir_uid));
      return PostingCursorPtr(std::make_unique<BitmapCursor>(std::move(bm)));
    }
    case QueryKind::kAnd:
    case QueryKind::kOr: {
      std::vector<PostingCursorPtr> children;
      for (const QueryExprPtr& child : node.children) {
        HAC_ASSIGN_OR_RETURN(PostingCursorPtr c,
                             BuildCursor(*child, scope, resolve_dir));
        children.push_back(std::move(c));
      }
      if (node.kind == QueryKind::kAnd) {
        return PostingCursorPtr(std::make_unique<AndCursor>(std::move(children)));
      }
      return PostingCursorPtr(std::make_unique<OrCursor>(std::move(children)));
    }
    case QueryKind::kNot: {
      HAC_ASSIGN_OR_RETURN(PostingCursorPtr operand,
                           BuildCursor(*node.children[0], scope, resolve_dir));
      return PostingCursorPtr(std::make_unique<DiffCursor>(
          std::make_unique<BitmapCursor>(scope), std::move(operand)));
    }
  }
  return Error(ErrorCode::kInvalidArgument, "bad query node");
}

bool InvertedIndex::MatchesText(const QueryExpr& query, std::string_view text) const {
  std::vector<std::string> tokens = tokenizer_.UniqueTokens(text);
  auto has_token = [&tokens](const std::string& t) {
    return std::binary_search(tokens.begin(), tokens.end(), t);
  };
  auto has_prefix = [&tokens](const std::string& p) {
    auto it = std::lower_bound(tokens.begin(), tokens.end(), p);
    return it != tokens.end() && StartsWith(*it, p);
  };
  auto has_approx = [&tokens](const std::string& t, size_t dist) {
    for (const std::string& token : tokens) {
      if (WithinEditDistance(token, t, dist)) {
        return true;
      }
    }
    return false;
  };
  // Three-valued (Kleene) logic: a dir() leaf is unknown, since membership cannot
  // be judged from text alone. Ordered kFalse < kUnknown < kTrue, AND is the
  // minimum, OR the maximum, and NOT mirrors around kUnknown.
  enum Truth { kFalse = 0, kUnknown = 1, kTrue = 2 };
  auto truth = [](bool b) { return b ? kTrue : kFalse; };
  std::function<Truth(const QueryExpr&)> eval = [&](const QueryExpr& node) -> Truth {
    switch (node.kind) {
      case QueryKind::kAll:
        return kTrue;
      case QueryKind::kTerm:
        return truth(has_token(node.text));
      case QueryKind::kPrefix:
        return truth(has_prefix(node.text));
      case QueryKind::kApprox:
        return truth(has_approx(node.text, node.approx_distance));
      case QueryKind::kDirRef:
        return kUnknown;
      case QueryKind::kAnd: {
        const Truth lhs = eval(*node.children[0]);
        return lhs == kFalse ? kFalse : std::min(lhs, eval(*node.children[1]));
      }
      case QueryKind::kOr: {
        const Truth lhs = eval(*node.children[0]);
        return lhs == kTrue ? kTrue : std::max(lhs, eval(*node.children[1]));
      }
      case QueryKind::kNot:
        return static_cast<Truth>(kTrue - eval(*node.children[0]));
    }
    return kFalse;
  };
  // Keep the text unless the content part definitely rules it out.
  return eval(query) != kFalse;
}

CbaStats InvertedIndex::Stats() const {
  CbaStats s;
  s.documents = doc_terms_.size();
  s.terms = dictionary_.size();
  for (const PostingList& p : postings_) {
    s.postings += p.Size();
  }
  s.queries_evaluated = queries_evaluated_;
  return s;
}

size_t InvertedIndex::IndexSizeBytes() const {
  size_t total = 0;
  for (const auto& [term, id] : dictionary_) {
    total += term.size() + sizeof(TermId) + 48;  // dictionary node overhead
  }
  for (const PostingList& p : postings_) {
    total += p.SizeBytes();
  }
  for (const auto& [doc, terms] : doc_terms_) {
    total += sizeof(DocId) + terms.capacity() * sizeof(TermId) + 32;
  }
  return total;
}

const PostingList* InvertedIndex::FindPostings(const std::string& term) const {
  auto it = dictionary_.find(ToLowerAscii(term));
  return it == dictionary_.end() ? nullptr : &postings_[it->second];
}

Bitmap InvertedIndex::TermDocs(const std::string& term) const {
  const PostingList* plist = FindPostings(term);
  return plist == nullptr ? Bitmap() : plist->ToBitmap();
}

size_t InvertedIndex::TermFrequency(const std::string& term) const {
  const PostingList* plist = FindPostings(term);
  return plist == nullptr ? 0 : plist->Size();
}

std::vector<std::string> InvertedIndex::TermsWithFrequencyBetween(size_t min_df,
                                                                  size_t max_df) const {
  std::vector<std::string> out;
  for (const auto& [term, id] : dictionary_) {
    size_t df = postings_[id].Size();
    if (df >= min_df && df <= max_df) {
      out.push_back(term);
    }
  }
  return out;
}

}  // namespace hac
