// PostingCursor: lazy, sorted iteration over the DocIds matching a query.
//
// A cursor tree is the index's one encoding of query semantics. Paged reads pull
// the *next* few matches on demand and stop; InvertedIndex::Evaluate drains the
// whole tree into a result bitmap, the shape scope-consistency propagation diffs
// against its previous snapshot. The tree mirrors the query AST — term / AND /
// OR / NOT nodes — and every node exposes one operation, `SeekGE`: position at
// the first match >= target. Term leaves gallop (exponential probe, then binary
// search), AND nodes leapfrog their children to the running maximum, OR nodes
// take the minimum, NOT nodes subtract their operand from a scope cursor.
// Pulling a page of K matches from a selective conjunction therefore costs
// O(K · log) list probes, not one full evaluation, and `rare AND common` never
// pays for the common term's full list.
//
// Lifetime: term leaves borrow the index's posting arrays, so a cursor is valid
// only until the index is next mutated; the verify wrapper additionally borrows
// the query AST. Callers (HacFileSystem::SearchPage) build, pull one page, and
// discard — nothing index-internal survives across requests.
#ifndef HAC_INDEX_POSTING_CURSOR_H_
#define HAC_INDEX_POSTING_CURSOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/support/bitmap.h"

namespace hac {

class PostingCursor {
 public:
  // Sentinel "no more matches" position. Real DocIds are dense small integers.
  static constexpr uint32_t kCursorEnd = UINT32_MAX;

  virtual ~PostingCursor() = default;

  // Current match, or kCursorEnd once exhausted. Valid after the first SeekGE.
  uint32_t Value() const { return value_; }
  bool AtEnd() const { return value_ == kCursorEnd; }

  // Positions the cursor at the first match >= target and returns it (kCursorEnd
  // when exhausted). Forward-only: a target at or below Value() returns Value().
  virtual uint32_t SeekGE(uint32_t target) = 0;

  // Advances past the current match.
  uint32_t Next() { return AtEnd() ? kCursorEnd : SeekGE(value_ + 1); }

 protected:
  uint32_t value_ = 0;
  // Set once the cursor has been positioned by a SeekGE. Composite cursors use
  // it to honor the forward-only contract at entry: a primed cursor answering
  // `target <= value_` with `value_` is what keeps the target sequences seen by
  // its children monotone — re-running the children from a lower target would
  // ask forward-only leaves about ids they have already passed.
  bool primed_ = false;
};

using PostingCursorPtr = std::unique_ptr<PostingCursor>;

// Leaf over a borrowed sorted unique id array (a term's posting list). SeekGE
// gallops forward from the current position: exponential probe then binary search
// inside the overshoot window, so adjacent pulls are O(1) and far seeks are
// O(log distance): a skewed intersection costs O(|small| · log(|large|/|small|)).
class SpanCursor final : public PostingCursor {
 public:
  SpanCursor(const uint32_t* data, size_t size) : data_(data), size_(size) {}
  explicit SpanCursor(const std::vector<uint32_t>& docs)
      : SpanCursor(docs.data(), docs.size()) {}

  uint32_t SeekGE(uint32_t target) override;

 private:
  const uint32_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Leaf that owns its id array (materialized prefix/approx unions, scope snapshots).
class VectorCursor final : public PostingCursor {
 public:
  explicit VectorCursor(std::vector<uint32_t> docs)
      : docs_(std::move(docs)), span_(docs_) {}

  uint32_t SeekGE(uint32_t target) override { return value_ = span_.SeekGE(target); }

 private:
  std::vector<uint32_t> docs_;
  SpanCursor span_;
};

// Leaf over an owned bitmap (scopes, dir() resolutions): SeekGE scans words from
// target/64, so it never touches the bitmap below the frontier.
class BitmapCursor final : public PostingCursor {
 public:
  explicit BitmapCursor(Bitmap bm) : bm_(std::move(bm)) {}

  uint32_t SeekGE(uint32_t target) override;

 private:
  Bitmap bm_;
};

// Intersection: leapfrogs every child to the running maximum until they agree.
class AndCursor final : public PostingCursor {
 public:
  explicit AndCursor(std::vector<PostingCursorPtr> children)
      : children_(std::move(children)) {}

  uint32_t SeekGE(uint32_t target) override;

 private:
  std::vector<PostingCursorPtr> children_;
};

// Union: every child seeks to the target; the minimum child value wins.
class OrCursor final : public PostingCursor {
 public:
  explicit OrCursor(std::vector<PostingCursorPtr> children)
      : children_(std::move(children)) {}

  uint32_t SeekGE(uint32_t target) override;

 private:
  std::vector<PostingCursorPtr> children_;
};

// Difference: matches of `base` that `minus` does not contain (NOT is interpreted
// relative to the enclosing scope, so `base` is a scope cursor).
class DiffCursor final : public PostingCursor {
 public:
  DiffCursor(PostingCursorPtr base, PostingCursorPtr minus)
      : base_(std::move(base)), minus_(std::move(minus)) {}

  uint32_t SeekGE(uint32_t target) override;

 private:
  PostingCursorPtr base_;
  PostingCursorPtr minus_;
};

// Filter: keeps only matches the predicate accepts (the two-level content
// verification pass of InvertedIndex::SetContentVerifier, applied lazily).
class FilterCursor final : public PostingCursor {
 public:
  FilterCursor(PostingCursorPtr inner, std::function<bool(uint32_t)> keep)
      : inner_(std::move(inner)), keep_(std::move(keep)) {}

  uint32_t SeekGE(uint32_t target) override;

 private:
  PostingCursorPtr inner_;
  std::function<bool(uint32_t)> keep_;
};

}  // namespace hac

#endif  // HAC_INDEX_POSTING_CURSOR_H_
