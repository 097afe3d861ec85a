#include "src/index/posting_cursor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/index/inverted_index.h"

namespace hac {
namespace {

constexpr uint32_t kEnd = PostingCursor::kCursorEnd;

std::vector<uint32_t> Drain(PostingCursor& c) {
  std::vector<uint32_t> out;
  for (uint32_t v = c.SeekGE(0); v != kEnd; v = c.Next()) {
    out.push_back(v);
  }
  return out;
}

PostingCursorPtr Vec(std::vector<uint32_t> docs) {
  return std::make_unique<VectorCursor>(std::move(docs));
}

TEST(SpanCursorTest, DrainsEntireList) {
  std::vector<uint32_t> docs{1, 4, 9, 100, 4096};
  SpanCursor c(docs);
  EXPECT_EQ(Drain(c), docs);
  EXPECT_TRUE(c.AtEnd());
  EXPECT_EQ(c.Next(), kEnd);  // Next past the end stays at the end
}

TEST(SpanCursorTest, SeekLandsOnFirstAtOrAbove) {
  std::vector<uint32_t> docs{10, 20, 30, 40};
  SpanCursor c(docs);
  EXPECT_EQ(c.SeekGE(0), 10u);
  EXPECT_EQ(c.SeekGE(20), 20u);
  EXPECT_EQ(c.SeekGE(21), 30u);
  EXPECT_EQ(c.SeekGE(40), 40u);
  EXPECT_EQ(c.SeekGE(41), kEnd);
}

TEST(SpanCursorTest, ForwardOnlySeekBelowValueReturnsValue) {
  std::vector<uint32_t> docs{5, 15, 25};
  SpanCursor c(docs);
  EXPECT_EQ(c.SeekGE(16), 25u);
  // The contract is forward-only: seeking backwards does not rewind.
  EXPECT_EQ(c.SeekGE(0), 25u);
}

TEST(SpanCursorTest, EmptyListIsImmediatelyExhausted) {
  SpanCursor c(nullptr, 0);
  EXPECT_EQ(c.SeekGE(0), kEnd);
  EXPECT_TRUE(c.AtEnd());
}

TEST(SpanCursorTest, GallopMatchesLinearScanOnRandomWorkload) {
  std::mt19937 rng(7);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint32_t> docs;
    uint32_t v = rng() % 4;
    const size_t n = 1 + rng() % 300;
    for (size_t i = 0; i < n; ++i) {
      docs.push_back(v);
      v += 1 + rng() % 64;  // occasional large gaps exercise the gallop window
    }
    SpanCursor c(docs);
    uint32_t frontier = 0;
    for (int seek = 0; seek < 40; ++seek) {
      frontier += rng() % 800;
      auto it = std::lower_bound(docs.begin(), docs.end(), frontier);
      const uint32_t expected = it == docs.end() ? kEnd : *it;
      EXPECT_EQ(c.SeekGE(frontier), expected) << "target " << frontier;
      if (expected == kEnd) {
        break;
      }
      frontier = expected;  // keep targets monotone (forward-only contract)
    }
  }
}

TEST(BitmapCursorTest, MatchesBitmapIds) {
  Bitmap bm;
  const std::vector<uint32_t> ids{0, 1, 63, 64, 65, 127, 128, 1000};
  for (uint32_t id : ids) {
    bm.Set(id);
  }
  BitmapCursor c(bm);
  EXPECT_EQ(Drain(c), ids);
}

TEST(BitmapCursorTest, SeekSkipsEmptyWords) {
  Bitmap bm;
  bm.Set(3);
  bm.Set(100000);
  BitmapCursor c(std::move(bm));
  EXPECT_EQ(c.SeekGE(4), 100000u);
  EXPECT_EQ(c.Next(), kEnd);
}

TEST(AndCursorTest, Intersects) {
  std::vector<PostingCursorPtr> kids;
  kids.push_back(Vec({1, 2, 3, 5, 8, 13}));
  kids.push_back(Vec({2, 3, 4, 8, 21}));
  kids.push_back(Vec({0, 2, 8, 9, 21}));
  AndCursor c(std::move(kids));
  EXPECT_EQ(Drain(c), (std::vector<uint32_t>{2, 8}));
}

TEST(OrCursorTest, UnionsWithDuplicatesCollapsed) {
  std::vector<PostingCursorPtr> kids;
  kids.push_back(Vec({1, 5, 9}));
  kids.push_back(Vec({1, 2, 9, 12}));
  OrCursor c(std::move(kids));
  EXPECT_EQ(Drain(c), (std::vector<uint32_t>{1, 2, 5, 9, 12}));
}

TEST(DiffCursorTest, SubtractsMinusFromBase) {
  DiffCursor c(Vec({0, 1, 2, 3, 4, 5}), Vec({1, 3, 5, 7}));
  EXPECT_EQ(Drain(c), (std::vector<uint32_t>{0, 2, 4}));
}

TEST(FilterCursorTest, KeepsOnlyAcceptedMatches) {
  FilterCursor c(Vec({1, 2, 3, 4, 5, 6}), [](uint32_t v) { return v % 2 == 0; });
  EXPECT_EQ(Drain(c), (std::vector<uint32_t>{2, 4, 6}));
}

TEST(CursorTreeTest, NestedCombinatorsMatchSetAlgebra) {
  // (A ∪ B) ∩ (C − D)
  std::vector<PostingCursorPtr> uni;
  uni.push_back(Vec({1, 4, 7, 10}));
  uni.push_back(Vec({2, 4, 8, 10}));
  auto lhs = std::make_unique<OrCursor>(std::move(uni));
  auto rhs = std::make_unique<DiffCursor>(Vec({1, 2, 4, 8, 10}), Vec({4}));
  std::vector<PostingCursorPtr> kids;
  kids.push_back(std::move(lhs));
  kids.push_back(std::move(rhs));
  AndCursor c(std::move(kids));
  EXPECT_EQ(Drain(c), (std::vector<uint32_t>{1, 2, 8, 10}));
}

// --- cursor and Evaluate against a brute-force oracle --------------------------
//
// The oracle never touches the posting lists: it scans every in-scope document
// and asks MatchesText whether its stored body satisfies the query. For every
// generated query, both the cursor tree (ids in order) and Evaluate()'s bitmap,
// which drains that tree, must equal the scan. This is the same ablation
// bench_streaming gates, shrunk to unit-test size.

class CursorEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937 rng(42);
    const std::vector<std::string> vocab{"alpha", "bravo", "charlie", "delta",
                                         "echo",  "fox",   "golf",    "hotel"};
    for (uint32_t doc = 0; doc < 200; ++doc) {
      std::string body;
      const size_t n = 1 + rng() % 5;
      for (size_t i = 0; i < n; ++i) {
        body += vocab[rng() % vocab.size()];
        body += ' ';
      }
      ASSERT_TRUE(idx_.IndexDocument(doc, body).ok());
      bodies_.push_back(body);
    }
    // A scope with holes, so NOT/scope interaction is exercised.
    for (uint32_t doc = 0; doc < 200; ++doc) {
      if (doc % 7 != 3) {
        scope_.Set(doc);
      }
    }
  }

  // In-scope docs whose stored body satisfies `query`, and — when `fetch` is
  // given — whose fetched content does too (the two-level verification).
  std::vector<uint32_t> Oracle(const std::string& query,
                               const InvertedIndex::ContentFetcher& fetch = nullptr) {
    auto ast = ParseQuery(query);
    EXPECT_TRUE(ast.ok()) << query;
    std::vector<uint32_t> out;
    for (uint32_t doc = 0; doc < bodies_.size(); ++doc) {
      if (scope_.Test(doc) && idx_.MatchesText(*ast.value(), bodies_[doc]) &&
          (!fetch || idx_.MatchesText(*ast.value(), fetch(doc).value()))) {
        out.push_back(doc);
      }
    }
    return out;
  }

  void ExpectMatchesOracle(const std::string& query,
                           const InvertedIndex::ContentFetcher& fetch = nullptr) {
    const std::vector<uint32_t> want = Oracle(query, fetch);
    EXPECT_EQ(EvalCursor(query), want) << query;
    EXPECT_EQ(EvalEager(query), want) << query;
  }

  std::vector<uint32_t> EvalEager(const std::string& query) {
    auto ast = ParseQuery(query);
    EXPECT_TRUE(ast.ok()) << query;
    auto bm = idx_.Evaluate(*ast.value(), scope_, nullptr);
    EXPECT_TRUE(bm.ok()) << query;
    return bm.value().ToIds();
  }

  std::vector<uint32_t> EvalCursor(const std::string& query) {
    auto ast = ParseQuery(query);
    EXPECT_TRUE(ast.ok()) << query;
    auto cur = idx_.OpenCursor(*ast.value(), scope_, nullptr);
    EXPECT_TRUE(cur.ok()) << query;
    std::vector<uint32_t> out;
    for (uint32_t v = cur.value()->Value(); !cur.value()->AtEnd();
         v = cur.value()->Next()) {
      out.push_back(v);
    }
    return out;
  }

  InvertedIndex idx_;
  std::vector<std::string> bodies_;  // indexed text, by doc id
  Bitmap scope_;
};

TEST_F(CursorEquivalenceTest, HandWrittenQueries) {
  for (const char* q :
       {"alpha", "ALL", "alpha AND bravo", "alpha OR bravo", "NOT alpha",
        "alpha AND NOT bravo", "(alpha OR bravo) AND (charlie OR delta)",
        "al*", "z*", "NOT (alpha OR bravo OR charlie)",
        "alpha AND bravo AND charlie AND delta", "missingterm"}) {
    ExpectMatchesOracle(q);
  }
}

TEST_F(CursorEquivalenceTest, RandomizedQueryCorpus) {
  std::mt19937 rng(1234);
  const std::vector<std::string> vocab{"alpha", "bravo", "charlie", "delta",
                                       "echo",  "fox",   "golf",    "hotel",
                                       "al*",   "missing"};
  std::function<std::string(int)> gen = [&](int depth) -> std::string {
    if (depth <= 0 || rng() % 3 == 0) {
      return vocab[rng() % vocab.size()];
    }
    switch (rng() % 3) {
      case 0:
        return "(" + gen(depth - 1) + " AND " + gen(depth - 1) + ")";
      case 1:
        return "(" + gen(depth - 1) + " OR " + gen(depth - 1) + ")";
      default:
        return "(NOT " + gen(depth - 1) + ")";
    }
  };
  for (int i = 0; i < 200; ++i) {
    ExpectMatchesOracle(gen(3));
  }
}

TEST_F(CursorEquivalenceTest, ContentVerifierAppliesLazily) {
  // Reject every odd doc at verification time; the cursor must apply the
  // two-level check to every match it yields.
  const InvertedIndex::ContentFetcher fetch = [](DocId doc) -> Result<std::string> {
    if (doc % 2 == 1) {
      return std::string("unrelated words only");
    }
    return std::string("alpha bravo charlie delta echo fox golf hotel");
  };
  idx_.SetContentVerifier(fetch);
  for (const char* q : {"alpha", "alpha AND bravo", "alpha OR hotel"}) {
    ExpectMatchesOracle(q, fetch);
  }
}

TEST_F(CursorEquivalenceTest, PagedPullEqualsFullDrain) {
  // Pulling in small pages (SeekGE frontier restarts) covers SearchPage's resume
  // pattern: a fresh cursor seeked to last+1 must continue exactly where the
  // previous page stopped.
  const std::string q = "(alpha OR bravo) AND NOT charlie";
  const std::vector<uint32_t> full = EvalCursor(q);
  std::vector<uint32_t> paged;
  uint32_t start = 0;
  for (;;) {
    auto ast = ParseQuery(q);
    ASSERT_TRUE(ast.ok());
    auto cur = idx_.OpenCursor(*ast.value(), scope_, nullptr);
    ASSERT_TRUE(cur.ok());
    size_t pulled = 0;
    uint32_t v = cur.value()->SeekGE(start);
    for (; v != kEnd && pulled < 3; v = cur.value()->Next(), ++pulled) {
      paged.push_back(v);
    }
    if (pulled < 3) {
      break;
    }
    start = paged.back() + 1;
  }
  EXPECT_EQ(paged, full);
}

}  // namespace
}  // namespace hac
