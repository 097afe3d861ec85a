#include "src/index/inverted_index.h"

#include <gtest/gtest.h>

namespace hac {
namespace {

Bitmap Eval(InvertedIndex& idx, const std::string& query, const Bitmap& scope) {
  auto ast = ParseQuery(query);
  EXPECT_TRUE(ast.ok()) << query;
  auto r = idx.Evaluate(*ast.value(), scope, nullptr);
  EXPECT_TRUE(r.ok()) << query;
  return r.ok() ? r.value() : Bitmap();
}

class InvertedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(idx_.IndexDocument(0, "fingerprint minutiae ridge").ok());
    ASSERT_TRUE(idx_.IndexDocument(1, "fingerprint murder case").ok());
    ASSERT_TRUE(idx_.IndexDocument(2, "butter flour oven recipe").ok());
    ASSERT_TRUE(idx_.IndexDocument(3, "fingerprint image pixel").ok());
    scope_ = Bitmap::AllUpTo(4);
  }

  InvertedIndex idx_;
  Bitmap scope_;
};

TEST_F(InvertedIndexTest, TermLookup) {
  EXPECT_EQ(Eval(idx_, "fingerprint", scope_).ToIds(), (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(Eval(idx_, "butter", scope_).ToIds(), std::vector<uint32_t>{2});
  EXPECT_TRUE(Eval(idx_, "nonexistent", scope_).Empty());
}

TEST_F(InvertedIndexTest, TermLookupIsCaseInsensitive) {
  EXPECT_EQ(Eval(idx_, "FINGERPRINT", scope_).Count(), 3u);
}

TEST_F(InvertedIndexTest, BooleanCombinations) {
  EXPECT_EQ(Eval(idx_, "fingerprint AND murder", scope_).ToIds(),
            std::vector<uint32_t>{1});
  EXPECT_EQ(Eval(idx_, "fingerprint AND NOT murder", scope_).ToIds(),
            (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(Eval(idx_, "butter OR murder", scope_).ToIds(),
            (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(Eval(idx_, "NOT fingerprint", scope_).ToIds(), std::vector<uint32_t>{2});
}

TEST_F(InvertedIndexTest, AllMatchesScope) {
  EXPECT_EQ(Eval(idx_, "ALL", scope_), scope_);
}

TEST_F(InvertedIndexTest, PrefixQuery) {
  EXPECT_EQ(Eval(idx_, "finger*", scope_).Count(), 3u);
  EXPECT_EQ(Eval(idx_, "min*", scope_).ToIds(), std::vector<uint32_t>{0});
  EXPECT_TRUE(Eval(idx_, "zzz*", scope_).Empty());
}

TEST_F(InvertedIndexTest, ScopeRestrictsEverything) {
  Bitmap narrow = Bitmap::FromIds({1, 2});
  EXPECT_EQ(Eval(idx_, "fingerprint", narrow).ToIds(), std::vector<uint32_t>{1});
  EXPECT_EQ(Eval(idx_, "NOT fingerprint", narrow).ToIds(), std::vector<uint32_t>{2});
  EXPECT_EQ(Eval(idx_, "ALL", narrow), narrow);
}

TEST_F(InvertedIndexTest, NotIsRelativeToScopeNotUniverse) {
  Bitmap narrow = Bitmap::FromIds({0});
  // Doc 2 doesn't contain "fingerprint" but is outside the scope.
  EXPECT_TRUE(Eval(idx_, "NOT fingerprint", narrow).Empty());
}

TEST_F(InvertedIndexTest, RemoveDocument) {
  ASSERT_TRUE(idx_.RemoveDocument(1).ok());
  EXPECT_EQ(Eval(idx_, "fingerprint", scope_).ToIds(), (std::vector<uint32_t>{0, 3}));
  EXPECT_TRUE(Eval(idx_, "murder", scope_).Empty());
  EXPECT_EQ(idx_.RemoveDocument(1).code(), ErrorCode::kNotFound);
}

TEST_F(InvertedIndexTest, ReindexReplacesContent) {
  ASSERT_TRUE(idx_.IndexDocument(1, "now about sailing regatta").ok());
  EXPECT_EQ(Eval(idx_, "fingerprint", scope_).ToIds(), (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(Eval(idx_, "regatta", scope_).ToIds(), std::vector<uint32_t>{1});
  EXPECT_TRUE(Eval(idx_, "murder", scope_).Empty());
}

TEST_F(InvertedIndexTest, StatsReflectState) {
  CbaStats s = idx_.Stats();
  EXPECT_EQ(s.documents, 4u);
  EXPECT_GT(s.terms, 5u);
  EXPECT_GT(s.postings, 5u);
  ASSERT_TRUE(idx_.RemoveDocument(0).ok());
  EXPECT_EQ(idx_.Stats().documents, 3u);
}

TEST_F(InvertedIndexTest, TermFrequencyAndBands) {
  EXPECT_EQ(idx_.TermFrequency("fingerprint"), 3u);
  EXPECT_EQ(idx_.TermFrequency("butter"), 1u);
  EXPECT_EQ(idx_.TermFrequency("absent"), 0u);
  auto rare = idx_.TermsWithFrequencyBetween(1, 1);
  EXPECT_TRUE(std::find(rare.begin(), rare.end(), "butter") != rare.end());
  auto common = idx_.TermsWithFrequencyBetween(3, 100);
  EXPECT_EQ(common, std::vector<std::string>{"fingerprint"});
}

TEST_F(InvertedIndexTest, MatchesTextAgreesWithIndex) {
  auto q = ParseQuery("fingerprint AND NOT murder").value();
  EXPECT_TRUE(idx_.MatchesText(*q, "fingerprint minutiae ridge"));
  EXPECT_FALSE(idx_.MatchesText(*q, "fingerprint murder case"));
  EXPECT_FALSE(idx_.MatchesText(*q, "butter flour"));
  auto prefix = ParseQuery("fing*").value();
  EXPECT_TRUE(idx_.MatchesText(*prefix, "a fingerprint here"));
  EXPECT_FALSE(idx_.MatchesText(*prefix, "no match"));
}

TEST_F(InvertedIndexTest, MatchesTextTreatsDirRefsAsUnknown) {
  // Text alone cannot say whether a file is in a directory: a dir() leaf is
  // unknown, and only a definitely false answer rejects the text.
  auto not_dir = ParseQuery("fingerprint AND NOT dir(/x)").value();
  EXPECT_TRUE(idx_.MatchesText(*not_dir, "fingerprint murder"));
  EXPECT_FALSE(idx_.MatchesText(*not_dir, "butter flour"));
  auto or_dir = ParseQuery("fingerprint OR dir(/x)").value();
  EXPECT_TRUE(idx_.MatchesText(*or_dir, "butter flour"));
  auto and_not = ParseQuery("NOT (fingerprint OR dir(/x))").value();
  EXPECT_FALSE(idx_.MatchesText(*and_not, "fingerprint murder"));
  EXPECT_TRUE(idx_.MatchesText(*and_not, "butter flour"));
}

TEST_F(InvertedIndexTest, DirRefWithoutResolverFails) {
  auto ast = QueryExpr::BoundDirRef(5);
  EXPECT_EQ(idx_.Evaluate(*ast, scope_, nullptr).code(), ErrorCode::kInvalidArgument);
}

TEST_F(InvertedIndexTest, UnboundDirRefFails) {
  auto ast = ParseQuery("dir(/x)").value();
  DirResolver resolver = [](DirUid) -> Result<Bitmap> { return Bitmap(); };
  EXPECT_EQ(idx_.Evaluate(*ast, scope_, &resolver).code(), ErrorCode::kInvalidArgument);
}

TEST_F(InvertedIndexTest, DirRefResolvedThroughCallback) {
  auto ast = QueryExpr::And(QueryExpr::Term("fingerprint"), QueryExpr::BoundDirRef(9));
  DirResolver resolver = [](DirUid uid) -> Result<Bitmap> {
    EXPECT_EQ(uid, 9u);
    return Bitmap::FromIds({1, 2});
  };
  auto r = idx_.Evaluate(*ast, scope_, &resolver);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToIds(), std::vector<uint32_t>{1});
}

TEST_F(InvertedIndexTest, ResolverErrorPropagates) {
  auto ast = QueryExpr::BoundDirRef(9);
  DirResolver resolver = [](DirUid) -> Result<Bitmap> {
    return Error(ErrorCode::kNotFound, "gone");
  };
  EXPECT_EQ(idx_.Evaluate(*ast, scope_, &resolver).code(), ErrorCode::kNotFound);
  // Every leaf is built, so an empty left operand does not mask the failure.
  auto masked = QueryExpr::And(QueryExpr::Term("nonexistent"), QueryExpr::BoundDirRef(9));
  EXPECT_EQ(idx_.Evaluate(*masked, scope_, &resolver).code(), ErrorCode::kNotFound);
}

TEST_F(InvertedIndexTest, IndexSizeGrowsWithContent) {
  size_t before = idx_.IndexSizeBytes();
  ASSERT_TRUE(idx_.IndexDocument(10, "entirely novel vocabulary tremendous").ok());
  EXPECT_GT(idx_.IndexSizeBytes(), before);
}

TEST_F(InvertedIndexTest, StopwordsNeverMatch) {
  // "the" is a stopword: not indexed, so it matches nothing.
  ASSERT_TRUE(idx_.IndexDocument(11, "the quick fox").ok());
  EXPECT_TRUE(Eval(idx_, "the", Bitmap::AllUpTo(12)).Empty());
}

// --- sparse scopes and skewed term intersections ---
//
// A sparse scope leapfrogs a dense term's posting list, and a skewed term-AND-term
// gallops the larger list; both are cursor-tree behaviours with no answer of their
// own. These tests cover sparse and dense scopes, skewed and balanced operands,
// and require the plain set-algebra answer every time.

class FastPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // "common" in every doc, "rare" in every 40th (50 docs), "sparse" in two docs —
    // a wide id space (kDocs >> posting sizes), and |rare| = 25 * |sparse| so
    // their AND gallops over "rare".
    for (uint32_t doc = 0; doc < kDocs; ++doc) {
      std::string text = "common filler";
      if (doc % 40 == 0) {
        text += " rare";
      }
      if (doc == 800 || doc == 1111) {
        text += " sparse";
      }
      ASSERT_TRUE(idx_.IndexDocument(doc, text).ok());
    }
  }

  static constexpr uint32_t kDocs = 2000;
  InvertedIndex idx_;
};

TEST_F(FastPathTest, SparseScopeProbeMatchesBitmapPath) {
  // A 4-doc scope over a 2000-doc posting list: the scope drives the AND.
  Bitmap sparse_scope;
  sparse_scope.Set(0);
  sparse_scope.Set(40);
  sparse_scope.Set(41);
  sparse_scope.Set(1999);
  EXPECT_EQ(Eval(idx_, "common", sparse_scope), sparse_scope);
  EXPECT_EQ(Eval(idx_, "rare", sparse_scope).ToIds(), (std::vector<uint32_t>{0, 40}));
  // A dense scope: results must agree on the overlap.
  Bitmap dense_scope = Bitmap::AllUpTo(kDocs);
  Bitmap dense_rare = Eval(idx_, "rare", dense_scope);
  EXPECT_EQ(dense_rare.Count(), kDocs / 40);
  Bitmap narrowed = dense_rare;
  narrowed &= sparse_scope;
  EXPECT_EQ(Eval(idx_, "rare", sparse_scope), narrowed);
}

TEST_F(FastPathTest, SortedIdAndMatchesGenericEvaluation) {
  Bitmap scope = Bitmap::AllUpTo(kDocs);
  // rare(50) AND sparse(2): a 25x size skew, so "rare" is galloped.
  // 800 = 40*20 is in both.
  EXPECT_EQ(Eval(idx_, "rare AND sparse", scope).ToIds(), std::vector<uint32_t>{800});
  // sparse AND common: "common" covers every doc, the densest operand there is.
  EXPECT_EQ(Eval(idx_, "sparse AND common", scope).ToIds(),
            (std::vector<uint32_t>{800, 1111}));
  // Restricted scope: the scope filter applies after intersection.
  Bitmap half = Bitmap::AllUpTo(1000);
  EXPECT_EQ(Eval(idx_, "rare AND sparse", half).ToIds(), std::vector<uint32_t>{800});
  // Reference: the same AND via public TermDocs bitmaps.
  Bitmap want = idx_.TermDocs("rare");
  want &= idx_.TermDocs("sparse");
  want &= scope;
  EXPECT_EQ(Eval(idx_, "rare AND sparse", scope), want);
  // Unknown operand short-circuits to empty.
  EXPECT_TRUE(Eval(idx_, "rare AND nonexistent", scope).Empty());
}

}  // namespace
}  // namespace hac
