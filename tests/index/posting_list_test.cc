#include "src/index/posting_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "src/index/posting_cursor.h"
#include "src/support/rng.h"

namespace hac {
namespace {

TEST(PostingListTest, AppendInOrder) {
  PostingList p;
  p.Add(1);
  p.Add(5);
  p.Add(9);
  EXPECT_EQ(p.docs(), (std::vector<uint32_t>{1, 5, 9}));
}

TEST(PostingListTest, OutOfOrderInsertKeepsSorted) {
  PostingList p;
  p.Add(9);
  p.Add(1);
  p.Add(5);
  p.Add(1);  // duplicate
  EXPECT_EQ(p.docs(), (std::vector<uint32_t>{1, 5, 9}));
}

TEST(PostingListTest, DuplicateAppendIgnored) {
  PostingList p;
  p.Add(3);
  p.Add(3);
  EXPECT_EQ(p.Size(), 1u);
}

TEST(PostingListTest, RemoveExistingAndMissing) {
  PostingList p;
  p.Add(1);
  p.Add(2);
  p.Remove(1);
  EXPECT_EQ(p.docs(), std::vector<uint32_t>{2});
  p.Remove(42);  // no-op
  EXPECT_EQ(p.Size(), 1u);
}

TEST(PostingListTest, UnionIntoAccumulates) {
  PostingList a;
  a.Add(1);
  a.Add(2);
  PostingList b;
  b.Add(2);
  b.Add(100);
  Bitmap bm;
  a.UnionInto(bm);
  b.UnionInto(bm);
  EXPECT_EQ(bm.ToIds(), (std::vector<uint32_t>{1, 2, 100}));
}

TEST(PostingListTest, ToBitmapRoundTrip) {
  PostingList p;
  p.Add(0);
  p.Add(64);
  p.Add(1000);
  EXPECT_EQ(p.ToBitmap().ToIds(), (std::vector<uint32_t>{0, 64, 1000}));
}

// Reference intersection for the IntersectSorted checks.
std::vector<uint32_t> NaiveIntersect(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Two posting lists intersected the way the query evaluator does it: a
// leapfrogging AndCursor over two galloping SpanCursors.
std::vector<uint32_t> IntersectSorted(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  std::vector<PostingCursorPtr> lists;
  lists.push_back(std::make_unique<SpanCursor>(a));
  lists.push_back(std::make_unique<SpanCursor>(b));
  AndCursor both(std::move(lists));
  std::vector<uint32_t> out;
  for (uint32_t v = both.SeekGE(0); v != PostingCursor::kCursorEnd; v = both.Next()) {
    out.push_back(v);
  }
  return out;
}

TEST(PostingListTest, IntersectSortedMergePath) {
  // Comparable sizes: the cursors advance in near-lockstep, a linear merge.
  std::vector<uint32_t> a = {1, 3, 5, 7, 9, 11};
  std::vector<uint32_t> b = {2, 3, 4, 7, 10, 11, 12};
  EXPECT_EQ(IntersectSorted(a, b), NaiveIntersect(a, b));
  EXPECT_EQ(IntersectSorted(b, a), NaiveIntersect(a, b));
  EXPECT_TRUE(IntersectSorted(a, {}).empty());
  EXPECT_TRUE(IntersectSorted({}, b).empty());
}

TEST(PostingListTest, IntersectSortedGallopingPathMatchesNaive) {
  // A large list many times the small one: each seek into it gallops over the
  // gap to the next small id.
  std::vector<uint32_t> small = {0, 500, 999, 4242, 9999};
  std::vector<uint32_t> large;
  for (uint32_t i = 0; i < 10000; i += 3) {
    large.push_back(i);  // multiples of 3: hits 0, 999, 4242, 9999
  }
  ASSERT_GE(large.size(), small.size() * 16);
  EXPECT_EQ(IntersectSorted(small, large), NaiveIntersect(small, large));
  EXPECT_EQ(IntersectSorted(large, small), NaiveIntersect(small, large));
  // Small ids beyond the large list's tail must not read past the end.
  std::vector<uint32_t> past_end = {5, 20000, 30000};
  EXPECT_EQ(IntersectSorted(past_end, large), NaiveIntersect(past_end, large));
}

TEST(PostingListTest, IntersectSortedRandomizedEquivalence) {
  Rng rng(1234);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint32_t> a, b;
    const size_t na = rng.NextInRange(0, 80);
    const size_t nb = rng.NextBool(0.5) ? rng.NextInRange(0, 80)
                                        : rng.NextInRange(500, 3000);  // force skew
    uint32_t x = 0;
    for (size_t i = 0; i < na; ++i) {
      x += static_cast<uint32_t>(rng.NextInRange(1, 40));
      a.push_back(x);
    }
    x = 0;
    for (size_t i = 0; i < nb; ++i) {
      x += static_cast<uint32_t>(rng.NextInRange(1, 5));
      b.push_back(x);
    }
    EXPECT_EQ(IntersectSorted(a, b), NaiveIntersect(a, b)) << round;
  }
}

}  // namespace
}  // namespace hac
