// ParseDecimal: the strict rule every numeric hacd/hacctl flag goes through.
#include "src/tools/flags.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace hac {
namespace {

TEST(ParseDecimalTest, AcceptsPlainDecimalsUpToMax) {
  auto zero = ParseDecimal("0", 65535);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value(), 0u);
  auto top = ParseDecimal("65535", 65535);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value(), 65535u);
  auto full = ParseDecimal("18446744073709551615", UINT64_MAX);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value(), UINT64_MAX);
}

TEST(ParseDecimalTest, RejectsEmptySignedSuffixedAndOutOfRange) {
  for (const char* bad : {"", "-1", "+1", "12x", " 1", "abc", "70000"}) {
    auto r = ParseDecimal(bad, 65535);
    ASSERT_FALSE(r.ok()) << "'" << bad << "'";
    EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  }
  // One past the 64-bit range must not wrap around to a small value.
  EXPECT_FALSE(ParseDecimal("18446744073709551616", UINT64_MAX).ok());
}

}  // namespace
}  // namespace hac
