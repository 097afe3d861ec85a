#include "src/tools/flags.h"

#include <string>

namespace hac {

Result<uint64_t> ParseDecimal(std::string_view text, uint64_t max) {
  auto invalid = [&] {
    return Error(ErrorCode::kInvalidArgument, "expected a decimal in [0, " +
                                                  std::to_string(max) + "], got '" +
                                                  std::string(text) + "'");
  };
  if (text.empty()) {
    return invalid();
  }
  uint64_t v = 0;
  for (char ch : text) {
    if (ch < '0' || ch > '9') {
      return invalid();
    }
    const uint64_t digit = static_cast<uint64_t>(ch - '0');
    if (v > (max - digit) / 10) {
      return invalid();
    }
    v = v * 10 + digit;
  }
  return v;
}

}  // namespace hac
