// Strict numeric command-line values, shared by hacd and hacctl.
#ifndef HAC_TOOLS_FLAGS_H_
#define HAC_TOOLS_FLAGS_H_

#include <cstdint>
#include <string_view>

#include "src/support/result.h"

namespace hac {

// Parses `text` as a plain decimal in [0, max]: digits only, so no sign, no
// whitespace, no suffix and no empty string. strtoul/atoi accept "-1", "12x" and
// "" and wrap or truncate out-of-range values; a flag value must not. Anything
// else is kInvalidArgument.
Result<uint64_t> ParseDecimal(std::string_view text, uint64_t max);

}  // namespace hac

#endif  // HAC_TOOLS_FLAGS_H_
