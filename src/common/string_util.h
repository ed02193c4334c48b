// String parsing helpers for the dataset readers (MovieLens files use "::",
// tab and comma separated formats).
#ifndef GRECA_COMMON_STRING_UTIL_H_
#define GRECA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace greca {

/// Splits `text` on the (possibly multi-character) separator `sep`.
/// Empty fields are preserved: Split("a::::b", "::") -> {"a", "", "b"}.
std::vector<std::string_view> Split(std::string_view text,
                                    std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Strict integer parse of the full string; rejects trailing garbage.
std::optional<std::int64_t> ParseInt64(std::string_view text);

/// Strict floating-point parse of the full string.
std::optional<double> ParseDouble(std::string_view text);

/// Formats a double with `digits` decimal places (locale-independent).
std::string FormatDouble(double value, int digits);

}  // namespace greca

#endif  // GRECA_COMMON_STRING_UTIL_H_
