// Small string helpers shared by the application (de)serializer and the
// bench harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kairos::util {

/// Splits on a single delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items,
                 std::string_view separator);

/// Parses a whole unsigned decimal: digits only (no sign, space or suffix)
/// and no larger than 2^64 - 1; returns false otherwise.
bool parse_unsigned(std::string_view text, std::uint64_t& out);

/// Parses a long; returns false on any non-numeric trailing content.
bool parse_int(std::string_view text, long& out);

/// Parses a double; returns false on any non-numeric trailing content.
bool parse_double(std::string_view text, double& out);

}  // namespace kairos::util
