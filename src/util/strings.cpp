#include "util/strings.hpp"

#include <cctype>
#include <cstdlib>
#include <limits>

namespace kairos::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& items,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += separator;
    out += items[i];
  }
  return out;
}

bool parse_unsigned(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

bool parse_int(std::string_view text, long& out) {
  const std::string buf(trim(text));
  if (buf.empty()) return false;
  char* end = nullptr;
  const long value = std::strtol(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) return false;
  out = value;
  return true;
}

bool parse_double(std::string_view text, double& out) {
  const std::string buf(trim(text));
  if (buf.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  out = value;
  return true;
}

}  // namespace kairos::util
