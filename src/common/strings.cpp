#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace prime::common {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> split_outside_parens(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (const char c : text) {
    if (c == '(') ++depth;
    if (c == ')' && depth > 0) --depth;
    if (c == sep && depth == 0) {
      out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  out.push_back(current);
  return out;
}

std::string trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) --e;
  return std::string(text.substr(b, e - b));
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // Single-row dynamic program; names are short so O(|a|*|b|) is fine.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  return row[b.size()];
}

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string pad_left(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text.substr(0, width));
  return std::string(width - text.size(), ' ') + std::string(text);
}

std::string pad_right(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text.substr(0, width));
  return std::string(text) + std::string(width - text.size(), ' ');
}

}  // namespace prime::common
