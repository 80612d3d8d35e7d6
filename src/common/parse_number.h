// Whole words and whole numbers from text: anu_sim, anu_trace and anu_serve
// read every numeric flag and argument through parse_number, and the
// config-file and trace readers split their lines with split_words.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>
#include <vector>

namespace anu {

/// All of `text` as a number in [lo, hi], or nullopt. Trailing characters,
/// a sign on an unsigned type, a leading '+', NaN and out-of-range values
/// are rejected; infinity is rejected whenever `hi` is finite.
template <class T>
std::optional<T> parse_number(std::string_view text, T lo, T hi) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

/// The words of `line`, split at spaces, tabs, '\r', '\n', '\v' and '\f'.
/// A word that starts with '#' ends the line: it and the rest are a
/// comment.
inline std::vector<std::string_view> split_words(std::string_view line) {
  constexpr std::string_view kSpace = " \t\r\n\v\f";
  std::vector<std::string_view> words;
  std::size_t at = line.find_first_not_of(kSpace);
  while (at != std::string_view::npos && line[at] != '#') {
    const std::size_t end = line.find_first_of(kSpace, at);
    words.push_back(line.substr(at, end - at));
    at = line.find_first_not_of(kSpace, end);
  }
  return words;
}

/// The enumerator of E, among those numbered 0..`last`, whose `name_of`
/// spelling is all of `text`, or nullopt: a name is accepted exactly as
/// the enum's name function prints it.
template <class E, class NameOf>
std::optional<E> parse_name(std::string_view text, E last, NameOf name_of) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (text == name_of(static_cast<E>(i))) return static_cast<E>(i);
  }
  return std::nullopt;
}

}  // namespace anu
