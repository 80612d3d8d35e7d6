// Whole-string numbers from the command line: anu_sim, anu_trace and
// anu_serve read every numeric flag and argument through parse_number.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace anu {

/// All of `text` as a number in [lo, hi], or nullopt. Trailing characters,
/// a sign on an unsigned type, NaN and out-of-range values are rejected;
/// infinity is rejected whenever `hi` is finite.
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

}  // namespace anu
