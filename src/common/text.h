// Text-parse helpers shared by the line grammars (scenario specs, fault
// schedules) and the tools' flags.  Header-only: the fault library sits on
// the sim layer alone.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace music::text {

/// Parses all of `s` as a number of `out`'s type.
template <typename T>
bool parse_num(std::string_view s, T* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// "2s" / "150ms" / "300us" -> Duration (microseconds).
inline bool parse_time(std::string_view s, sim::Duration* out) {
  sim::Duration unit = sim::sec(1);
  size_t suffix = 1;
  if (s.size() > 2 && s.ends_with("ms")) {
    unit = sim::ms(1);
    suffix = 2;
  } else if (s.size() > 2 && s.ends_with("us")) {
    unit = 1;
    suffix = 2;
  } else if (s.size() < 2 || !s.ends_with('s')) {
    return false;
  }
  double v;
  if (!parse_num(s.substr(0, s.size() - suffix), &v) || v < 0) return false;
  *out = static_cast<sim::Duration>(v * static_cast<double>(unit));
  return true;
}

/// Duration -> the coarsest exact spelling parse_time reads back.
inline std::string time_str(sim::Duration d) {
  if (d % sim::sec(1) == 0) return std::to_string(d / sim::sec(1)) + "s";
  if (d % sim::ms(1) == 0) return std::to_string(d / sim::ms(1)) + "ms";
  return std::to_string(d) + "us";
}

/// Splits `s` on whitespace; each token is a view into `s`.
inline std::vector<std::string_view> tokenize(std::string_view s) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";  // isspace, "C" locale
  std::vector<std::string_view> toks;
  size_t i = s.find_first_not_of(kSpace);
  while (i != std::string_view::npos) {
    size_t end = std::min(s.find_first_of(kSpace, i), s.size());
    toks.push_back(s.substr(i, end - i));
    i = s.find_first_not_of(kSpace, end);
  }
  return toks;
}

/// "7001,7002,7003" -> {7001, 7002, 7003}, each entry read by strtoul
/// (the tools' port-list flags).
inline std::vector<uint16_t> parse_ports(std::string_view s) {
  std::vector<uint16_t> ports;
  for (size_t pos = 0; pos <= s.size();) {
    size_t comma = std::min(s.find(',', pos), s.size());
    std::string part(s.substr(pos, comma - pos));
    ports.push_back(static_cast<uint16_t>(strtoul(part.c_str(), nullptr, 10)));
    pos = comma + 1;
  }
  return ports;
}

}  // namespace music::text
