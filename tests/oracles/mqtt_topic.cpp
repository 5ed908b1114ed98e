#include "oracles/mqtt_topic.hpp"

namespace gridmon::mqtt {

namespace {

/// Pop the leading level (up to the next '/') off `rest`.
std::string_view next_level(std::string_view& rest, bool& more) {
  const auto slash = rest.find('/');
  if (slash == std::string_view::npos) {
    const std::string_view level = rest;
    rest = {};
    more = false;
    return level;
  }
  const std::string_view level = rest.substr(0, slash);
  rest = rest.substr(slash + 1);
  more = true;
  return level;
}

}  // namespace

bool valid_filter(std::string_view filter) {
  if (filter.empty()) return false;
  std::string_view rest = filter;
  bool more = true;
  while (more) {
    const std::string_view level = next_level(rest, more);
    if (level == "#") {
      if (more) return false;  // '#' must be the final level
      continue;
    }
    if (level == "+") continue;
    if (level.find('#') != std::string_view::npos) return false;
    if (level.find('+') != std::string_view::npos) return false;
  }
  return true;
}

bool topic_matches(std::string_view filter, std::string_view topic) {
  if (filter.empty() || topic.empty()) return false;
  // Wildcard-first filters never match broker-internal ($...) topics.
  if ((filter.front() == '+' || filter.front() == '#') &&
      topic.front() == '$') {
    return false;
  }
  std::string_view f = filter;
  std::string_view t = topic;
  bool f_more = true;
  bool t_more = true;
  while (true) {
    const std::string_view f_level = next_level(f, f_more);
    if (f_level == "#") return true;  // matches the rest, including nothing
    const std::string_view t_level = next_level(t, t_more);
    if (f_level != "+" && f_level != t_level) return false;
    if (!f_more && !t_more) return true;
    if (!t_more) {
      // Topic exhausted: only a sole trailing '#' can still match
      // ("sport/#" matches "sport").
      return f_more && f == "#";
    }
    if (!f_more) return false;  // filter exhausted, topic has more levels
  }
}

}  // namespace gridmon::mqtt
