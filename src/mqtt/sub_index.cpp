#include "mqtt/sub_index.hpp"

#include <algorithm>

#include "obs/memprof.hpp"

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

void SubscriptionIndex::subscribe(std::string_view filter,
                                  const std::string& client, void* handle,
                                  int qos) {
  if (filter.empty()) return;  // matches nothing; store nothing
  for (Entry& entry : entries_) {
    if (entry.handle == handle && entry.filter == filter) {
      entry.qos = qos;  // replace-on-resubscribe
      return;
    }
  }
  const auto at = std::upper_bound(
      entries_.begin(), entries_.end(), client,
      [](const std::string& c, const Entry& e) { return c < *e.client; });
  entries_.insert(at, Entry{std::string(filter), &client, handle, qos});
  obs::mem_add(obs::MemCategory::kMqttSubIndex, kSubscriptionBytes);
}

void SubscriptionIndex::remove(std::string_view filter, void* handle) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.handle == handle && e.filter == filter;
      });
  if (it == entries_.end()) return;
  entries_.erase(it);
  obs::mem_sub(obs::MemCategory::kMqttSubIndex, kSubscriptionBytes);
}

void SubscriptionIndex::clear() {
  if (entries_.empty()) return;
  obs::mem_sub(obs::MemCategory::kMqttSubIndex, footprint_bytes());
  entries_.clear();
}

void SubscriptionIndex::match(std::string_view topic,
                              std::vector<Match>& out) const {
  out.clear();
  for (const Entry& entry : entries_) {
    if (!topic_matches(entry.filter, topic)) continue;
    if (!out.empty() && out.back().handle == entry.handle) {
      out.back().qos = std::max(out.back().qos, entry.qos);  // best grant
    } else {
      out.push_back(Match{entry.client, entry.handle, entry.qos});
    }
  }
}

}  // namespace gridmon::mqtt
