// Subscription index: the broker's (filter, session) table.
//
// The broker matches every publish twice, once to count the fan-out for
// the service-demand model and once to deliver, and each match tests every
// entry with topic_matches(). match() returns the sessions for which at
// least one filter matches, one entry per session at its best (maximum)
// granted QoS, ordered by client id: the order of the broker's session
// map.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gridmon::mqtt {

/// True if a message published to `topic` matches `filter`. Topics are
/// '/'-separated levels ("powergrid/feeder7/voltage", where "a//b" has an
/// empty middle level); in a filter '+' matches exactly one level and '#'
/// any number of trailing levels, including none ("sport/#" matches
/// "sport"). Filters whose first level is a wildcard never match topics
/// beginning with '$' (broker-internal topics, per MQTT 3.1.1). The broker
/// does not validate filters: a mid-filter '#' ("a/#/b") matches any
/// non-empty remainder, and empty filters and topics match nothing.
[[nodiscard]] bool topic_matches(std::string_view filter,
                                 std::string_view topic);

/// Model-memory charge of one live (filter, session) entry, for the
/// mem_sub_index profile category: a pinned constant rather than the
/// host's sizeof, so resizing the index's storage moves no memory figure.
/// 216 B is what the broker charged for one 'powergrid/#' subscription
/// when the index was a topic trie (entry, trie node and interned level).
inline constexpr std::int64_t kSubscriptionBytes = 216;

class SubscriptionIndex {
 public:
  /// One matched session: its best-matching grant and the opaque handle
  /// registered at subscribe time (the broker's Session*).
  struct Match {
    const std::string* client = nullptr;
    void* handle = nullptr;
    int qos = 0;
  };

  SubscriptionIndex() = default;
  ~SubscriptionIndex() { clear(); }
  SubscriptionIndex(const SubscriptionIndex&) = delete;
  SubscriptionIndex& operator=(const SubscriptionIndex&) = delete;

  /// Register `filter` for the session identified by `handle`. A repeat
  /// subscribe for the same (filter, handle) updates the granted QoS in
  /// place (MQTT replace-on-resubscribe). `client` must outlive the entry
  /// (the broker's session map has stable nodes).
  void subscribe(std::string_view filter, const std::string& client,
                 void* handle, int qos);

  /// Remove one (filter, handle) registration; no-op if absent.
  void remove(std::string_view filter, void* handle);

  /// Drop everything (broker crash).
  void clear();

  /// All sessions with at least one filter matching `topic`, one entry per
  /// session at its maximum granted QoS, ordered by client id. Reuses
  /// `out`'s capacity.
  void match(std::string_view topic, std::vector<Match>& out) const;

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  /// kSubscriptionBytes per live entry, mirrored into the mem_sub_index
  /// profile category by the update methods.
  [[nodiscard]] std::int64_t footprint_bytes() const {
    return static_cast<std::int64_t>(entries_.size()) * kSubscriptionBytes;
  }

 private:
  struct Entry {
    std::string filter;
    const std::string* client;
    void* handle;
    int qos;
  };

  /// Ordered by client id, so a session's entries are adjacent.
  std::vector<Entry> entries_;
};

}  // namespace gridmon::mqtt
