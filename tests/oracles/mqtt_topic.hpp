// MQTT topic names and topic filters, kept as the test oracle for
// mqtt::SubscriptionIndex: mqtt_sub_index_test checks the trie against
// this per-filter match, and bench_data_plane times the linear scan the
// trie replaced.
//
// Topics are '/'-separated level strings ("powergrid/feeder7/voltage");
// filters may use the two MQTT wildcards: '+' matches exactly one level,
// '#' matches any number of trailing levels (including zero) and must be
// the final level of the filter. Filters whose first level is a wildcard
// do not match topics beginning with '$' (broker-internal topics), per the
// MQTT 3.1.1 specification.
#pragma once

#include <string_view>

namespace gridmon::mqtt {

/// True if `filter` is a well-formed topic filter: non-empty, '#' only as
/// the whole final level, '+' only as a whole level.
[[nodiscard]] bool valid_filter(std::string_view filter);

/// True if a message published to `topic` matches `filter`. `topic` is a
/// concrete topic name (no wildcards).
[[nodiscard]] bool topic_matches(std::string_view filter,
                                 std::string_view topic);

}  // namespace gridmon::mqtt
