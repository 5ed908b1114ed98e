// MQTT topic-filter validity. The broker accepts any filter (see
// mqtt::topic_matches), so no src/ code calls this; mqtt_topic_test checks
// it beside the matcher.
#pragma once

#include <string_view>

namespace gridmon::mqtt {

/// True if `filter` is a well-formed topic filter: non-empty, '#' only as
/// the whole final level, '+' only as a whole level.
[[nodiscard]] bool valid_filter(std::string_view filter);

}  // namespace gridmon::mqtt
