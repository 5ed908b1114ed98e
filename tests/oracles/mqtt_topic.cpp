#include "oracles/mqtt_topic.hpp"

namespace gridmon::mqtt {

bool valid_filter(std::string_view filter) {
  if (filter.empty()) return false;
  std::string_view rest = filter;
  for (;;) {
    const auto slash = rest.find('/');
    const std::string_view level = rest.substr(0, slash);
    if (level == "#") return slash == std::string_view::npos;  // final only
    if (level != "+" && level.find_first_of("#+") != std::string_view::npos) {
      return false;
    }
    if (slash == std::string_view::npos) return true;
    rest = rest.substr(slash + 1);
  }
}

}  // namespace gridmon::mqtt
