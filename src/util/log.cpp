#include "util/log.hpp"

#include <cstdio>

namespace gridmon::util {

void write_warning(std::string_view component, std::string_view message) {
  // One fprintf per line: stdio locks stderr for the call, so lines from
  // campaign worker threads never interleave.
  std::fprintf(stderr, "[WARN] %.*s: %.*s\n",
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(message.size()), message.data());
}

}  // namespace gridmon::util
