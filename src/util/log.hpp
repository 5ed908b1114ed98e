// Minimal warning logger.
//
// The simulator is deterministic and single-threaded per Simulation, so the
// logger is intentionally simple: GRIDMON_WARN lines go to stderr, built
// with iostream formatting through a small RAII line builder.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace gridmon::util {

/// Write one "[WARN] component: message" line to stderr.
void write_warning(std::string_view component, std::string_view message);

/// Builds one warning line; emits on destruction.
class LogLine {
 public:
  explicit LogLine(std::string_view component) : component_(component) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { write_warning(component_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::string component_;
  std::ostringstream stream_;
};

}  // namespace gridmon::util

#define GRIDMON_WARN(component) ::gridmon::util::LogLine(component)
