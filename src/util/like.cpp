#include "util/like.hpp"

namespace gridmon::util {

bool like_match(std::string_view text, std::string_view pattern,
                char escape) {
  const std::size_t tn = text.size();
  const std::size_t pn = pattern.size();
  // Iterative matcher with backtracking over the last '%'.
  std::size_t ti = 0;
  std::size_t pi = 0;
  std::size_t star_pi = std::string_view::npos;
  std::size_t star_ti = 0;
  while (ti < tn) {
    bool literal = false;
    char pc = '\0';
    if (pi < pn) {
      pc = pattern[pi];
      if (escape != '\0' && pc == escape && pi + 1 < pn) {
        literal = true;
        pc = pattern[pi + 1];
      }
    }
    if (pi < pn && !literal && pc == '%') {
      star_pi = pi++;
      star_ti = ti;
      continue;
    }
    if (pi < pn && ((literal && text[ti] == pc) ||
                    (!literal && (pc == '_' || text[ti] == pc)))) {
      pi += literal ? 2 : 1;
      ++ti;
      continue;
    }
    if (star_pi != std::string_view::npos) {
      pi = star_pi + 1;
      ti = ++star_ti;
      continue;
    }
    return false;
  }
  // Remaining pattern must be all bare '%' (an escape introduces a literal
  // that has nothing left to match).
  while (pi < pn) {
    if (escape != '\0' && pattern[pi] == escape) return false;
    if (pattern[pi] != '%') return false;
    ++pi;
  }
  return true;
}

}  // namespace gridmon::util
