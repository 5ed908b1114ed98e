// SQL LIKE, shared by the two SQL-92 subsets in the study: JMS message
// selectors (which may name an escape character) and R-GMA's WHERE
// predicates (which never do).
#pragma once

#include <string_view>

namespace gridmon::util {

/// True if `text` matches `pattern`, where '%' matches any run of
/// characters (including none) and '_' exactly one. `escape` ('\0' for
/// none) makes the pattern character after it a literal.
[[nodiscard]] bool like_match(std::string_view text, std::string_view pattern,
                              char escape);

}  // namespace gridmon::util
