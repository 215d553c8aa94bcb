#ifndef XKSEARCH_COMMON_STRING_HASH_H_
#define XKSEARCH_COMMON_STRING_HASH_H_

#include <cstddef>
#include <functional>
#include <string_view>

namespace xksearch {

/// Hashes strings as string views. An unordered container keyed by
/// std::string with this hash and std::equal_to<> answers a string_view
/// lookup without building a std::string.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace xksearch

#endif  // XKSEARCH_COMMON_STRING_HASH_H_
