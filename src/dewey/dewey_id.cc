#include "dewey/dewey_id.h"

#include <algorithm>
#include <cassert>

namespace xksearch {

Result<DeweyId> DeweyId::Parse(const std::string& text) {
  if (text.empty()) return DeweyId();
  std::vector<uint32_t> comps;
  uint64_t cur = 0;
  bool have_digit = false;
  for (char ch : text) {
    if (ch >= '0' && ch <= '9') {
      cur = cur * 10 + static_cast<uint64_t>(ch - '0');
      if (cur > 0xffffffffull) {
        return Status::InvalidArgument("Dewey component overflows uint32: " +
                                       text);
      }
      have_digit = true;
    } else if (ch == '.') {
      if (!have_digit) {
        return Status::InvalidArgument("empty Dewey component in: " + text);
      }
      comps.push_back(static_cast<uint32_t>(cur));
      cur = 0;
      have_digit = false;
    } else {
      return Status::InvalidArgument(std::string("bad character '") + ch +
                                     "' in Dewey number: " + text);
    }
  }
  if (!have_digit) {
    return Status::InvalidArgument("trailing '.' in Dewey number: " + text);
  }
  comps.push_back(static_cast<uint32_t>(cur));
  return DeweyId(std::move(comps));
}

int DeweyId::Compare(const DeweyId& other, uint64_t* cmp_count) const {
  const size_t n = std::min(components_.size(), other.components_.size());
  for (size_t i = 0; i < n; ++i) {
    if (cmp_count != nullptr) ++*cmp_count;
    if (components_[i] != other.components_[i]) {
      return components_[i] < other.components_[i] ? -1 : 1;
    }
  }
  if (cmp_count != nullptr) ++*cmp_count;
  if (components_.size() == other.components_.size()) return 0;
  return components_.size() < other.components_.size() ? -1 : 1;
}

bool DeweyId::IsAncestorOf(const DeweyId& other) const {
  return components_.size() < other.components_.size() &&
         std::equal(components_.begin(), components_.end(),
                    other.components_.begin());
}

bool DeweyId::IsAncestorOrSelf(const DeweyId& other) const {
  return components_.size() <= other.components_.size() &&
         std::equal(components_.begin(), components_.end(),
                    other.components_.begin());
}

size_t DeweyId::CommonPrefixLength(const DeweyId& other) const {
  const size_t n = std::min(components_.size(), other.components_.size());
  size_t i = 0;
  while (i < n && components_[i] == other.components_[i]) ++i;
  return i;
}

DeweyId DeweyId::Lca(const DeweyId& other) const {
  // One allocation total: the prefix is taken as a view and materialized
  // directly, never as an intermediate full-depth copy.
  return FromView(view().Prefix(view().CommonPrefixLength(other.view())));
}

DeweyId DeweyId::Parent() const {
  if (components_.empty()) return DeweyId();
  return Prefix(components_.size() - 1);
}

DeweyId DeweyId::Child(uint32_t ordinal) const {
  std::vector<uint32_t> comps = components_;
  comps.push_back(ordinal);
  return DeweyId(std::move(comps));
}

DeweyId DeweyId::NextSibling() const {
  assert(!components_.empty());
  std::vector<uint32_t> comps = components_;
  ++comps.back();
  return DeweyId(std::move(comps));
}

DeweyId DeweyId::Prefix(size_t n) const {
  assert(n <= components_.size());
  return FromView(view().Prefix(n));
}

std::string DeweyId::ToString() const {
  std::string out;
  for (size_t i = 0; i < components_.size(); ++i) {
    if (i > 0) out += '.';
    out += std::to_string(components_[i]);
  }
  return out;
}

}  // namespace xksearch
