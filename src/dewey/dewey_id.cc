#include "dewey/dewey_id.h"

#include <cassert>

namespace xksearch {

Result<DeweyId> DeweyId::Parse(const std::string& text) {
  DeweyId id;
  if (text.empty()) return id;
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
      id.Append(static_cast<uint32_t>(cur));
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
  id.Append(static_cast<uint32_t>(cur));
  return id;
}

void DeweyId::Regrow(size_t capacity, DeweyView keep) {
  assert(capacity > kInlineCapacity && capacity <= UINT32_MAX &&
         keep.depth() <= capacity);
  uint32_t* block = new uint32_t[capacity];
  std::copy_n(keep.data(), keep.depth(), block);
  Release();
  heap_ = block;
  capacity_ = static_cast<uint32_t>(capacity);
}

DeweyId DeweyId::Child(uint32_t ordinal) const {
  DeweyId child;
  if (size_ + 1 > child.capacity_) child.Regrow(size_ + 1, DeweyView());
  child.AssignFrom(view());
  child.Append(ordinal);
  return child;
}

DeweyId DeweyId::NextSibling() const {
  assert(!empty());
  DeweyId next(*this);
  next.set_component(size_ - 1, back() + 1);
  return next;
}

std::string DeweyId::ToString() const {
  std::string out;
  for (size_t i = 0; i < size_; ++i) {
    if (i > 0) out += '.';
    out += std::to_string(component(i));
  }
  return out;
}

}  // namespace xksearch
