#include "common/status.h"

namespace xksearch {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kParseError:
      return "Parse error";
    case StatusCode::kIoError:
      return "IO error";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kNotSupported:
      return "Not supported";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDeadlineExceeded:
      return "Deadline exceeded";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code()));
  out += ": ";
  out += message();
  return out;
}

}  // namespace xksearch
