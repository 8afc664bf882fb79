// Reply verifier: every reply the load generator receives must be a 200
// whose Content-Length equals the on-disk file size and whose body matches
// the checksum computed from that file at set-up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace e2e {

struct Expected {
  uint64_t size = 0;
  uint64_t sum = 0;  // checksum() of the file's bytes
};

enum class Verdict { kIncomplete, kOk, kBad };

struct Check {
  Verdict verdict = Verdict::kIncomplete;
  const char* why = "";
  // Header block length (status line through the blank line) once it has
  // arrived, else 0.
  size_t header_len = 0;
  uint64_t content_length = 0;
};

// Header blocks past this size are rejected outright.
inline constexpr size_t kMaxHeaderBytes = 8 * 1024;

// Parses and checks the reply held in `buf`, which must start at the
// reply's first byte and hold nothing but this reply (one request is
// outstanding per connection, so any byte past the body is an error).
// kIncomplete means more bytes are needed; at end of stream it is a failure.
[[nodiscard]] Check verify_reply(std::string_view buf, const Expected& want);

// Cheap re-check while a body is still arriving: with the header block
// already parsed into `prior`, says whether `buf` now holds the whole
// reply, without rescanning it.
[[nodiscard]] inline bool body_complete(const Check& prior, size_t buffered) {
  return prior.header_len > 0 &&
         buffered >= prior.header_len + prior.content_length;
}

}  // namespace e2e
