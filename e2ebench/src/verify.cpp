#include "verify.hpp"

#include "samples.hpp"

namespace e2e {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char x = a[i];
    char y = b[i];
    if (x >= 'A' && x <= 'Z') x = static_cast<char>(x - 'A' + 'a');
    if (y >= 'A' && y <= 'Z') y = static_cast<char>(y - 'A' + 'a');
    if (x != y) return false;
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

Check bad(const char* why) { return {Verdict::kBad, why, 0, 0}; }

}  // namespace

Check verify_reply(std::string_view buf, const Expected& want) {
  const size_t end = buf.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    if (buf.size() > kMaxHeaderBytes) return bad("header block too long");
    return {};
  }
  const size_t header_len = end + 4;
  std::string_view head = buf.substr(0, end);
  size_t eol = head.find("\r\n");
  const std::string_view status_line = head.substr(0, eol);
  if (status_line.substr(0, 13) != "HTTP/1.1 200 ") return bad("status not 200");

  bool have_length = false;
  uint64_t length = 0;
  while (eol != std::string_view::npos) {
    head.remove_prefix(eol + 2);
    eol = head.find("\r\n");
    const std::string_view line = head.substr(0, eol);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return bad("malformed header line");
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = trim(line.substr(colon + 1));
    if (iequals(name, "transfer-encoding")) return bad("transfer-encoding");
    if (!iequals(name, "content-length")) continue;
    if (have_length) return bad("duplicate content-length");
    if (value.empty() || value.size() > 18) return bad("bad content-length");
    for (char c : value) {
      if (c < '0' || c > '9') return bad("bad content-length");
      length = length * 10 + static_cast<uint64_t>(c - '0');
    }
    have_length = true;
  }
  if (!have_length) return bad("no content-length");
  if (length != want.size) return bad("content-length != file size");

  Check check{Verdict::kIncomplete, "", header_len, length};
  const size_t total = header_len + length;
  if (buf.size() < total) return check;
  if (buf.size() > total) return bad("bytes past the body");
  if (checksum(buf.data() + header_len, length) != want.sum) {
    return bad("body checksum mismatch");
  }
  check.verdict = Verdict::kOk;
  return check;
}

}  // namespace e2e
