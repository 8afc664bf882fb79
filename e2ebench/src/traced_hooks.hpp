// Forwarding AppHooks decorator for the traced run: times each call into
// COPS-HTTP's Decode / Handle / Encode Reply hooks and files the span under
// the request id the client sent in "X-Bench-Id" (which the proxy passes
// through, so backend spans link to the client's span across tiers).
//
// Spans go to a fixed-capacity in-memory array and are read out once the
// run is quiescent; nothing is written while the server is under load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "http/http_server.hpp"
#include "nserver/hooks.hpp"

namespace e2e {

enum class HookKind : uint8_t { kDecode, kHandle, kEncodeReply };

struct HookSpan {
  uint64_t id = 0;  // X-Bench-Id of the request (0 = untagged)
  HookKind kind = HookKind::kDecode;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class TracedHooks : public cops::nserver::AppHooks {
 public:
  TracedHooks(std::shared_ptr<cops::http::HttpAppHooks> inner,
              size_t span_capacity);

  void on_connect(cops::nserver::RequestContext& ctx) override;
  void on_close(uint64_t connection_id) override;
  cops::nserver::DecodeResult decode(cops::nserver::RequestContext& ctx,
                                     cops::ByteBuffer& in) override;
  void handle(cops::nserver::RequestContext& ctx, std::any request) override;
  std::string encode(cops::nserver::RequestContext& ctx,
                     std::any response) override;
  cops::EncodedReply encode_reply(cops::nserver::RequestContext& ctx,
                                  std::any response) override;

  // Spans are kept only while recording is on.
  void set_recording(bool on) { recording_.store(on); }
  // The spans recorded so far (call once no request is in flight).
  [[nodiscard]] std::vector<HookSpan> spans() const;
  [[nodiscard]] bool spans_overflowed() const {
    return next_.load() > spans_.size();
  }

  // Every Decode call, and the ones that produced a request (the rest
  // returned kNeedMore or an error).
  [[nodiscard]] uint64_t decode_calls() const { return decode_calls_.load(); }
  [[nodiscard]] uint64_t decoded_requests() const {
    return decoded_requests_.load();
  }

 private:
  void record(uint64_t id, HookKind kind, int64_t start_ns, int64_t end_ns);
  std::atomic<uint64_t>& slot(uint64_t connection_id) {
    return current_id_[connection_id % current_id_.size()];
  }

  std::shared_ptr<cops::http::HttpAppHooks> inner_;
  std::vector<HookSpan> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> published_{0};
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> decode_calls_{0};
  std::atomic<uint64_t> decoded_requests_{0};
  // Request id in flight on each connection.  The pipeline runs at most one
  // request per connection at a time, and connection ids are sequential, so
  // a connection id modulo this size never collides between the few
  // connections open at once.
  std::array<std::atomic<uint64_t>, 4096> current_id_{};
};

}  // namespace e2e
