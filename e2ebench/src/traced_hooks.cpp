#include "traced_hooks.hpp"

#include "driver.hpp"
#include "nserver/request_context.hpp"

namespace e2e {
namespace {

uint64_t bench_id(const cops::http::HttpRequest& req) {
  const auto value = req.header("x-bench-id");
  if (!value) return 0;
  uint64_t id = 0;
  for (char c : *value) {
    if (c < '0' || c > '9') return 0;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  return id;
}

const cops::http::HttpRequest* as_request(const std::any& request) {
  if (auto* pooled = std::any_cast<cops::http::HttpRequest*>(&request)) {
    return *pooled;
  }
  return std::any_cast<cops::http::HttpRequest>(&request);
}

}  // namespace

TracedHooks::TracedHooks(std::shared_ptr<cops::http::HttpAppHooks> inner,
                         size_t span_capacity)
    : inner_(std::move(inner)), spans_(span_capacity) {}

void TracedHooks::record(uint64_t id, HookKind kind, int64_t start_ns,
                         int64_t end_ns) {
  if (!recording_.load(std::memory_order_relaxed)) return;
  const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= spans_.size()) return;
  spans_[i] = {id, kind, start_ns, end_ns};
  published_.fetch_add(1, std::memory_order_release);
}

std::vector<HookSpan> TracedHooks::spans() const {
  const size_t n = std::min(next_.load(), spans_.size());
  // Wait for writers that claimed a slot to finish filling it.
  while (published_.load(std::memory_order_acquire) < n) {
  }
  return {spans_.begin(), spans_.begin() + static_cast<long>(n)};
}

void TracedHooks::on_connect(cops::nserver::RequestContext& ctx) {
  inner_->on_connect(ctx);
}

void TracedHooks::on_close(uint64_t connection_id) {
  inner_->on_close(connection_id);
}

cops::nserver::DecodeResult TracedHooks::decode(
    cops::nserver::RequestContext& ctx, cops::ByteBuffer& in) {
  const int64_t start = now_ns();
  auto result = inner_->decode(ctx, in);
  const int64_t end = now_ns();
  decode_calls_.fetch_add(1, std::memory_order_relaxed);
  if (result.status == cops::nserver::DecodeStatus::kRequest) {
    decoded_requests_.fetch_add(1, std::memory_order_relaxed);
    const auto* req = as_request(result.request);
    const uint64_t id = req != nullptr ? bench_id(*req) : 0;
    slot(ctx.connection_id()).store(id, std::memory_order_relaxed);
    record(id, HookKind::kDecode, start, end);
  }
  return result;
}

void TracedHooks::handle(cops::nserver::RequestContext& ctx,
                         std::any request) {
  const uint64_t id = slot(ctx.connection_id()).load(std::memory_order_relaxed);
  const int64_t start = now_ns();
  inner_->handle(ctx, std::move(request));
  record(id, HookKind::kHandle, start, now_ns());
}

std::string TracedHooks::encode(cops::nserver::RequestContext& ctx,
                                std::any response) {
  return inner_->encode(ctx, std::move(response));
}

cops::EncodedReply TracedHooks::encode_reply(
    cops::nserver::RequestContext& ctx, std::any response) {
  const uint64_t id = slot(ctx.connection_id()).load(std::memory_order_relaxed);
  const int64_t start = now_ns();
  auto reply = inner_->encode_reply(ctx, std::move(response));
  record(id, HookKind::kEncodeReply, start, now_ns());
  return reply;
}

}  // namespace e2e
