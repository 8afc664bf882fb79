// Single-thread load generator over raw syscalls (socket/connect/send/recv/
// epoll_pwait2), for both loop kinds:
//
//   closed loop — each connection sends its next request once the previous
//                 reply is in;
//   open loop   — Poisson arrivals at a fixed rate, spread over the same
//                 connections; a request due while every connection is busy
//                 waits in a backlog, and its latency is timed from when it
//                 was due, so a stall is charged to every request behind it.
//
// It deliberately uses none of the repository's socket classes, so nothing
// the server-side code configures (such as ring-backed socket ops) can leak
// into the client.  Every reply is checked by verify_reply().
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "verify.hpp"

namespace e2e {

// The files a workload requests, by index.
struct Catalog {
  std::vector<std::string> paths;  // URL paths ("/dir0/class1_3.html")
  std::vector<Expected> expect;    // parallel to paths
  uint64_t max_size = 0;
};

struct DriverConfig {
  uint16_t port = 0;
  size_t connections = 4;
  // Replies per connection before the client closes it and reconnects
  // (0 = keep the connection for the whole run).  The client closes with
  // an RST (SO_LINGER 0), as httperf's --close-with-reset does, so
  // thousands of reconnects per second leave no TIME_WAIT sockets behind.
  int requests_per_conn = 0;
  // Adds an "X-Bench-Id: <n>" header to every request and records a client
  // span per reply (traced runs only).
  bool tag_requests = false;
};

struct ClientSpan {
  uint64_t id = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
};

struct SliceStats {
  uint64_t attempted = 0;
  uint64_t completed = 0;  // verified replies
  uint64_t failed = 0;     // failed or unverified replies, refused sends
  // Verified replies, and their body bytes, that completed before the
  // deadline (the ones still in flight then are drained and verified, but
  // not counted towards a rate).
  uint64_t completed_in_window = 0;
  uint64_t body_bytes_in_window = 0;
  double window_s = 0.0;
  std::vector<double> latency_us;   // open loop, from the due time
  std::vector<double> lateness_us;  // open loop: generator's own delay
  std::vector<ClientSpan> spans;    // tag_requests only
  std::string first_failure;
};

int64_t now_ns();

class Driver {
 public:
  // `sequence` is the file-index order requests follow (cycled).
  Driver(DriverConfig config, const Catalog& catalog,
         std::vector<uint32_t> sequence, uint64_t seed);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  SliceStats closed(double seconds);
  SliceStats open(double seconds, double rate_per_s);
  // Closed loop until exactly `n` replies are in (warm-up).
  SliceStats count(uint64_t n);

  // Drops every connection (RST), e.g. before the server stops.
  void disconnect();

 private:
  enum class Mode { kClosed, kOpen, kCount };
  struct Conn {
    int fd = -1;
    std::vector<char> buf;
    size_t len = 0;
    bool busy = false;
    uint32_t file = 0;
    int64_t due_ns = 0;
    int64_t send_ns = 0;
    int64_t free_ns = 0;  // when the connection last became free
    uint64_t id = 0;
    int served = 0;
    Check head;
  };

  SliceStats run(Mode mode, double seconds, double rate, uint64_t limit);
  bool connect_conn(Conn& c, SliceStats& st);
  void drop(Conn& c, bool reset);
  // Sends the next request of the sequence on idle connection `index`
  // (connecting first if needed).  On failure the request counts as failed
  // and the connection is back on the idle list.
  bool send_request(size_t index, int64_t due_ns, SliceStats& st);
  void on_readable(size_t index, Mode mode, int64_t deadline,
                   SliceStats& st);
  void fail(Conn& c, SliceStats& st, const char* why);

  DriverConfig config_;
  const Catalog& catalog_;
  std::vector<uint32_t> sequence_;
  size_t seq_pos_ = 0;
  std::vector<std::string> request_heads_;  // "GET <path> HTTP/1.1\r\n..."
  std::vector<Conn> conns_;
  std::vector<size_t> idle_;
  int epfd_ = -1;
  uint64_t next_id_ = 1;
  std::mt19937_64 arrival_rng_;
};

}  // namespace e2e
