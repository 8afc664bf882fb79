#include "driver.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <stdexcept>

namespace e2e {
namespace {

// A slice that cannot drain its in-flight requests within this long after
// its deadline gives up on them and counts them as failures.
constexpr int64_t kDrainLimitNs = 5'000'000'000;

}  // namespace

int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Driver::Driver(DriverConfig config, const Catalog& catalog,
               std::vector<uint32_t> sequence, uint64_t seed)
    : config_(config),
      catalog_(catalog),
      sequence_(std::move(sequence)),
      arrival_rng_(seed) {
  if (sequence_.empty()) throw std::invalid_argument("empty request sequence");
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("epoll_create1 failed");
  for (const auto& path : catalog_.paths) {
    request_heads_.push_back("GET " + path + " HTTP/1.1\r\nHost: e2e\r\n");
  }
  conns_.resize(config_.connections);
  for (auto& c : conns_) {
    c.buf.resize(catalog_.max_size + kMaxHeaderBytes + 1);
  }
  for (size_t i = 0; i < conns_.size(); ++i) idle_.push_back(i);
}

Driver::~Driver() {
  disconnect();
  if (epfd_ >= 0) close(epfd_);
}

void Driver::disconnect() {
  for (auto& c : conns_) drop(c, /*reset=*/true);
}

SliceStats Driver::closed(double seconds) {
  return run(Mode::kClosed, seconds, 0.0, 0);
}

SliceStats Driver::open(double seconds, double rate_per_s) {
  return run(Mode::kOpen, seconds, rate_per_s, 0);
}

SliceStats Driver::count(uint64_t n) { return run(Mode::kCount, 60.0, 0.0, n); }

bool Driver::connect_conn(Conn& c, SliceStats& st) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (st.first_failure.empty()) st.first_failure = "socket() failed";
    return false;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // Blocking connect: on loopback the handshake completes inside the call.
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    if (st.first_failure.empty()) {
      st.first_failure = std::string("connect: ") + std::strerror(errno);
    }
    close(fd);
    return false;
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = static_cast<uint64_t>(&c - conns_.data());
  epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  c.fd = fd;
  c.served = 0;
  return true;
}

void Driver::drop(Conn& c, bool reset) {
  if (c.fd < 0) return;
  if (reset) {
    const linger lg{1, 0};
    setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
  close(c.fd);
  c.fd = -1;
  c.len = 0;
  c.head = {};
  if (c.busy) {
    c.busy = false;
    idle_.push_back(static_cast<size_t>(&c - conns_.data()));
  }
}

void Driver::fail(Conn& c, SliceStats& st, const char* why) {
  ++st.failed;
  if (st.first_failure.empty()) {
    st.first_failure = std::string(why) + " (" + catalog_.paths[c.file] + ")";
  }
  drop(c, /*reset=*/true);  // the byte stream is out of step: start over
}

bool Driver::send_request(size_t index, int64_t due_ns, SliceStats& st) {
  Conn& c = conns_[index];
  ++st.attempted;
  c.file = sequence_[seq_pos_];
  seq_pos_ = (seq_pos_ + 1) % sequence_.size();
  if (c.fd < 0 && !connect_conn(c, st)) {
    ++st.failed;
    idle_.push_back(index);
    return false;
  }
  char buf[1024];
  const std::string& head = request_heads_[c.file];
  size_t n = head.size();
  if (n + 64 > sizeof(buf)) throw std::runtime_error("request path too long");
  std::memcpy(buf, head.data(), n);
  c.id = next_id_++;
  if (config_.tag_requests) {
    n += static_cast<size_t>(std::snprintf(buf + n, sizeof(buf) - n,
                                           "X-Bench-Id: %llu\r\n",
                                           static_cast<unsigned long long>(c.id)));
  }
  buf[n++] = '\r';
  buf[n++] = '\n';
  c.busy = true;
  c.due_ns = due_ns;
  c.send_ns = now_ns();
  c.len = 0;
  c.head = {};
  ssize_t sent;
  do {
    sent = send(c.fd, buf, n, MSG_NOSIGNAL);
  } while (sent < 0 && errno == EINTR);
  if (sent != static_cast<ssize_t>(n)) {
    // A request this small always fits an idle socket's send buffer; a
    // short or failed send means the connection is gone.
    fail(c, st, "send failed");
    return false;
  }
  return true;
}

void Driver::on_readable(size_t index, Mode mode, int64_t deadline,
                         SliceStats& st) {
  Conn& c = conns_[index];
  if (c.fd < 0) return;
  for (;;) {
    const size_t room = c.buf.size() - c.len;
    if (room == 0) {
      fail(c, st, "reply larger than its file");
      return;
    }
    const ssize_t n = recv(c.fd, c.buf.data() + c.len, room, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (c.busy) {
        fail(c, st, "recv error");
      } else {
        drop(c, /*reset=*/true);
      }
      return;
    }
    if (n == 0) {
      // Peer closed: a failure only if a reply was owed.
      if (c.busy) {
        fail(c, st, "connection closed before the reply completed");
      } else {
        drop(c, /*reset=*/false);
      }
      return;
    }
    if (!c.busy) {
      fail(c, st, "unsolicited bytes");
      return;
    }
    c.len += static_cast<size_t>(n);
    if (c.head.header_len > 0 && !body_complete(c.head, c.len)) continue;
    const Check check =
        verify_reply(std::string_view(c.buf.data(), c.len),
                     catalog_.expect[c.file]);
    if (check.verdict == Verdict::kBad) {
      fail(c, st, check.why);
      return;
    }
    c.head = check;
    if (check.verdict == Verdict::kIncomplete) continue;

    const int64_t done = now_ns();
    ++st.completed;
    if (done <= deadline) {
      ++st.completed_in_window;
      st.body_bytes_in_window += check.content_length;
    }
    if (mode == Mode::kOpen) {
      st.latency_us.push_back(static_cast<double>(done - c.due_ns) / 1e3);
    }
    if (config_.tag_requests) st.spans.push_back({c.id, c.send_ns, done});
    c.busy = false;
    c.len = 0;
    c.head = {};
    c.free_ns = done;
    idle_.push_back(index);
    if (config_.requests_per_conn > 0 &&
        ++c.served >= config_.requests_per_conn) {
      drop(c, /*reset=*/true);
    }
    return;
  }
}

SliceStats Driver::run(Mode mode, double seconds, double rate,
                       uint64_t limit) {
  SliceStats st;
  const int64_t start = now_ns();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  st.window_s = seconds;
  std::exponential_distribution<double> gap(rate > 0 ? rate : 1.0);
  auto next_gap = [&] {
    return static_cast<int64_t>(gap(arrival_rng_) * 1e9);
  };
  int64_t next_arrival = start + (mode == Mode::kOpen ? next_gap() : 0);
  std::deque<int64_t> backlog;
  if (mode == Mode::kOpen) {
    st.latency_us.reserve(static_cast<size_t>(rate * seconds * 1.2) + 16);
    st.lateness_us.reserve(st.latency_us.capacity());
  }
  epoll_event events[16];
  // A failed send ends a closed-loop slice's sending: the server refused or
  // reset the connection, and resending at once would only spin.
  bool send_failed = false;
  for (;;) {
    int64_t now = now_ns();
    const bool sending =
        !send_failed &&
        (mode == Mode::kCount ? st.attempted < limit : now < deadline);
    if (mode == Mode::kOpen) {
      while (next_arrival <= now && next_arrival < deadline) {
        backlog.push_back(next_arrival);
        next_arrival += next_gap();
      }
      while (!backlog.empty() && !idle_.empty()) {
        const size_t i = idle_.back();
        idle_.pop_back();
        const int64_t due = backlog.front();
        backlog.pop_front();
        const int64_t ready = std::max(due, conns_[i].free_ns);
        if (send_request(i, due, st)) {
          st.lateness_us.push_back(
              static_cast<double>(conns_[i].send_ns - ready) / 1e3);
        }
        now = now_ns();
      }
    } else if (sending) {
      while (!idle_.empty() &&
             (mode != Mode::kCount || st.attempted < limit)) {
        const size_t i = idle_.back();
        idle_.pop_back();
        if (!send_request(i, now, st)) {
          send_failed = true;
          break;
        }
      }
    }
    const bool in_flight = idle_.size() < conns_.size();
    const bool more_arrivals = mode == Mode::kOpen && next_arrival < deadline;
    const bool more_closed = sending && mode != Mode::kOpen;
    if (!in_flight && backlog.empty() && !more_arrivals && !more_closed) break;
    if (now > deadline + kDrainLimitNs) {
      for (auto& c : conns_) {
        if (c.busy) fail(c, st, "no reply within the drain limit");
      }
      st.failed += backlog.size();
      st.attempted += backlog.size();
      break;
    }
    // Sleep until the next arrival is due, or a reply arrives.
    int64_t wait_ns = 10'000'000;
    if (mode == Mode::kOpen && more_arrivals) {
      wait_ns = std::clamp<int64_t>(next_arrival - now, 0, wait_ns);
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int n = epoll_pwait2(epfd_, events, 16, &ts, nullptr);
    for (int k = 0; k < n; ++k) {
      on_readable(static_cast<size_t>(events[k].data.u64), mode, deadline,
                  st);
    }
  }
  return st;
}

}  // namespace e2e
