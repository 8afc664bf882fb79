// Event Sources — the Decorator-composed component the N-Server adds to the
// Reactor (paper, Section IV): "an Event Source component that complies with
// the Decorator pattern ... is responsible for registering and deregistering
// Event Handlers and polling ready events."
//
// The base SocketEventSource demultiplexes socket readiness via epoll.
// Decorators stack additional kinds of events on top:
//   * TimerEventSource    — deadline callbacks (idle reaping, backoff, ...)
//   * UserEventSource     — cross-thread posted callbacks (completion events
//                           from Event Processors re-entering the reactor)
// New event kinds are added by writing another decorator — the extension
// mechanism the paper calls out for unanticipated event sources.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "net/event_handler.hpp"
#include "net/poller.hpp"
#include "net/timer_queue.hpp"

namespace cops::net {

// A unit of work made ready by an event source.
using ReadyCallback = std::function<void()>;

class EventSource {
 public:
  virtual ~EventSource() = default;

  // ---- Event Handler registry (socket events) -------------------------
  virtual Status register_handler(int fd, EventHandler* handler,
                                  uint32_t interest) = 0;
  virtual Status update_interest(int fd, uint32_t interest) = 0;
  virtual Status deregister(int fd) = 0;

  // Upper bound this source wants on the poll sleep, given `proposed` ms.
  [[nodiscard]] virtual int preferred_timeout_ms(int proposed) const = 0;

  // Polls for ready events, appending one callback per ready event to
  // `out`.  `timeout_ms` bounds the wait (decorators pass it inward).
  virtual Status poll(std::vector<ReadyCallback>& out, int timeout_ms) = 0;
};

// Base source: socket readiness via epoll (or the io_uring completion loop
// when constructed with PollBackend::kUring).
class SocketEventSource : public EventSource {
 public:
  explicit SocketEventSource(PollBackend backend = PollBackend::kEpoll)
      : poller_(backend) {}

  Status register_handler(int fd, EventHandler* handler,
                          uint32_t interest) override;
  Status update_interest(int fd, uint32_t interest) override;
  Status deregister(int fd) override;
  [[nodiscard]] int preferred_timeout_ms(int proposed) const override {
    return proposed;
  }
  Status poll(std::vector<ReadyCallback>& out, int timeout_ms) override;

  // The demultiplexer itself (its backend; the simulator's key for it).
  Poller& poller() { return poller_; }
  // Registers `fd` as the handler-less wakeup descriptor; poll() then only
  // records its readiness, which take_wakeup() reports once and clears.
  Status add_wakeup_fd(int fd);
  [[nodiscard]] bool take_wakeup() {
    return std::exchange(wakeup_ready_, false);
  }

 private:
  // Registrations are generation-stamped: a ready callback dispatched later
  // in the same batch re-validates its registration, so a handler destroyed
  // (or an fd recycled) by an earlier callback is skipped, not dereferenced.
  struct Registration {
    EventHandler* handler = nullptr;
    uint64_t generation = 0;
  };

  Poller poller_;
  std::unordered_map<int, Registration> handlers_;
  std::vector<ReadyFd> scratch_;
  uint64_t next_generation_ = 1;
  int wakeup_fd_ = -1;
  bool wakeup_ready_ = false;
};

// Decorator base: forwards everything to the wrapped source.
class EventSourceDecorator : public EventSource {
 public:
  explicit EventSourceDecorator(std::unique_ptr<EventSource> inner)
      : inner_(std::move(inner)) {}

  Status register_handler(int fd, EventHandler* handler,
                          uint32_t interest) override {
    return inner_->register_handler(fd, handler, interest);
  }
  Status update_interest(int fd, uint32_t interest) override {
    return inner_->update_interest(fd, interest);
  }
  Status deregister(int fd) override { return inner_->deregister(fd); }
  [[nodiscard]] int preferred_timeout_ms(int proposed) const override {
    return inner_->preferred_timeout_ms(proposed);
  }
  Status poll(std::vector<ReadyCallback>& out, int timeout_ms) override {
    return inner_->poll(out, timeout_ms);
  }

 protected:
  EventSource& inner() { return *inner_; }
  [[nodiscard]] const EventSource& inner() const { return *inner_; }

 private:
  std::unique_ptr<EventSource> inner_;
};

// Adds deadline timers.  Single-threaded: only the reactor thread may
// schedule/cancel (cross-thread scheduling goes through UserEventSource).
class TimerEventSource : public EventSourceDecorator {
 public:
  using EventSourceDecorator::EventSourceDecorator;

  TimerQueue::TimerId schedule_after(Duration delay, std::function<void()> fn) {
    return timers_.schedule_after(delay, std::move(fn));
  }
  TimerQueue::TimerId schedule_at(TimePoint deadline, std::function<void()> fn) {
    return timers_.schedule_at(deadline, std::move(fn));
  }
  void cancel(TimerQueue::TimerId id) { timers_.cancel(id); }
  [[nodiscard]] size_t pending_timers() const { return timers_.pending(); }

  [[nodiscard]] int preferred_timeout_ms(int proposed) const override;
  Status poll(std::vector<ReadyCallback>& out, int timeout_ms) override;

 private:
  TimerQueue timers_;
};

// Adds a thread-safe queue of posted callbacks, with an eventfd wakeup so a
// post from an Event Processor thread interrupts the blocked poll.  Wakeups
// coalesce: the eventfd is written only by the first post after a poll, so
// a burst of completions costs the reactor one wakeup, not one per post.
class UserEventSource : public EventSourceDecorator {
 public:
  // `base` must be the underlying SocketEventSource (for wakeup-fd
  // registration); `inner` is the decorated chain to wrap.
  UserEventSource(std::unique_ptr<EventSource> inner, SocketEventSource& base);

  // Thread-safe: queues `fn` for execution on the reactor thread.  `wake` =
  // false when the caller *is* the polling thread: its next poll sees the
  // non-empty queue through preferred_timeout_ms() and does not block, so
  // no eventfd write is needed (the SPED self-post).
  void post(std::function<void()> fn, bool wake = true);

  [[nodiscard]] int preferred_timeout_ms(int proposed) const override;
  Status poll(std::vector<ReadyCallback>& out, int timeout_ms) override;

  [[nodiscard]] size_t pending_posts() const { return queue_.size(); }

 private:
  MpmcQueue<std::function<void()>> queue_;
  Fd wakeup_fd_;
  SocketEventSource& base_;
  // True from the first post that writes the eventfd until the next poll
  // drains the queue; later posts in between skip the write.
  std::atomic<bool> wakeup_pending_{false};
};

}  // namespace cops::net
