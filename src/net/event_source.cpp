#include "net/event_source.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>

namespace cops::net {

namespace {

// UBSan's vptr check probes whether the vtable memory is readable by writing
// it down a throwaway pipe; with the descriptor table fully exhausted (the
// EMFILE accept storm exercised by fd_lifecycle_test) that pipe cannot be
// created and a perfectly valid vptr is reported as invalid, aborting the
// run.  The dispatch call is the first virtual call made while the process
// is at zero free descriptors, so it alone carries the exemption.
__attribute__((no_sanitize("vptr"))) void dispatch_unchecked(
    EventHandler* handler, int fd, uint32_t events) {
  handler->handle_event(fd, events);
}

}  // namespace

// ---- SocketEventSource ----------------------------------------------------

Status SocketEventSource::register_handler(int fd, EventHandler* handler,
                                           uint32_t interest) {
  auto status = poller_.add(fd, interest);
  if (!status.is_ok()) return status;
  handlers_[fd] = {handler, next_generation_++};
  return Status::ok();
}

Status SocketEventSource::update_interest(int fd, uint32_t interest) {
  return poller_.modify(fd, interest);
}

Status SocketEventSource::add_wakeup_fd(int fd) {
  wakeup_fd_ = fd;
  return poller_.add(fd, kReadable);
}

Status SocketEventSource::deregister(int fd) {
  handlers_.erase(fd);
  return poller_.remove(fd);
}

Status SocketEventSource::poll(std::vector<ReadyCallback>& out,
                               int timeout_ms) {
  scratch_.clear();
  auto n = poller_.wait(scratch_, timeout_ms);
  if (!n.is_ok()) return n.status();
  for (const auto& ready : scratch_) {
    if (ready.fd == wakeup_fd_) {
      wakeup_ready_ = true;
      continue;
    }
    auto it = handlers_.find(ready.fd);
    if (it == handlers_.end()) continue;  // deregistered concurrently
    const int fd = ready.fd;
    const uint64_t generation = it->second.generation;
    const uint32_t events = ready.events;
    // Re-validate at dispatch time: an earlier callback in this batch may
    // have deregistered the fd (or a recycled fd re-registered with a new
    // generation).
    out.push_back([this, fd, generation, events] {
      auto live = handlers_.find(fd);
      if (live == handlers_.end() || live->second.generation != generation) {
        return;
      }
      dispatch_unchecked(live->second.handler, fd, events);
    });
  }
  return Status::ok();
}

// ---- TimerEventSource -----------------------------------------------------

int TimerEventSource::preferred_timeout_ms(int proposed) const {
  return timers_.next_timeout_ms(inner().preferred_timeout_ms(proposed));
}

Status TimerEventSource::poll(std::vector<ReadyCallback>& out,
                              int timeout_ms) {
  auto status = inner().poll(out, timeout_ms);
  if (!status.is_ok()) return status;
  // Expired timers become ready events after the poll returns.
  timers_.run_due();
  return Status::ok();
}

// ---- UserEventSource ------------------------------------------------------

UserEventSource::UserEventSource(std::unique_ptr<EventSource> inner,
                                 SocketEventSource& base)
    : EventSourceDecorator(std::move(inner)),
      wakeup_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      base_(base) {
  // The wakeup fd has no handler: readiness only interrupts the poll; the
  // queued callbacks are drained in poll() below.
  base_.add_wakeup_fd(wakeup_fd_.get());
}

void UserEventSource::post(std::function<void()> fn, bool wake) {
  queue_.push(std::move(fn));
  if (wake && !wakeup_pending_.exchange(true)) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeup_fd_.get(), &one, sizeof(one));
  }
  // The eventfd is a real descriptor, so under simulation the write above
  // wakes nothing — tell the simulator directly which poller has work.
  if (auto* sim = sim_backend(); sim != nullptr) [[unlikely]] {
    sim->sim_notify(&base_.poller());
  }
}

int UserEventSource::preferred_timeout_ms(int proposed) const {
  if (queue_.size() > 0) return 0;
  return inner().preferred_timeout_ms(proposed);
}

Status UserEventSource::poll(std::vector<ReadyCallback>& out, int timeout_ms) {
  auto status = inner().poll(out, timeout_ms);
  if (!status.is_ok()) return status;
  // One read resets the eventfd counter, however many posts wrote it.  It
  // is read only when the poll reported it readable, so it never hits
  // EAGAIN; a write that lands after the read leaves the fd readable and is
  // consumed by the next poll, never spun on.
  if (base_.take_wakeup()) {
    uint64_t counter = 0;
    [[maybe_unused]] ssize_t n =
        ::read(wakeup_fd_.get(), &counter, sizeof(counter));
  }
  // Re-open the wakeup before draining: a post that misses this drain sees
  // the flag clear and writes the eventfd for the next poll.
  wakeup_pending_.exchange(false);
  while (auto fn = queue_.try_pop()) {
    out.push_back(std::move(*fn));
  }
  return Status::ok();
}

}  // namespace cops::net
