#include "sfcvis/perfmon/perf_events.hpp"

#include <utility>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#endif

namespace sfcvis::perfmon {

const char* to_string(Event e) noexcept {
  switch (e) {
    case Event::kCacheReferences:
      return "cache-references";
    case Event::kCacheMisses:
      return "cache-misses";
    case Event::kInstructions:
      return "instructions";
    case Event::kCycles:
      return "cycles";
  }
  return "?";
}

#if defined(__linux__)

namespace {

std::uint64_t perf_config_for(Event e) noexcept {
  switch (e) {
    case Event::kCacheReferences:
      return PERF_COUNT_HW_CACHE_REFERENCES;
    case Event::kCacheMisses:
      return PERF_COUNT_HW_CACHE_MISSES;
    case Event::kInstructions:
      return PERF_COUNT_HW_INSTRUCTIONS;
    case Event::kCycles:
      return PERF_COUNT_HW_CPU_CYCLES;
  }
  return PERF_COUNT_HW_CACHE_REFERENCES;
}

/// Reads /proc/sys/kernel/perf_event_paranoid; -100 when unreadable.
int read_paranoid_level() noexcept {
  std::FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "re");
  if (f == nullptr) {
    return -100;
  }
  int level = -100;
  if (std::fscanf(f, "%d", &level) != 1) {
    level = -100;
  }
  std::fclose(f);
  return level;
}

int open_event(Event event, bool group_format, int group_fd, OpenFailure* failure) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = perf_config_for(event);
  attr.disabled = group_format ? (group_fd < 0 ? 1 : 0) : 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  if (group_format) {
    // Group reads return every member in one syscall. The kernel rejects
    // PERF_FORMAT_GROUP on inherited events, so groups are per-thread.
    attr.read_format = PERF_FORMAT_GROUP;
  } else {
    attr.inherit = 1;  // cover pool worker threads spawned after open
  }
  const int fd = static_cast<int>(::syscall(SYS_perf_event_open, &attr, 0 /*this thread*/,
                                            -1 /*any cpu*/, group_fd, 0UL));
  if (fd < 0 && failure != nullptr) {
    failure->error = errno;
    failure->message =
        std::string(to_string(event)) + ": " + describe_open_error(failure->error);
  }
  return fd;
}

}  // namespace

std::string describe_open_error(int error) {
  std::string msg = "perf_event_open failed: ";
  msg += std::strerror(error);
  msg += " (errno " + std::to_string(error) + ")";
  switch (error) {
    case EACCES:
    case EPERM: {
      const int paranoid = read_paranoid_level();
      msg += "; kernel.perf_event_paranoid is ";
      msg += paranoid == -100 ? std::string("unreadable") : std::to_string(paranoid);
      msg +=
          " — unprivileged hardware counters need level <= 2 (try `sysctl "
          "kernel.perf_event_paranoid=1`), and containers additionally need the "
          "perf_event_open syscall allowed by seccomp";
      break;
    }
    case ENOENT:
      msg += "; the PMU does not support this generic hardware event (common in VMs "
             "without vPMU)";
      break;
    case ENOSYS:
      msg += "; this kernel was built without perf-events support";
      break;
    case ENODEV:
      msg += "; no PMU hardware is available to this (virtual) machine";
      break;
    default:
      break;
  }
  return msg;
}

std::optional<PerfCounter> PerfCounter::open(Event event, OpenFailure* failure) {
  const int fd = open_event(event, /*group_format=*/false, /*group_fd=*/-1, failure);
  if (fd < 0) {
    return std::nullopt;
  }
  return PerfCounter(fd, event);
}

PerfCounter::~PerfCounter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void PerfCounter::start() {
  ::ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
  ::ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
}

std::uint64_t PerfCounter::stop() {
  ::ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
  std::uint64_t count = 0;
  if (::read(fd_, &count, sizeof(count)) != static_cast<ssize_t>(sizeof(count))) {
    return 0;
  }
  return count;
}

std::optional<PerfGroup> PerfGroup::open(OpenFailure* failure) {
  static constexpr Event kOrder[kEvents] = {Event::kCacheReferences, Event::kCacheMisses,
                                            Event::kInstructions, Event::kCycles};
  PerfGroup group;
  for (int i = 0; i < kEvents; ++i) {
    group.fds_[i] = open_event(kOrder[i], /*group_format=*/true,
                               i == 0 ? -1 : group.fds_[0], failure);
    if (group.fds_[i] < 0) {
      group.close_all();
      return std::nullopt;
    }
  }
  ::ioctl(group.fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(group.fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  return group;
}

void PerfGroup::close_all() noexcept {
  for (int& fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

PerfGroup::~PerfGroup() { close_all(); }

PerfGroup::PerfGroup(PerfGroup&& other) noexcept {
  for (int i = 0; i < kEvents; ++i) {
    fds_[i] = std::exchange(other.fds_[i], -1);
  }
}

PerfGroup& PerfGroup::operator=(PerfGroup&& other) noexcept {
  if (this != &other) {
    for (int i = 0; i < kEvents; ++i) {
      std::swap(fds_[i], other.fds_[i]);
    }
  }
  return *this;
}

bool PerfGroup::read_now(GroupReading& out) const noexcept {
  // PERF_FORMAT_GROUP layout: { u64 nr; u64 values[nr]; }.
  std::uint64_t buf[1 + kEvents] = {};
  const ssize_t got = ::read(fds_[0], buf, sizeof(buf));
  if (got < static_cast<ssize_t>(sizeof(buf)) || buf[0] != kEvents) {
    out = GroupReading{};
    return false;
  }
  out.cache_references = buf[1];
  out.cache_misses = buf[2];
  out.instructions = buf[3];
  out.cycles = buf[4];
  return true;
}

#else  // non-Linux: never available

std::string describe_open_error(int) {
  return "perf_event_open is Linux-only; hardware counters are unavailable on this "
         "platform";
}

std::optional<PerfCounter> PerfCounter::open(Event, OpenFailure* failure) {
  if (failure != nullptr) {
    failure->error = 1;
    failure->message = describe_open_error(1);
  }
  return std::nullopt;
}
PerfCounter::~PerfCounter() = default;
void PerfCounter::start() {}
std::uint64_t PerfCounter::stop() { return 0; }

std::optional<PerfGroup> PerfGroup::open(OpenFailure* failure) {
  if (failure != nullptr) {
    failure->error = 1;
    failure->message = describe_open_error(1);
  }
  return std::nullopt;
}

void PerfGroup::close_all() noexcept {}
PerfGroup::~PerfGroup() = default;
PerfGroup::PerfGroup(PerfGroup&&) noexcept {}
PerfGroup& PerfGroup::operator=(PerfGroup&&) noexcept { return *this; }
bool PerfGroup::read_now(GroupReading& out) const noexcept {
  out = GroupReading{};
  return false;
}

#endif

PerfCounter::PerfCounter(PerfCounter&& other) noexcept
    : fd_(other.fd_), event_(other.event_) {
  other.fd_ = -1;
}

PerfCounter& PerfCounter::operator=(PerfCounter&& other) noexcept {
  // Swap: other's destructor closes the descriptor we held before.
  std::swap(fd_, other.fd_);
  std::swap(event_, other.event_);
  return *this;
}

bool PerfCounter::available() {
  return PerfCounter::open(Event::kCacheReferences).has_value();
}

std::string PerfCounter::unavailable_reason() {
  OpenFailure failure;
  if (PerfCounter::open(Event::kCacheReferences, &failure).has_value()) {
    return {};
  }
  return failure.message;
}

}  // namespace sfcvis::perfmon
