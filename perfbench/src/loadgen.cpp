#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    sys_fail("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Pins the calling thread to `cpus` for its lifetime (no-op for nullptr).
class AffinityScope {
 public:
  explicit AffinityScope(const cpu_set_t* cpus) {
    if (cpus == nullptr) return;
    active_ = ::sched_getaffinity(0, sizeof saved_, &saved_) == 0 &&
              ::sched_setaffinity(0, sizeof *cpus, cpus) == 0;
  }
  ~AffinityScope() {
    if (active_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  AffinityScope(const AffinityScope&) = delete;
  AffinityScope& operator=(const AffinityScope&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// ServerProcess

ServerProcess::ServerProcess(const std::string& path,
                             const std::vector<std::string>& args,
                             const cpu_set_t* cpus) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) sys_fail("pipe");
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(path.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) sys_fail("fork");
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec. The server dies with us.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (cpus != nullptr) ::sched_setaffinity(0, sizeof *cpus, cpus);
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(path.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  stdout_fd_ = out[0];
  try {
    await_port();
  } catch (...) {
    // The destructor never runs for a half-built object: reap here.
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    ::close(stdout_fd_);
    if (control_fd_ >= 0) ::close(control_fd_);
    throw;
  }
}

void ServerProcess::await_port() {
  // "PORT <n>" is the first stdout line once the listener is bound.
  std::string text;
  const auto deadline = mono_ns() + 20'000'000'000LL;
  while (text.find('\n') == std::string::npos) {
    pollfd p{stdout_fd_, POLLIN, 0};
    const auto left_ms = (deadline - mono_ns()) / 1'000'000;
    if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
      throw std::runtime_error("sre_serve printed no PORT line");
    }
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
    if (n <= 0) throw std::runtime_error("sre_serve exited before PORT");
    text.append(buf, static_cast<std::size_t>(n));
  }
  if (text.rfind("PORT ", 0) != 0) {
    throw std::runtime_error("unexpected sre_serve output: " + text);
  }
  port_ = std::stoi(text.substr(5));
  control_fd_ = connect_loopback(port_);
  timeval tv{10, 0};
  ::setsockopt(control_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

ServerProcess::~ServerProcess() {
  if (!exited_) {
    try {
      shutdown();
    } catch (const std::exception&) {
    }
  }
  if (!exited_ && pid_ > 0) {
    ::kill(pid_, SIGTERM);
    reap(5.0);
  }
  if (!exited_ && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    reap(60.0);
  }
  if (control_fd_ >= 0) ::close(control_fd_);
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

std::string ServerProcess::call(std::string_view line) {
  std::string msg(line);
  msg += '\n';
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = ::send(control_fd_, msg.data() + off, msg.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) sys_fail("control send");
    off += static_cast<std::size_t>(n);
  }
  for (;;) {
    const auto nl = control_buf_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = control_buf_.substr(0, nl);
      control_buf_.erase(0, nl + 1);
      return reply;
    }
    char buf[16384];
    const ssize_t n = ::recv(control_fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) sys_fail("control recv");
    control_buf_.append(buf, static_cast<std::size_t>(n));
  }
}

bool ServerProcess::shutdown() {
  if (exited_) return exit_status_ == 0;
  const std::string reply = call("{\"cmd\":\"shutdown\"}");
  reap(30.0);
  return exited_ && exit_status_ == 0 &&
         reply.find("\"shutdown\":true") != std::string::npos;
}

void ServerProcess::reap(double timeout_s) {
  const auto deadline =
      mono_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!exited_) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exited_ = true;
      exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      return;
    }
    if (r < 0 && errno != EINTR) {
      exited_ = true;
      return;
    }
    if (mono_ns() > deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// Generator

struct Generator::Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  bool want_out = false;
  struct Pending {
    std::uint64_t seq;
    std::uint32_t key;
    std::int64_t t_ref_ns;  ///< due time (open loop) or send time
  };
  std::deque<Pending> inflight;
};

struct Generator::Mode {
  enum class Kind { kList, kClosed, kOpen } kind = Kind::kList;
  const std::vector<std::uint32_t>* keys = nullptr;
  const std::function<std::uint32_t(std::uint64_t)>* pick = nullptr;
  std::size_t window = 1;
  double seconds = 0.0;
  double limit_ms = 0.0;
  double rate = 0.0;
  char tag = 'r';
};

Generator::Generator(int port, unsigned connections,
                     const std::vector<std::string>& tails, Checker check,
                     const cpu_set_t* cpus)
    : tails_(tails), check_(std::move(check)), pinned_(cpus != nullptr) {
  if (pinned_) cpus_ = *cpus;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) sys_fail("epoll_create1");
  for (unsigned c = 0; c < connections; ++c) {
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->fd = connect_loopback(port);
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      sys_fail("epoll_ctl");
    }
  }
}

Generator::~Generator() {
  for (const auto& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

PhaseStats Generator::run_list(const std::vector<std::uint32_t>& keys,
                               std::size_t window, char tag) {
  Mode m;
  m.kind = Mode::Kind::kList;
  m.keys = &keys;
  m.window = window;
  m.tag = tag;
  return run(m);
}

PhaseStats Generator::run_closed(
    const std::function<std::uint32_t(std::uint64_t)>& pick,
    std::size_t window, double seconds, double limit_ms, char tag) {
  Mode m;
  m.kind = Mode::Kind::kClosed;
  m.pick = &pick;
  m.window = window;
  m.seconds = seconds;
  m.limit_ms = limit_ms;
  m.tag = tag;
  return run(m);
}

PhaseStats Generator::run_open(
    const std::function<std::uint32_t(std::uint64_t)>& pick, double rate,
    double seconds, char tag) {
  Mode m;
  m.kind = Mode::Kind::kOpen;
  m.pick = &pick;
  m.rate = rate;
  m.seconds = seconds;
  m.tag = tag;
  return run(m);
}

PhaseStats Generator::run(Mode& mode) {
  using Kind = Mode::Kind;
  constexpr std::int64_t kDrainNs = 20'000'000'000LL;  // responses still due
  const AffinityScope pinned(pinned_ ? &cpus_ : nullptr);
  PhaseStats st;
  const std::int64_t t0 = mono_ns();
  const std::int64_t t_end =
      t0 + static_cast<std::int64_t>(mode.seconds * 1e9);
  const std::uint64_t total =
      mode.kind == Kind::kList   ? mode.keys->size()
      : mode.kind == Kind::kOpen ? static_cast<std::uint64_t>(
                                       std::floor(mode.rate * mode.seconds))
                                 : UINT64_MAX;
  const auto due_ns = [&](std::uint64_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                          mode.rate);
  };
  std::uint64_t issued = 0;
  std::uint64_t good_in_window = 0;
  std::int64_t last_recv = t0;
  std::size_t in_flight = 0;
  st.latency_ms.reserve(mode.kind == Kind::kOpen ? total : 1 << 20);
  const auto slice_ns = static_cast<std::int64_t>(kSliceSeconds * 1e9);
  std::size_t slices = 0;
  double steal_mark = 0.0;
  if (mode.kind != Kind::kList) {
    slices = static_cast<std::size_t>(std::ceil(mode.seconds / kSliceSeconds));
    st.steal_by_slice_ms.reserve(slices);
    steal_mark = host_steal_ms();
  }
  if (mode.kind == Kind::kOpen) {
    st.late_ms.reserve(total);
    st.latency_by_slice.resize(slices);
  }
  if (mode.kind == Kind::kClosed) st.good_by_slice.resize(slices, 0);
  // Closes every slice whose end has passed by `now`, charging it the steal
  // read since the previous close.
  const auto close_slices = [&](std::int64_t now) {
    const std::size_t ended = std::min<std::size_t>(
        slices, static_cast<std::size_t>(std::max<std::int64_t>(0, now - t0) / slice_ns));
    if (st.steal_by_slice_ms.size() >= ended) return;
    const double steal = host_steal_ms();
    // Slices the generator did not see close share the whole reading.
    st.steal_by_slice_ms.resize(ended, steal - steal_mark);
    steal_mark = steal;
  };

  const auto set_out_interest = [&](Conn& c, bool on) {
    if (c.want_out == on) return;
    c.want_out = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.ptr = &c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  };
  const auto flush = [&](Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      sys_fail("send");
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    set_out_interest(c, !c.out.empty());
  };
  const auto enqueue = [&](Conn& c, std::uint32_t key, std::int64_t t_ref) {
    const std::uint64_t seq = next_seq_++;
    c.out += "{\"id\":\"";
    c.out += mode.tag;
    c.out += std::to_string(seq);
    c.out += "\",";
    c.out += tails_[key];
    c.out += '\n';
    c.inflight.push_back({seq, key, t_ref});
    ++st.sent;
    ++in_flight;
    ++issued;
  };
  const auto next_key = [&](std::uint64_t i) {
    return mode.kind == Kind::kList ? (*mode.keys)[i] : (*mode.pick)(i);
  };
  const auto may_send = [&](std::int64_t now) {
    if (issued >= total) return false;
    return mode.kind == Kind::kList ||
           (mode.kind == Kind::kClosed && now < t_end);
  };

  const auto on_line = [&](Conn& c, std::string_view line, std::int64_t now) {
    if (c.inflight.empty()) throw std::runtime_error("unsolicited response");
    const Conn::Pending p = c.inflight.front();
    c.inflight.pop_front();
    --in_flight;
    ++st.received;
    last_recv = now;
    const std::string prefix =
        "{\"id\":\"" + std::string(1, mode.tag) + std::to_string(p.seq) + "\"";
    const bool id_ok = line.substr(0, prefix.size()) == prefix;
    const double lat = static_cast<double>(now - p.t_ref_ns) * 1e-6;
    st.latency_ms.push_back(lat);
    if (mode.kind == Kind::kOpen) {
      st.latency_by_slice[static_cast<std::size_t>((p.t_ref_ns - t0) / slice_ns)]
          .push_back(lat);
    }
    if (!id_ok || !check_(p.key, line)) {
      ++st.failed;
    } else if (mode.kind == Kind::kClosed && lat > mode.limit_ms) {
      ++st.over_limit;
    } else {
      ++st.good;
      if (now <= t_end) ++good_in_window;
      if (mode.kind == Kind::kClosed && now < t_end) {
        ++st.good_by_slice[static_cast<std::size_t>((now - t0) / slice_ns)];
      }
    }
    if (may_send(now)) enqueue(c, next_key(issued), mono_ns());
  };

  const auto on_readable = [&](Conn& c) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) throw std::runtime_error("server closed a connection");
      const std::int64_t now = mono_ns();
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const auto nl = c.in.find('\n', start);
        if (nl == std::string::npos) break;
        on_line(c, std::string_view(c.in).substr(start, nl - start), now);
        start = nl + 1;
      }
      c.in.erase(0, start);
    }
    flush(c);
  };

  const auto send_due = [&]() {
    const std::int64_t now = mono_ns();
    while (issued < total && due_ns(issued) <= now) {
      const std::int64_t due = due_ns(issued);
      Conn& c = *conns_[issued % conns_.size()];
      st.late_ms.push_back(static_cast<double>(now - due) * 1e-6);
      enqueue(c, next_key(issued), due);
    }
    for (const auto& c : conns_) {
      if (!c->out.empty()) flush(*c);
    }
  };

  if (mode.kind == Kind::kOpen) {
    send_due();
  } else {
    for (std::size_t w = 0; w < mode.window; ++w) {
      for (const auto& c : conns_) {
        if (may_send(mono_ns())) enqueue(*c, next_key(issued), mono_ns());
      }
    }
    for (const auto& c : conns_) flush(*c);
  }

  std::int64_t drain_deadline = 0;
  epoll_event events[64];
  for (;;) {
    const std::int64_t now = mono_ns();
    close_slices(now);
    const bool sending_done =
        issued >= total || (mode.kind == Kind::kClosed && now >= t_end);
    if (sending_done && in_flight == 0) break;
    if (sending_done && drain_deadline == 0) drain_deadline = now + kDrainNs;
    // The open loop polls without sleeping: a halted virtual CPU can take
    // milliseconds to wake, which would show up as generator lateness.
    int timeout_ms = mode.kind == Kind::kOpen ? 0 : 1000;
    if (mode.kind == Kind::kClosed && now < t_end) {
      timeout_ms = static_cast<int>((t_end - now) / 1'000'000) + 1;
    }
    if (drain_deadline != 0 && now > drain_deadline) {
      throw std::runtime_error("responses still missing after the drain budget");
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) sys_fail("epoll_wait");
    for (int e = 0; e < n; ++e) {
      Conn& c = *static_cast<Conn*>(events[e].data.ptr);
      if ((events[e].events & (EPOLLERR | EPOLLHUP)) != 0 &&
          (events[e].events & EPOLLIN) == 0) {
        throw std::runtime_error("connection error");
      }
      if ((events[e].events & EPOLLIN) != 0) on_readable(c);
      if ((events[e].events & EPOLLOUT) != 0) flush(c);
    }
    if (mode.kind == Kind::kOpen) send_due();
  }

  close_slices(t0 + static_cast<std::int64_t>(slices) * slice_ns);
  const double elapsed = static_cast<double>(mono_ns() - t0) * 1e-9;
  switch (mode.kind) {
    case Kind::kList:
      st.seconds = elapsed;
      break;
    case Kind::kClosed:
      st.seconds = mode.seconds;
      st.goodput_rps = static_cast<double>(good_in_window) / mode.seconds;
      break;
    case Kind::kOpen: {
      st.seconds = mode.seconds;
      st.offered_rps = mode.rate;
      const double span = static_cast<double>(last_recv - t0) * 1e-9;
      st.achieved_rps =
          span > 0.0 ? static_cast<double>(st.received) / span : 0.0;
      st.backlog = st.achieved_rps < 0.95 * mode.rate;
      break;
    }
  }
  return st;
}

}  // namespace perfbench
