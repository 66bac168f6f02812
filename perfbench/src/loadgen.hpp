#pragma once

// The serving side of the benchmark: a separately spawned `sre_serve --tcp 0`
// and a one-thread epoll load generator that drives it over loopback.
//
// The generator owns at most nproc connections. Per connection, responses
// arrive in request order (the server's contract), so each response is
// matched to the oldest request in flight on that connection and its id is
// checked. Two disciplines:
//   closed  every connection keeps `window` requests in flight; the next is
//           sent when a response lands (saturation, goodput);
//   open    request i is due at t0 + i / rate, on connection i mod C, and is
//           timed from that due time, so a stalled server or a late
//           generator both show up as latency; lateness (send - due) is
//           recorded separately. The open loop polls rather than sleeps, so the
//           generator's own wake-up delay stays out of the numbers.
// In both, the generator reads the host steal time every kSliceSeconds, so
// the caller can tell which stretches of a phase the host left alone.

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A child `sre_serve` process on an ephemeral port. The destructor stops
/// it (shutdown verb, then SIGTERM, then SIGKILL) and reaps it.
class ServerProcess {
 public:
  /// `cpus`, when set, is the child's CPU affinity.
  ServerProcess(const std::string& path, const std::vector<std::string>& args,
                const cpu_set_t* cpus = nullptr);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// One blocking request/response round trip on the control connection.
  /// Throws std::runtime_error on I/O failure or a 10 s timeout.
  std::string call(std::string_view line);

  /// Sends {"cmd":"shutdown"} and waits for the process to exit. Returns
  /// true on a clean exit with status 0.
  bool shutdown();

 private:
  void await_port();
  void reap(double timeout_s);

  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
  int control_fd_ = -1;
  std::string control_buf_;
  bool exited_ = false;
  int exit_status_ = -1;
};

/// Verdict on one response line for query `key`: true when it is ok and
/// carries the expected result bytes.
using Checker = std::function<bool(std::uint32_t key, std::string_view line)>;

struct PhaseStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t good = 0;     ///< checker passed (and, closed loop, in time)
  std::uint64_t failed = 0;   ///< checker rejected, or no response arrived
  std::uint64_t over_limit = 0;  ///< correct but slower than the limit
  std::vector<double> latency_ms;  ///< one per response
  std::vector<double> late_ms;     ///< open loop: send time - due time
  /// Closed and open loop: the host steal time (host_steal_ms) that passed
  /// during each kSliceSeconds slice of the phase.
  std::vector<double> steal_by_slice_ms;
  /// Closed loop: good responses received within the window, per slice.
  std::vector<std::uint64_t> good_by_slice;
  /// Open loop: latencies per slice of due time.
  std::vector<std::vector<double>> latency_by_slice;
  double seconds = 0.0;        ///< measured window length
  double goodput_rps = 0.0;    ///< closed loop: good responses / window
  double offered_rps = 0.0;    ///< open loop: scheduled rate
  double achieved_rps = 0.0;   ///< open loop: responses / (last - first due)
  bool backlog = false;        ///< open loop: achieved < 95% of offered
};

/// Length of a phase slice (PhaseStats::steal_by_slice_ms).
inline constexpr double kSliceSeconds = 0.05;

class Generator {
 public:
  /// Connects `connections` non-blocking sockets to 127.0.0.1:`port`.
  /// `tails` are the wire-line tails of the workload's queries. `cpus`,
  /// when set, is copied and pins the calling thread while a phase runs.
  Generator(int port, unsigned connections,
            const std::vector<std::string>& tails, Checker check,
            const cpu_set_t* cpus = nullptr);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Sends `keys` once each, `window` in flight per connection, and waits
  /// for every response.
  PhaseStats run_list(const std::vector<std::uint32_t>& keys,
                      std::size_t window, char tag);

  /// Closed loop for `seconds`: query of request i is pick(i). Responses
  /// slower than `limit_ms` are not good.
  PhaseStats run_closed(const std::function<std::uint32_t(std::uint64_t)>& pick,
                        std::size_t window, double seconds, double limit_ms,
                        char tag);

  /// Open loop at `rate` requests/s for `seconds`.
  PhaseStats run_open(const std::function<std::uint32_t(std::uint64_t)>& pick,
                      double rate, double seconds, char tag);

 private:
  struct Conn;
  struct Mode;
  PhaseStats run(Mode& mode);

  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  const std::vector<std::string>& tails_;
  Checker check_;
  bool pinned_;
  cpu_set_t cpus_{};
  std::uint64_t next_seq_ = 0;
};

}  // namespace perfbench
