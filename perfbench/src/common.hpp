#pragma once

// Shared plumbing for the repository benchmark: command-line options, the
// metric report that becomes the last stdout line, exact sample
// summaries, and small process/clock helpers.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_path;  ///< sre_serve binary (serve_* workloads)
  std::string work_dir;    ///< temporary files (access logs) live here
  unsigned nproc = 1;      ///< cores visible to this process
};

/// Exact summary of a sample set: every percentile comes from
/// stats::empirical_quantile over all samples, never from buckets.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;

  /// min <= p50 <= p90 <= p99 <= max, and at least one sample.
  [[nodiscard]] bool ordered() const;
  [[nodiscard]] std::string json() const;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Type-7 quantile of `samples` (stats::empirical_quantile); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double p);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// A JSON string literal.
[[nodiscard]] std::string quoted(std::string_view text);

/// Numbers with every digit (shortest round-trip form).
[[nodiscard]] std::string num(double v);

/// The run's outcome: metric values plus the operation tally. `fail`
/// records a correctness failure with a reason (printed to stderr).
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1);
  /// Free-form context (thread counts, seed, lateness...) for the artifact.
  void note(const std::string& key, const std::string& json_value);
  void note(const std::string& key, double value) { note(key, num(value)); }

  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// {"artifact": {...notes, failures}} — one line, printed before result.
  [[nodiscard]] std::string artifact_line() const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  [[nodiscard]] std::string result_line() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// CPU time the hypervisor took from this machine's cores so far (the
/// "steal" column of /proc/stat, summed over every CPU), in milliseconds.
[[nodiscard]] double host_steal_ms();

/// VmHWM (peak resident set) of `pid` in MiB; pid 0 = this process.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

}  // namespace perfbench
