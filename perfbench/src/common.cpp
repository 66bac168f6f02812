#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "obs/minijson.hpp"
#include "obs/report.hpp"
#include "stats/summary.hpp"

namespace perfbench {

bool Summary::ordered() const {
  return count > 0 && min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max;
}

std::string Summary::json() const {
  return "{\"count\":" + std::to_string(count) + ",\"min\":" + num(min) +
         ",\"p50\":" + num(p50) + ",\"p90\":" + num(p90) +
         ",\"p99\":" + num(p99) + ",\"max\":" + num(max) +
         ",\"mean\":" + num(mean) + "}";
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  s.p50 = sre::stats::empirical_quantile(samples, 0.50);
  s.p90 = sre::stats::empirical_quantile(samples, 0.90);
  s.p99 = sre::stats::empirical_quantile(samples, 0.99);
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  return s;
}

double quantile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return sre::stats::empirical_quantile(samples, p);
}

std::string quoted(std::string_view text) {
  std::string out(1, '"');
  out += sre::obs::minijson::escape(text);
  out += '"';
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  return sre::obs::format_double(v);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  if (failures_.size() < 20) failures_.push_back(why);
  std::cerr << "perfbench: FAIL " << why << "\n";
}

void Report::note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

std::string Report::artifact_line() const {
  std::string out = "{\"artifact\":{";
  for (const auto& [key, value] : notes_) {
    out += quoted(key);
    out += ':';
    out += value;
    out += ',';
  }
  out += "\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) out += ',';
    out += quoted(failures_[i]);
  }
  return out + "]}}";
}

std::string Report::result_line() const {
  std::string out = std::string("{\"correct\":") +
                    (correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"value\":" + num(v.value) + ",\"unit\":\"" +
           v.unit + "\"}";
  }
  return out + "}}";
}

double host_steal_ms() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return 0.0;
  std::istringstream fields(line.substr(4));
  double v[8] = {};
  for (double& x : v) fields >> x;
  return v[7] * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
