#include "report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"), step for step: m = n + 1,
  // cut point i at position i*m/4 (1-based), j clamped to 1..n-1 and the
  // value interpolated (or extrapolated) from its two neighbours.
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  double cuts[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    cuts[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                   values[j] * static_cast<double>(delta)) /
                  4.0;
  }
  q.q1 = cuts[0];
  q.median = cuts[1];
  q.q3 = cuts[2];
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double tail(std::vector<double> values, double* percentile) {
  if (values.size() <= 11) {
    if (percentile != nullptr) *percentile = 50;
    return median(std::move(values));
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = values.size() - 11;
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(rank + 1) /
                  static_cast<double>(values.size());
  }
  return values[rank];
}

double window_tail(const std::vector<double>& values, std::size_t window,
                   double* percentile, std::size_t* windows) {
  const std::size_t runs = std::max<std::size_t>(1, values.size() / window);
  std::vector<double> tails;
  for (std::size_t w = 0; w < runs; ++w) {
    const auto begin = values.begin() + static_cast<long>(w * window);
    const auto end =
        w + 1 == runs ? values.end() : begin + static_cast<long>(window);
    tails.push_back(tail(std::vector<double>(begin, end),
                         w == 0 ? percentile : nullptr));
  }
  if (windows != nullptr) *windows = runs;
  return median(std::move(tails));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit, std::string note) {
  Metric& metric = values_[name];
  metric = Metric{};
  metric.value = value;
  metric.unit = unit;
  metric.note = std::move(note);
}

void Metrics::set_median(const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit) {
  Metric& metric = values_[name];
  metric = Metric{};
  metric.spread = quartiles(samples);
  metric.value = median(samples);
  metric.unit = unit;
  metric.samples = samples.size();
}

void Metrics::set_tail(const std::string& name,
                       const std::vector<double>& samples,
                       const std::string& unit) {
  double percentile = 0;
  Metric& metric = values_[name];
  metric = Metric{};
  metric.spread = quartiles(samples);
  metric.value = tail(samples, &percentile);
  metric.unit = unit;
  metric.samples = samples.size();
  char note[32];
  std::snprintf(note, sizeof note, "p%.2f", percentile);
  metric.note = note;
}

void Metrics::set_window_tail(const std::string& name,
                              const std::vector<double>& samples,
                              std::size_t window, const std::string& unit) {
  double percentile = 0;
  std::size_t windows = 0;
  Metric& metric = values_[name];
  metric = Metric{};
  metric.spread = quartiles(samples);
  metric.value = window_tail(samples, window, &percentile, &windows);
  metric.unit = unit;
  metric.samples = samples.size();
  char note[64];
  std::snprintf(note, sizeof note, "p%.2f, median of %zu windows", percentile,
                windows);
  metric.note = note;
}

}  // namespace perfbench
