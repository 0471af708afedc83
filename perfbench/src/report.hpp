// Sample statistics, metric collection and the result line of one run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the "exclusive" method); all three equal the value for one sample.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
Quartiles quartiles(std::vector<double> values);
double median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it: the sample
/// of rank count-11 in ascending order.  With eleven samples or fewer it is
/// the median.  `percentile` receives the rank as a percentage.
double tail(std::vector<double> values, double* percentile = nullptr);

/// tail() of each run of `window` consecutive samples (the remainder joins
/// the last run; fewer than 2 × `window` samples form one run), and the
/// median of those.  `percentile` and `windows` receive the first run's
/// percentile and the number of runs.
double window_tail(const std::vector<double>& values, std::size_t window,
                   double* percentile = nullptr,
                   std::size_t* windows = nullptr);

/// Peak resident set size of this process, in MB (VmHWM).
double peak_rss_mb();

/// JSON string literal for `text` (quotes included).
std::string json_string(const std::string& text);

/// One metric: the reported value plus, for sampled metrics, the spread
/// that the log line shows.
struct Metric {
  double value = 0;
  std::string unit;
  Quartiles spread;
  std::size_t samples = 0;  ///< 0 for a single measured value
  std::string note;         ///< e.g. which percentile a tail is
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::string note = {});
  /// Reports the median of `samples`, keeping quartiles and count.
  void set_median(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit);
  /// Reports tail(samples), keeping the percentile and count.
  void set_tail(const std::string& name, const std::vector<double>& samples,
                const std::string& unit);
  /// Reports window_tail(samples, window), keeping the percentile, the
  /// number of windows and the count.
  void set_window_tail(const std::string& name,
                       const std::vector<double>& samples, std::size_t window,
                       const std::string& unit);
  bool has(const std::string& name) const { return values_.count(name) > 0; }
  const Metric& get(const std::string& name) const { return values_.at(name); }

 private:
  std::map<std::string, Metric> values_;
};

}  // namespace perfbench
