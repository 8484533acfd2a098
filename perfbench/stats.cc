#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<int64_t>(std::ceil(q / 100.0 * n));
  const int64_t index = std::clamp<int64_t>(
      rank - 1, 0, static_cast<int64_t>(values.size()) - 1);
  return values[static_cast<size_t>(index)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t begin = 0, end = values.size();
  if (values.size() >= 3) {
    ++begin;
    --end;
  }
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) sum += values[i];
  return sum / static_cast<double>(end - begin);
}

double HighestSupportedPercentile(int64_t n) {
  if (n < 40) return 0.0;
  for (double q : {99.9, 99.0, 95.0, 90.0}) {
    // Integer form of n * (1 - q/100) >= 10, free of rounding: q is
    // given to one decimal, so compare in thousandths.
    const auto beyond_permille = static_cast<int64_t>(
        std::llround((100.0 - q) * 10.0));
    if (n * beyond_permille >= 10 * 1000) return q;
  }
  return 0.0;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    int64_t count) {
  std::mt19937_64 engine(seed);
  std::vector<double> offsets;
  offsets.reserve(static_cast<size_t>(std::max<int64_t>(count, 0)));
  double t = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    // u in (0, 1]: 53 random bits, shifted off zero.
    const double u =
        (static_cast<double>(engine() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_per_s;
    offsets.push_back(t);
  }
  return offsets;
}

std::vector<double> LatenessUs(const StreamTimes& times) {
  std::vector<double> late;
  late.reserve(times.due.size());
  for (size_t i = 0; i < times.due.size(); ++i) {
    late.push_back(std::max(0.0, times.sent[i] - times.due[i]) * 1e6);
  }
  return late;
}

std::vector<double> LatencyOrInfUs(const StreamTimes& times) {
  std::vector<double> latency;
  latency.reserve(times.due.size());
  for (size_t i = 0; i < times.due.size(); ++i) {
    latency.push_back(times.done[i] < 0.0
                          ? std::numeric_limits<double>::infinity()
                          : (times.done[i] - times.due[i]) * 1e6);
  }
  return latency;
}

double WindowedPercentile(const std::vector<double>& values, int64_t window,
                          double q) {
  const auto n = static_cast<int64_t>(values.size());
  const int64_t windows = std::max<int64_t>(1, n / window);
  std::vector<double> tails;
  for (int64_t w = 0; w < windows; ++w) {
    const int64_t begin = w * window;
    const int64_t end = w + 1 == windows ? n : begin + window;
    tails.push_back(Percentile(
        std::vector<double>(values.begin() + begin, values.begin() + end), q));
  }
  return Median(std::move(tails));
}

bool RungHolds(const Rung& rung, double limit_ms, double max_refused_share) {
  return rung.offered > 0 && rung.tail_ms <= limit_ms &&
         rung.backlog_ms <= limit_ms &&
         static_cast<double>(rung.refused) <=
             max_refused_share * static_cast<double>(rung.offered);
}

double KneeRate(const std::vector<Rung>& rungs, double limit_ms,
                double max_refused_share) {
  double knee = 0.0;
  for (const Rung& rung : rungs) {
    if (RungHolds(rung, limit_ms, max_refused_share)) {
      knee = std::max(knee, rung.rate_per_s);
    }
  }
  return knee;
}

}  // namespace perfbench
