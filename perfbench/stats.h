#ifndef HYGNN_PERFBENCH_STATS_H_
#define HYGNN_PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles, the open-loop arrival
// schedule, lateness and latency accounting, and the knee rule. Kept
// apart from perfbench.cc so selftest.cc can check it on synthetic
// inputs.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (need not be sorted): the
/// smallest sample with at least q% of the samples at or below it.
/// `q` in [0, 100]. Empty input yields 0.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Mean of `values` without their highest and lowest (with fewer than
/// three values, the plain mean). Empty input yields 0.
double TrimmedMean(std::vector<double> values);

/// The highest percentile, from {99.9, 99, 95, 90}, that has at least
/// ten samples beyond it: n * (1 - q/100) >= 10. Returns 0 when even
/// p90 is unsupported or when n < 40 (then report the median alone).
double HighestSupportedPercentile(int64_t n);

/// Open-loop arrival schedule: `count` Poisson arrivals at `rate_per_s`,
/// as offsets in seconds from the stream's start. The same seed gives
/// the same schedule on every platform (the exponential gaps come from
/// the raw 64-bit engine output, not a library distribution).
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    int64_t count);

/// Per-request accounting of one open-loop stream. Times are seconds on
/// one monotonic clock.
struct StreamTimes {
  std::vector<double> due;   ///< when each request was due to be sent
  std::vector<double> sent;  ///< when the generator actually sent it
  std::vector<double> done;  ///< when a waiter saw it complete; <0 = refused
};

/// How late the generator ran: sent - due per request, in microseconds,
/// clamped at 0 (a send can never be early).
std::vector<double> LatenessUs(const StreamTimes& times);

/// Latency of every request, in microseconds and in schedule order,
/// measured from its due time — never from its send time, so a stalled
/// generator's delay is charged to the requests it held up. A refused or
/// failed request counts as infinitely late: it misses any limit.
std::vector<double> LatencyOrInfUs(const StreamTimes& times);

/// The q-th percentile taken separately over consecutive windows of
/// `window` values (a short tail window is folded into the one before
/// it), then the median over windows. One stall of the host spoils at
/// most the windows it overlaps, not the whole figure. Fewer than
/// `window` values form a single window.
double WindowedPercentile(const std::vector<double>& values, int64_t window,
                          double q);

/// One rung of the saturation ladder, as measured.
struct Rung {
  double rate_per_s = 0.0;
  int64_t offered = 0;
  int64_t refused = 0;
  /// The limit percentile's latency, refusals counting as infinite.
  double tail_ms = 0.0;
  /// Median latency of the rung's last window of requests: a backlog that
  /// keeps growing leaves the last arrivals waiting longest.
  double backlog_ms = 0.0;
};

/// True when the rung keeps pace: tail latency and the last window's
/// median latency within `limit_ms`, and at most `max_refused_share` of
/// the offered requests refused.
bool RungHolds(const Rung& rung, double limit_ms, double max_refused_share);

/// The knee: the highest offered rate among rungs that hold. 0 when no
/// rung holds. Rungs need not be sorted.
double KneeRate(const std::vector<Rung>& rungs, double limit_ms,
                double max_refused_share);

}  // namespace perfbench

#endif  // HYGNN_PERFBENCH_STATS_H_
