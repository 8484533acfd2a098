#include "serve/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "core/thread_pool.h"
#include "obs/optime.h"

namespace hygnn::serve {

namespace {

/// One submitter's view of an in-flight request.
struct Outstanding {
  std::shared_ptr<Server::Pending> pending;
  /// Time from the first attempt to the accepted one (retry backoff);
  /// 0 when the first attempt was admitted.
  uint64_t retry_nanos = 0;
};

/// Tally one submitter accumulates locally (merged after join, so the
/// hot loop shares nothing with its siblings).
struct SubmitterTally {
  uint64_t submitted = 0;
  uint64_t attempts = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  uint64_t expired = 0;
  uint64_t retried = 0;
  uint64_t retried_ok = 0;
  std::vector<double> latencies_us;
};

/// Pops every finished request off the front of `outstanding`,
/// recording its latency. `blocking` waits for all of them (drain).
/// Latency comes from the server's admit and complete stamps (plus any
/// retry backoff before admission), not from when this submitter gets
/// round to reaping: it reaps only between paced submissions, so a
/// reap-time stamp would read max(latency, pacing interval).
void Reap(std::deque<Outstanding>* outstanding, SubmitterTally* tally,
          bool blocking) {
  while (!outstanding->empty()) {
    Outstanding& front = outstanding->front();
    if (!blocking && !front.pending->done()) break;
    const auto result = front.pending->Wait();
    const Server::Pending& pending = *front.pending;
    const double latency_us =
        static_cast<double>(pending.completed_nanos() -
                            pending.admitted_nanos() + front.retry_nanos) /
        1e3;
    if (result.ok()) {
      ++tally->completed;
      tally->latencies_us.push_back(latency_us);
    } else if (result.status().code() ==
               core::StatusCode::kDeadlineExceeded) {
      ++tally->expired;
    } else {
      ++tally->failed;
    }
    outstanding->pop_front();
  }
}

/// Exact order-statistic percentile (linear interpolation between
/// adjacent ranks) over an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

LoadReport RunLoad(Server* server, std::span<const ScoreRequest> requests,
                   const LoadConfig& config) {
  HYGNN_CHECK(server != nullptr);
  HYGNN_CHECK(!requests.empty());
  HYGNN_CHECK(config.offered_qps > 0.0);
  HYGNN_CHECK(config.duration_seconds > 0.0);
  HYGNN_CHECK(config.submitters >= 1);

  const int32_t submitters = config.submitters;
  const double per_thread_qps =
      config.offered_qps / static_cast<double>(submitters);
  const auto interval_nanos =
      static_cast<uint64_t>(std::llround(1e9 / per_thread_qps));
  const auto window_nanos =
      static_cast<uint64_t>(config.duration_seconds * 1e9);

  std::vector<SubmitterTally> tallies(static_cast<size_t>(submitters));
  const uint64_t start_nanos = obs::NowNanos();
  {
    std::vector<core::WorkerThread> threads;
    threads.reserve(static_cast<size_t>(submitters));
    for (int32_t t = 0; t < submitters; ++t) {
      threads.emplace_back([server, requests, t, submitters, interval_nanos,
                            window_nanos, start_nanos, &tallies, &config] {
        SubmitterTally& tally = tallies[static_cast<size_t>(t)];
        std::deque<Outstanding> outstanding;
        // One policy per submitter, seed forked by thread index: the
        // backoff schedule is reproducible but not lockstep across
        // threads.
        std::optional<RetryPolicy> policy;
        if (config.retry) {
          policy.emplace(config.retry_options,
                         config.retry_seed + static_cast<uint64_t>(t));
        }
        // Request i of this thread is globally request t + i*submitters,
        // scheduled at start + i*interval: deterministic pacing with
        // burst catch-up (no sleep when behind schedule).
        for (uint64_t i = 0;; ++i) {
          const uint64_t due_nanos = start_nanos + i * interval_nanos;
          if (due_nanos - start_nanos >= window_nanos) break;
          uint64_t now = obs::NowNanos();
          if (now < due_nanos) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(due_nanos - now));
            now = obs::NowNanos();
          }
          const size_t index =
              (static_cast<size_t>(t) +
               static_cast<size_t>(i) * static_cast<size_t>(submitters)) %
              requests.size();
          ScoreRequest request = requests[index];
          if (config.timeout_us > 0) request.timeout_us = config.timeout_us;
          // One unique request per schedule slot, however many times
          // the retry loop resubmits it — counting attempts as
          // `submitted` used to overstate offered load whenever retry
          // was on.
          ++tally.submitted;
          // Latency is measured from the first attempt, so backoff
          // sleeps charge against the request like any other queueing.
          for (int32_t attempt = 1;; ++attempt) {
            ++tally.attempts;
            auto pending = server->SubmitAsync(request);
            if (pending.ok()) {
              outstanding.push_back(
                  {std::move(pending).value(),
                   attempt > 1 ? obs::NowNanos() - now : 0});
              if (attempt > 1) ++tally.retried_ok;
              break;
            }
            const core::Status& status = pending.status();
            const int64_t backoff_us =
                policy ? policy->NextBackoffUs(status, attempt) : -1;
            if (backoff_us < 0) {
              if (status.code() == core::StatusCode::kResourceExhausted) {
                ++tally.shed;
              } else {
                ++tally.failed;
              }
              break;
            }
            ++tally.retried;
            if (backoff_us > 0) {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(backoff_us));
            }
          }
          Reap(&outstanding, &tally, /*blocking=*/false);
        }
        Reap(&outstanding, &tally, /*blocking=*/true);
      });
    }
    // WorkerThread joins in its destructor; leaving the scope is the
    // barrier.
  }
  const double elapsed_seconds =
      static_cast<double>(obs::NowNanos() - start_nanos) / 1e9;

  LoadReport report;
  report.offered_qps = config.offered_qps;
  report.duration_seconds = config.duration_seconds;
  std::vector<double> latencies;
  for (const auto& tally : tallies) {
    report.submitted += tally.submitted;
    report.attempts += tally.attempts;
    report.completed += tally.completed;
    report.shed += tally.shed;
    report.failed += tally.failed;
    report.expired += tally.expired;
    report.retried += tally.retried;
    report.retried_ok += tally.retried_ok;
    latencies.insert(latencies.end(), tally.latencies_us.begin(),
                     tally.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  report.sustained_qps =
      elapsed_seconds > 0.0
          ? static_cast<double>(report.completed) / elapsed_seconds
          : 0.0;
  report.p50_us = Percentile(latencies, 0.50);
  report.p95_us = Percentile(latencies, 0.95);
  report.p99_us = Percentile(latencies, 0.99);
  return report;
}

}  // namespace hygnn::serve
