#ifndef HYGNN_SERVE_LOADGEN_H_
#define HYGNN_SERVE_LOADGEN_H_

#include <cstdint>
#include <span>

#include "serve/request.h"
#include "serve/retry.h"
#include "serve/server.h"

namespace hygnn::serve {

/// Open-loop load generation against a serve::Server, shared by
/// bench/bench_load.cc and the CLI `serve-load` subcommand. Open-loop
/// means submitters hold their offered schedule instead of waiting for
/// responses — the only arrival model under which overload actually
/// overloads (a closed loop self-throttles and can never saturate the
/// queue), so it is what exercises the admission-control/shedding path.

struct LoadConfig {
  /// Aggregate request rate across all submitters. Each submitter
  /// paces itself at offered_qps / submitters with burst catch-up when
  /// it falls behind schedule, so the average rate holds even when a
  /// sleep overshoots.
  double offered_qps = 1000.0;
  /// Length of the offered window. Submissions stop after this;
  /// already-accepted requests are drained and still count.
  double duration_seconds = 1.0;
  /// Concurrent submitter threads (core::WorkerThread).
  int32_t submitters = 2;
  /// Per-request deadline stamped into every submitted request
  /// (ScoreRequest::timeout_us); 0 = no deadline.
  int64_t timeout_us = 0;
  /// When true, retryable admission failures (shed, admission-time
  /// DeadlineExceeded) are retried with jittered exponential backoff
  /// per `retry_options`. Each submitter gets its own RetryPolicy
  /// seeded retry_seed + thread index, so runs are reproducible.
  bool retry = false;
  RetryOptions retry_options;
  uint64_t retry_seed = 0x9e3779b97f4a7c15ULL;
};

/// What one offered-load level produced. Latency is end-to-end in
/// microseconds: from the request's first submission attempt to the
/// server delivering its result (Server::Pending's admit and complete
/// stamps on the server's core::Clock, plus any retry backoff before
/// admission). Percentiles are exact order statistics over every
/// completed request, not histogram interpolations.
struct LoadReport {
  double offered_qps = 0.0;
  double duration_seconds = 0.0;
  /// Unique requests the generator tried to submit. A request retried
  /// after shedding still counts once here; see `attempts` for the
  /// wire-level count.
  uint64_t submitted = 0;
  /// SubmitAsync calls issued, retries included. Always equal to
  /// submitted + retried; without retry enabled, equal to submitted.
  uint64_t attempts = 0;
  /// Requests that delivered an Ok response.
  uint64_t completed = 0;
  /// Requests refused at admission with ResourceExhausted.
  uint64_t shed = 0;
  /// Accepted requests whose response was a non-Ok status (expired
  /// ones counted separately, not here).
  uint64_t failed = 0;
  /// Accepted requests that came back DeadlineExceeded — the server
  /// expired them at batch close or withheld a stale score.
  uint64_t expired = 0;
  /// Backed-off resubmissions performed (0 unless config.retry). Each
  /// retry also counts in `attempts` but not in `submitted`.
  uint64_t retried = 0;
  /// Requests that were shed at least once but eventually accepted
  /// thanks to a retry.
  uint64_t retried_ok = 0;
  /// completed / (offered window + drain time).
  double sustained_qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// Drives `server` at config.offered_qps for config.duration_seconds.
/// Submitters draw requests round-robin from `requests` (read-only,
/// shared; must be non-empty and outlive the call) and submit copies.
/// The server must be started. Submitters reap finished requests after
/// each send and at drain; since latency comes from the server's
/// stamps, when a submitter reaps does not change it.
LoadReport RunLoad(Server* server, std::span<const ScoreRequest> requests,
                   const LoadConfig& config);

}  // namespace hygnn::serve

#endif  // HYGNN_SERVE_LOADGEN_H_
