#ifndef HYGNN_SERVE_SERVER_H_
#define HYGNN_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/clock.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "hygnn/model.h"
#include "serve/embedding_store.h"
#include "serve/request.h"
#include "serve/scoring.h"

namespace hygnn::serve {

/// The serving front-end: a request pipeline that turns the
/// library-call-per-batch PairScorer into a service loop with SLOs.
///
/// Architecture (marian-dev batch_generator style):
///
///   submitters ──> bounded MPMC queue ──> dynamic batcher ──> workers
///                  (admission control)    (close a batch on    (shared
///                   shed when full         max-size or an       store
///                   ResourceExhausted)     empty queue)         cache)
///
/// * Admission control: SubmitAsync validates the request against the
///   catalog, then enqueues — or sheds immediately with a typed
///   ResourceExhausted when queue_capacity requests are already
///   waiting. Overload degrades to fast typed errors, never to
///   unbounded queue growth or blocked submitters.
/// * Work-conserving batching: an idle worker opens a batch with the
///   oldest live queued request, appends whatever else is already
///   queued until the batch holds max_batch pairs, and closes it the
///   moment the queue is empty — it never waits for company. Batches
///   therefore grow only while the workers are busy and requests pile
///   up, which is when batching pays; a lone request is scored at
///   once. Requests are never split across batches.
/// * Determinism: a batch is scored by concatenating its requests'
///   pairs into one PairScorer::ScorePairs call. The scorer's fixed
///   chunk partition and row-independent decoder make every per-request
///   result bit-identical to scoring that request alone, regardless of
///   batch composition, worker count, or arrival order (pinned by
///   tests/server_test.cc).
/// * Shutdown: Shutdown() stops admitting, then drains — every request
///   already accepted completes with a real result before workers
///   exit. Waiters never hang.
///
/// Requests may be submitted before Start(); they sit in the queue
/// until workers spawn. Start/Shutdown are not safe to call
/// concurrently with each other (call them from one owning thread);
/// SubmitAsync/Score are safe from any number of threads.
///
/// Deadlines (the request-lifecycle robustness layer):
/// * ScoreRequest::timeout_us becomes an absolute monotonic deadline
///   (core::ActiveClock, captured at construction) at admission.
/// * A request whose deadline has passed is never scored: expiry is
///   checked when its batch closes (it completes with DeadlineExceeded
///   and never enters the batch) and again after scoring (the deadline
///   passed mid-batch — the stale score is withheld and the typed
///   error delivered instead). A waiter therefore never outlives its
///   deadline by more than one batch's service time.
/// * Deadline-aware admission: once the batch-service-time EWMA warms
///   up, a request that cannot make its deadline through the current
///   queue (estimate = ewma_us * (depth + 1) / workers) is shed at
///   SubmitAsync with ResourceExhausted and a "retry after ~N us"
///   hint, so overload degrades to fast typed errors instead of
///   queueing work that is already dead.
///
/// Hot catalog swap (epoch pinning):
/// * Catalog mutations (AddDrug/Rebuild/Invalidate) need NO quiesce:
///   they publish a new EmbeddingStore snapshot while the server keeps
///   serving. Each batch pins exactly one StoreSnapshot at batch open
///   and scores every pair in it against that epoch, so per-request
///   results stay bit-identical to serial scoring regardless of
///   concurrent publications; the superseded snapshot is reclaimed
///   when the last batch pinned to it drains (shared_ptr refcount is
///   the grace period).
/// * SubmitAsync validates pair ids against the *current* epoch. A
///   request validated against epoch N whose batch later pins a
///   different epoch gets a well-defined outcome: ids stay valid when
///   the catalog only grew (AddDrug), and a shrink (Rebuild) or
///   Invalidate yields a typed InvalidArgument/FailedPrecondition —
///   never a torn or stale-row score.
/// * Health() reports kSwapping while a batch pinned to a superseded
///   epoch is still in flight — the brief swap transition window.
///
/// The model and store must outlive the server.
class Server {
 public:
  /// A submitted request's completion handle. Submitter and worker
  /// share ownership via shared_ptr, so a caller may drop its handle
  /// without waiting (fire-and-forget) and the worker side stays valid.
  class Pending {
   public:
    /// Blocks until the request's batch has been scored, then returns
    /// the result (a copy — Wait may be called repeatedly). The
    /// result is an error only when the whole batch failed to score
    /// (e.g. the store went stale between admission and scoring) or
    /// the server was torn down without ever starting.
    core::Result<ScoreResponse> Wait();

    /// Like Wait, but gives up after `timeout_us` microseconds of
    /// *wall* time and returns DeadlineExceeded when the result is not
    /// ready — a bounded wait for callers that must not block
    /// indefinitely even if their request carried no server-side
    /// deadline. The request stays in flight: Wait/WaitFor may be
    /// called again and will observe the eventual result. Non-positive
    /// timeouts make this a non-blocking poll.
    core::Result<ScoreResponse> WaitFor(int64_t timeout_us);

    /// True once the result is available; Wait will not block.
    bool done() const;

    /// Admission time on the server's core::Clock seam.
    uint64_t admitted_nanos() const { return admitted_nanos_; }

    /// Time on the server's core::Clock seam at which the result was
    /// delivered; 0 until done(). completed_nanos() - admitted_nanos()
    /// is the request's latency inside the server, however late its
    /// submitter looks at the result.
    uint64_t completed_nanos() const;

   private:
    friend class Server;
    Pending(ScoreRequest request, core::Clock* clock)
        : request_(std::move(request)), clock_(clock) {}

    void Complete(core::Result<ScoreResponse> result);

    /// Owned by the submitter until SubmitAsync succeeds, then by the
    /// worker that batches it; never mutated after that hand-off, so
    /// reads from the scoring path need no lock.
    ScoreRequest request_;
    /// The server's clock seam; Complete stamps completed_nanos_ on it.
    core::Clock* const clock_;
    /// Admission time and absolute monotonic deadline (core::Clock
    /// nanos), both stamped at admission; the deadline is 0 when the
    /// request carries none. Like request_, immutable after the submit
    /// hand-off.
    uint64_t admitted_nanos_ = 0;
    uint64_t deadline_nanos_ = 0;

    mutable core::Mutex mutex_;
    core::CondVar done_cv_;
    bool done_ HYGNN_GUARDED_BY(mutex_) = false;
    uint64_t completed_nanos_ HYGNN_GUARDED_BY(mutex_) = 0;
    std::optional<core::Result<ScoreResponse>> result_
        HYGNN_GUARDED_BY(mutex_);
  };

  /// Always-on pipeline counters (relaxed atomics — cheap enough to
  /// never gate). The obs registry mirrors richer per-stage histograms
  /// when metrics are enabled. `accepted` is bumped inside the
  /// admission critical section — before any worker can see the
  /// request — so a stats() sample never shows completed > accepted.
  struct Stats {
    uint64_t accepted = 0;   ///< requests admitted to the queue
    uint64_t shed = 0;       ///< requests refused with ResourceExhausted
    uint64_t completed = 0;  ///< requests whose result was delivered
    uint64_t batches = 0;    ///< batches scored
    /// Accepted requests completed with DeadlineExceeded instead of a
    /// score (expired at batch close or during scoring). Every expired
    /// request also counts in `completed` — its typed result was
    /// delivered.
    uint64_t expired = 0;
    /// Shed responses that carried a computed "retry after ~N us"
    /// hint (EWMA warm). Sheds before the first batch completes have
    /// no estimate and say "retry after backoff" instead.
    uint64_t retried_after_hint = 0;
  };

  /// Coarse health for load balancers and the obs gauge
  /// ("serve.server.health", numeric value of this enum): kServing
  /// while the queue is comfortably below capacity, kDegraded once it
  /// is at least half full (admission may start shedding), kDraining
  /// after Shutdown began (all new requests refused). kSwapping is the
  /// brief catalog-swap transition: a batch pinned to a superseded
  /// store epoch is still draining. Precedence when states overlap:
  /// kDraining > kDegraded > kSwapping > kServing — a swap never masks
  /// queue pressure, and both yield to shutdown.
  enum class Health : int32_t {
    kServing = 0,
    kDegraded = 1,
    kDraining = 2,
    kSwapping = 3,
  };

  /// Model and store must outlive the server; `options` are validated
  /// by Start (construction never fails).
  Server(const model::HyGnnModel* model, const EmbeddingStore* store,
         const ServerOptions& options);

  /// Joins workers; any still-queued request (server never started)
  /// completes with a FailedPrecondition result rather than hanging
  /// its waiter.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Validates options and spawns the worker pool. FailedPrecondition
  /// when already started or already shut down.
  core::Status Start();

  /// Stops admission, drains every accepted request, joins workers.
  /// Idempotent. Requests submitted after Shutdown are refused with
  /// FailedPrecondition.
  void Shutdown();

  /// Non-blocking admission. Validates the request against the catalog
  /// (InvalidArgument / FailedPrecondition) and applies admission
  /// control (ResourceExhausted when the queue is at capacity). On Ok
  /// the returned handle's Wait() delivers the response.
  core::Result<std::shared_ptr<Pending>> SubmitAsync(ScoreRequest request);

  /// Blocking convenience: SubmitAsync + Wait.
  core::Result<ScoreResponse> Score(ScoreRequest request);

  Stats stats() const;

  /// Current degradation state (see Health above). Safe from any
  /// thread.
  Health health() const;

  const ServerOptions& options() const { return options_; }

 private:
  /// Worker loop: close batches, score them, deliver results. Exits
  /// when shutdown is signalled and the queue is drained.
  void WorkerLoop() HYGNN_EXCLUDES(mutex_);

  /// Blocks until the queue holds a request, then closes a batch on
  /// what is queued (work-conserving batching rules above).
  /// Requests whose deadline passed while queued are completed with
  /// DeadlineExceeded here instead of joining the batch. Empty means
  /// shutdown-and-drained: the worker should exit.
  std::vector<std::shared_ptr<Pending>> NextBatch() HYGNN_EXCLUDES(mutex_);

  /// Scores one batch against one pinned store epoch and completes
  /// every request in it (expired ones with DeadlineExceeded), then
  /// folds the batch's service time into the admission EWMA. The epoch
  /// pin is taken at entry — before the chaos hook, so a stalled batch
  /// holds its pre-stall epoch across any swap that publishes while it
  /// is parked — and released when the batch's frame unwinds.
  void RunBatch(const std::vector<std::shared_ptr<Pending>>& batch);

  /// Completes one expired request with DeadlineExceeded and bumps the
  /// expired/completed counters. Callable with or without mutex_ held
  /// (Pending has its own lock; no path acquires mutex_ after it).
  void CompleteExpiredRequest(const std::shared_ptr<Pending>& pending);

  /// Delivers a batch-level failure: every waiter gets `status`,
  /// except those whose deadline has already passed — the
  /// "never scored within its deadline => DeadlineExceeded" contract
  /// outranks the batch error, so expired waiters get the typed expiry
  /// (and count in Stats::expired) even when their batch failed.
  void FailBatch(const std::vector<std::shared_ptr<Pending>>& batch,
                 const core::Status& status);

  /// Folds one batch's service time (open to results delivered) into
  /// the admission EWMA, releases the batch's epoch pin
  /// (`pinned_generation`), and republishes health.
  void FinishBatch(uint64_t service_start_nanos, uint64_t pinned_generation)
      HYGNN_EXCLUDES(mutex_);

  Health HealthLocked() const HYGNN_REQUIRES(mutex_);

  /// Mirrors the current health into the obs gauge (when metrics are
  /// on). Called at every admission decision and batch completion.
  void PublishHealthLocked() HYGNN_REQUIRES(mutex_);

  /// Estimated microseconds until a request admitted now would have
  /// its result, from the batch-service EWMA and queue depth; 0 while
  /// the EWMA is cold (no batch completed yet).
  int64_t EstimatedWaitUsLocked() const HYGNN_REQUIRES(mutex_);

  const ServerOptions options_;
  PairScorer scorer_;
  const EmbeddingStore* store_;
  /// Deadline arithmetic reads this seam (core::ActiveClock at
  /// construction), so tests drive expiry with a ManualClock.
  core::Clock* clock_;

  mutable core::Mutex mutex_;
  /// Signalled on enqueue and on shutdown.
  core::CondVar queue_nonempty_;
  std::deque<std::shared_ptr<Pending>> queue_ HYGNN_GUARDED_BY(mutex_);
  bool started_ HYGNN_GUARDED_BY(mutex_) = false;
  bool shutdown_ HYGNN_GUARDED_BY(mutex_) = false;
  /// EWMA of batch service time (batch open to results delivered) in
  /// microseconds; 0 until the first batch completes. Drives
  /// deadline-aware admission and retry-after hints.
  double ewma_batch_us_ HYGNN_GUARDED_BY(mutex_) = 0.0;
  /// Store generations of the in-flight batches' pinned epochs (one
  /// entry per batch between RunBatch entry and its FinishBatch). The
  /// health check reports kSwapping while the oldest pinned generation
  /// trails the store's current one.
  std::multiset<uint64_t> pinned_generations_ HYGNN_GUARDED_BY(mutex_);

  /// Touched only by Start/Shutdown/destructor (single owning thread).
  std::vector<core::WorkerThread> workers_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> retried_after_hint_{0};
};

}  // namespace hygnn::serve

#endif  // HYGNN_SERVE_SERVER_H_
