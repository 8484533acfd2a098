// Chaos-harness tests for serve::Server: injected stalls and batch
// failures (serve::FaultInjectingScorer) combined with a
// core::ManualClock drive every deadline/degradation path
// deterministically — no wall-clock sleeps, single-CPU safe:
//
//   * requests whose deadline passes while queued expire at batch
//     close with DeadlineExceeded, never scored;
//   * a deadline that passes *during* scoring withholds the stale
//     score and delivers the typed error instead;
//   * injected batch failures flow to every waiter as typed results;
//   * a warm service-time EWMA sheds doomed-deadline requests at
//     admission with a retry-after hint;
//   * shutdown during a stall drains cleanly, survivors bit-identical
//     to serial scoring;
//   * fire-and-forget submitters (dropped Pending handles) leak and
//     hang nothing — pinned under tsan and asan by scripts/check.sh;
//   * an expired waiter in a *failed* batch still gets its typed
//     DeadlineExceeded, never the batch error;
//   * stats() never transiently reports completed > accepted;
//   * serve::RunLoad reads latency from the server's admit/complete
//     stamps, not from when its submitter reaps the request.
//
// Raw std::thread is fine here (tests are exempt from the
// thread_pool-only lint rule).

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/clock.h"
#include "core/status.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "serve/chaos.h"
#include "serve/embedding_store.h"
#include "serve/loadgen.h"
#include "serve/request.h"
#include "serve/retry.h"
#include "serve/scoring.h"
#include "serve/server.h"

namespace hygnn::serve {
namespace {

/// Shared miniature corpus, same shape as ServerTest's but smaller —
/// these tests exercise control flow, not throughput, and run under
/// tsan.
class ServerChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig data_config;
    data_config.num_drugs = 40;
    data_config.seed = 909;
    auto dataset = data::GenerateDataset(data_config).value();
    data::FeaturizeConfig feat_config;
    feat_config.espf_frequency_threshold = 3;
    featurizer_ = new data::SubstructureFeaturizer(
        data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
            .value());
    auto hypergraph =
        graph::BuildDrugHypergraph(featurizer_->drug_substructures(),
                                   featurizer_->num_substructures());
    context_ = new model::HypergraphContext(
        model::HypergraphContext::FromHypergraph(hypergraph));

    core::Rng rng(13);
    model::HyGnnConfig config;
    config.encoder.hidden_dim = 8;
    config.encoder.output_dim = 8;
    config.decoder_hidden_dim = 8;
    model_ = new model::HyGnnModel(featurizer_->num_substructures(),
                                   config, &rng);
    store_ = new EmbeddingStore(model_);
    ASSERT_TRUE(store_->Rebuild(*context_).ok());
  }

  static void TearDownTestSuite() {
    delete store_;
    delete model_;
    delete context_;
    delete featurizer_;
  }

  static std::vector<ScoreRequest> MakeRequests(int32_t count) {
    const int32_t n = store_->num_drugs();
    std::vector<ScoreRequest> requests(static_cast<size_t>(count));
    for (int32_t r = 0; r < count; ++r) {
      const int32_t pairs = r % 3 + 1;
      for (int32_t i = 0; i < pairs; ++i) {
        const int32_t a = (r * 7 + i) % n;
        const int32_t b = (r * 3 + i * 11 + 1) % n;
        requests[static_cast<size_t>(r)].pairs.push_back({a, b, 0.0f});
      }
    }
    return requests;
  }

  static std::vector<float> SerialScores(const ScoreRequest& request) {
    PairScorer scorer(model_, store_);
    auto response = scorer.ScorePairs(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return std::move(response).value().scores;
  }

  static void ExpectBitIdentical(const std::vector<float>& got,
                                 const std::vector<float>& want,
                                 const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << what << ": served scores differ bitwise from serial";
  }

  /// One worker (batches close as soon as the queue empties), chaos
  /// hook installed: the canonical deterministic chaos configuration.
  static ServerOptions ChaosOptions(FaultInjectingScorer* chaos) {
    ServerOptions options;
    options.workers = 1;
    options.chaos = chaos;
    return options;
  }

  static data::SubstructureFeaturizer* featurizer_;
  static model::HypergraphContext* context_;
  static model::HyGnnModel* model_;
  static EmbeddingStore* store_;
};

data::SubstructureFeaturizer* ServerChaosTest::featurizer_ = nullptr;
model::HypergraphContext* ServerChaosTest::context_ = nullptr;
model::HyGnnModel* ServerChaosTest::model_ = nullptr;
EmbeddingStore* ServerChaosTest::store_ = nullptr;

TEST_F(ServerChaosTest, QueuedRequestExpiresAtBatchCloseWhileWorkerStalled) {
  core::ManualClock manual;
  core::ScopedClock scoped(&manual);
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  Server server(model_, store_, ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());

  const auto requests = MakeRequests(2);
  const auto serial_a = SerialScores(requests[0]);

  // Batch 1 opens with A (no deadline) and parks on the stall.
  auto a = server.SubmitAsync(requests[0]);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  chaos.AwaitStalled();

  // B (1 ms deadline) queues behind the stalled batch; its deadline
  // passes while it waits.
  ScoreRequest with_deadline = requests[1];
  with_deadline.timeout_us = 1000;
  auto b = server.SubmitAsync(with_deadline);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  manual.AdvanceMicros(2000);
  chaos.ReleaseStall();

  // A was admitted before the deadline drama and completes normally,
  // bit-identical to serial scoring.
  auto a_result = a.value()->Wait();
  ASSERT_TRUE(a_result.ok()) << a_result.status().ToString();
  ExpectBitIdentical(a_result.value().scores, serial_a, "survivor A");

  // B expires at batch close: typed DeadlineExceeded, never scored.
  auto b_result = b.value()->Wait();
  ASSERT_FALSE(b_result.ok());
  EXPECT_EQ(b_result.status().code(),
            core::StatusCode::kDeadlineExceeded);
  EXPECT_NE(b_result.status().message().find("1000"), std::string::npos);

  server.Shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  // Expired requests still count as completed: their result was
  // delivered.
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(ServerChaosTest, DeadlinePassingMidBatchWithholdsTheStaleScore) {
  core::ManualClock manual;
  core::ScopedClock scoped(&manual);
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  Server server(model_, store_, ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());

  // The request is live when its batch closes, but the batch then
  // stalls past the deadline: the score is computed and withheld.
  ScoreRequest request = MakeRequests(1)[0];
  request.timeout_us = 1000;
  auto pending = server.SubmitAsync(request);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  chaos.AwaitStalled();
  manual.AdvanceMicros(5000);
  chaos.ReleaseStall();

  auto result = pending.value()->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDeadlineExceeded);

  server.Shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.batches, 1u);  // the batch really was scored
}

TEST_F(ServerChaosTest, InjectedBatchFailureReachesEveryWaiterTyped) {
  FaultInjectingScorer chaos;
  chaos.FailNthBatch(1, core::Status::Internal("injected scorer crash"));
  ServerOptions options = ChaosOptions(&chaos);
  options.max_batch = 4096;  // coalesce all three into batch 1
  Server server(model_, store_, options);

  const auto requests = MakeRequests(3);
  std::vector<std::shared_ptr<Server::Pending>> pendings;
  for (const auto& request : requests) {
    auto pending = server.SubmitAsync(request);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    pendings.push_back(std::move(pending).value());
  }
  // Submitted before Start, so all three requests join batch 1.
  ASSERT_TRUE(server.Start().ok());
  for (size_t r = 0; r < pendings.size(); ++r) {
    auto result = pendings[r]->Wait();
    ASSERT_FALSE(result.ok()) << "request " << r << " should fail";
    EXPECT_EQ(result.status().code(), core::StatusCode::kInternal);
    EXPECT_NE(result.status().message().find("injected"),
              std::string::npos);
  }

  // The fault was one-shot: the next batch scores normally.
  const auto follow_up = MakeRequests(1)[0];
  const auto serial = SerialScores(follow_up);
  auto recovered = server.Score(follow_up);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectBitIdentical(recovered.value().scores, serial, "post-fault");

  server.Shutdown();
  EXPECT_EQ(server.stats().completed, 4u);
  EXPECT_GE(chaos.batches_started(), 2);
}

TEST_F(ServerChaosTest, InjectedStoreStaleFailureKeepsItsStatusCode) {
  FaultInjectingScorer chaos;
  chaos.FailNthBatch(1, core::Status::FailedPrecondition(
                            "embedding store went stale mid-flight"));
  Server server(model_, store_, ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());
  auto result = server.Score(MakeRequests(1)[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(),
            core::StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("stale"), std::string::npos);
  server.Shutdown();
}

TEST_F(ServerChaosTest, WarmEwmaShedsDoomedDeadlineAtAdmissionWithHint) {
  core::ManualClock manual;
  core::ScopedClock scoped(&manual);
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  Server server(model_, store_, ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());

  const auto requests = MakeRequests(3);
  // Batch 1 takes 10 ms of (manual) service time: stall it, advance,
  // release. That seeds the admission EWMA at 10000 us.
  auto a = server.SubmitAsync(requests[0]);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  chaos.AwaitStalled();
  manual.AdvanceMicros(10000);
  chaos.ReleaseStall();
  ASSERT_TRUE(a.value()->Wait().ok());
  // Waiting on a request of the *next* batch guarantees batch 1's
  // EWMA fold (which happens after its waiters complete) is done.
  ASSERT_TRUE(server.Score(requests[1]).ok());

  // A 1 ms deadline cannot be met through a ~10 ms estimated wait:
  // shed at admission, with the estimate as the retry-after hint.
  ScoreRequest doomed = requests[2];
  doomed.timeout_us = 1000;
  auto shed = server.SubmitAsync(doomed);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), core::StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("cannot be met"),
            std::string::npos);
  EXPECT_NE(shed.status().message().find("retry after ~"),
            std::string::npos);
  EXPECT_EQ(server.stats().retried_after_hint, 1u);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().expired, 0u);  // never queued, so never expired

  // The same pairs without a deadline are still served: degradation is
  // per-request, not a circuit breaker.
  auto no_deadline = server.Score(requests[2]);
  EXPECT_TRUE(no_deadline.ok()) << no_deadline.status().ToString();
  server.Shutdown();
}

TEST_F(ServerChaosTest, QueueFullShedCarriesEstimateOnceEwmaIsWarm) {
  core::ManualClock manual;
  core::ScopedClock scoped(&manual);
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  ServerOptions options = ChaosOptions(&chaos);
  options.queue_capacity = 2;
  Server server(model_, store_, options);
  ASSERT_TRUE(server.Start().ok());

  const auto requests = MakeRequests(6);
  // Warm the EWMA (batch 1 "takes" 5 ms), proven folded by waiting out
  // a batch-2 request.
  auto a = server.SubmitAsync(requests[0]);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  chaos.AwaitStalled();
  manual.AdvanceMicros(5000);
  chaos.ReleaseStall();
  ASSERT_TRUE(a.value()->Wait().ok());
  ASSERT_TRUE(server.Score(requests[1]).ok());

  // Park batch 3 and fill the queue behind it.
  chaos.StallNthBatch(3);
  auto parked = server.SubmitAsync(requests[2]);
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  chaos.AwaitStalled();
  std::vector<std::shared_ptr<Server::Pending>> queued;
  for (int32_t i = 3; i < 5; ++i) {
    auto pending = server.SubmitAsync(requests[static_cast<size_t>(i)]);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    queued.push_back(std::move(pending).value());
  }
  // Queue at capacity and EWMA warm: the shed message carries a
  // computed retry-after estimate, not the cold "backoff" fallback.
  EXPECT_EQ(server.health(), Server::Health::kDegraded);
  auto shed = server.SubmitAsync(requests[5]);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), core::StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("queue at capacity"),
            std::string::npos);
  EXPECT_NE(shed.status().message().find("retry after ~"),
            std::string::npos);
  EXPECT_GE(server.stats().retried_after_hint, 1u);

  chaos.ReleaseStall();
  ASSERT_TRUE(parked.value()->Wait().ok());
  for (const auto& pending : queued) EXPECT_TRUE(pending->Wait().ok());
  server.Shutdown();
  EXPECT_EQ(server.health(), Server::Health::kDraining);
}

TEST_F(ServerChaosTest, ShutdownDuringStallDrainsEveryWaiterTyped) {
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  ServerOptions options = ChaosOptions(&chaos);
  options.max_batch = 2;  // force several batches behind the stall
  Server server(model_, store_, options);
  ASSERT_TRUE(server.Start().ok());

  const auto requests = MakeRequests(6);
  std::vector<std::vector<float>> serial;
  for (const auto& request : requests) serial.push_back(SerialScores(request));
  std::vector<std::shared_ptr<Server::Pending>> pendings;
  for (const auto& request : requests) {
    auto pending = server.SubmitAsync(request);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    pendings.push_back(std::move(pending).value());
  }
  chaos.AwaitStalled();
  // Shutdown while a worker is parked mid-batch: it must block until
  // the stall releases, then drain every accepted request.
  std::thread closer([&server] { server.Shutdown(); });
  chaos.ReleaseStall();
  closer.join();
  for (size_t r = 0; r < pendings.size(); ++r) {
    ASSERT_TRUE(pendings[r]->done()) << "request " << r;
    auto result = pendings[r]->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitIdentical(result.value().scores, serial[r],
                       "request " + std::to_string(r));
  }
  EXPECT_EQ(server.stats().completed, pendings.size());
}

TEST_F(ServerChaosTest, ReleaseBeforeWorkerReachesStallIsNotLost) {
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  // The release lands before any batch opens: the stall must pass
  // straight through instead of parking the worker forever.
  chaos.ReleaseStall();
  Server server(model_, store_, ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.Score(MakeRequests(1)[0]).ok());
  server.Shutdown();
}

TEST_F(ServerChaosTest, FireAndForgetHandlesDroppedMidFlightDoNotHang) {
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  Server server(model_, store_, ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());
  const auto requests = MakeRequests(4);
  // Submit and immediately drop every handle — including while the
  // worker is parked, so completions land on worker-owned references
  // only. asan (leaks) and tsan (races) watch this path in CI.
  {
    auto first = server.SubmitAsync(requests[0]);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
  }
  chaos.AwaitStalled();
  for (size_t r = 1; r < requests.size(); ++r) {
    auto pending = server.SubmitAsync(requests[r]);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  }
  chaos.ReleaseStall();
  server.Shutdown();
  EXPECT_EQ(server.stats().completed, requests.size());
}

TEST_F(ServerChaosTest, FireAndForgetAcrossShutdownCompletesEverything) {
  Server server(model_, store_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const auto requests = MakeRequests(8);
  for (const auto& request : requests) {
    auto pending = server.SubmitAsync(request);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    // handle dropped here, mid-drain
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().completed, requests.size());
  EXPECT_EQ(server.stats().expired, 0u);
}

TEST_F(ServerChaosTest, ExpiredWaiterInFailedBatchGetsDeadlineExceeded) {
  core::ManualClock manual;
  core::ScopedClock scoped(&manual);
  FaultInjectingScorer chaos;
  // Stall and fail the same batch: the stall lets the test advance the
  // clock past one waiter's deadline before the injected failure
  // lands.
  chaos.StallNthBatch(1);
  chaos.FailNthBatch(1, core::Status::Internal("injected scorer crash"));
  ServerOptions options = ChaosOptions(&chaos);
  options.max_batch = 4096;  // coalesce both requests into batch 1
  Server server(model_, store_, options);

  const auto requests = MakeRequests(2);
  auto a = server.SubmitAsync(requests[0]);  // no deadline
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ScoreRequest with_deadline = requests[1];
  with_deadline.timeout_us = 1000;
  auto b = server.SubmitAsync(with_deadline);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  // Submitted before Start, so both join batch 1, which parks at open.
  ASSERT_TRUE(server.Start().ok());
  chaos.AwaitStalled();
  manual.AdvanceMicros(2000);  // B's deadline passes while parked
  chaos.ReleaseStall();

  // The live waiter gets the injected batch error, typed.
  auto a_result = a.value()->Wait();
  ASSERT_FALSE(a_result.ok());
  EXPECT_EQ(a_result.status().code(), core::StatusCode::kInternal);
  EXPECT_NE(a_result.status().message().find("injected"),
            std::string::npos);

  // The expired waiter keeps the deadline contract even though its
  // batch failed: DeadlineExceeded (what it would have observed had
  // the batch scored), not the batch error.
  auto b_result = b.value()->Wait();
  ASSERT_FALSE(b_result.ok());
  EXPECT_EQ(b_result.status().code(),
            core::StatusCode::kDeadlineExceeded);
  EXPECT_NE(b_result.status().message().find("1000"), std::string::npos);

  server.Shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(ServerChaosTest, StatsNeverReportMoreCompletedThanAccepted) {
  // Regression: accepted_ used to be bumped *after* the admission
  // critical section, so a fast worker could complete a request before
  // its acceptance was recorded and a concurrent stats() reader saw
  // completed > accepted. A poller samples the invariant continuously
  // while requests flow; tsan additionally watches the window.
  Server server(model_, store_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::thread poller([&server, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const auto stats = server.stats();
      EXPECT_LE(stats.completed, stats.accepted);
    }
  });
  const auto requests = MakeRequests(8);
  for (int32_t round = 0; round < 8; ++round) {
    for (const auto& request : requests) {
      auto result = server.Score(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  done.store(true, std::memory_order_release);
  poller.join();
  server.Shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, stats.accepted);
}

TEST_F(ServerChaosTest, LoadLatencyExcludesTimeBetweenCompletionAndReap) {
  // Regression: RunLoad stamped latency when its submitter reaped a
  // request, which it does only after sleeping until its next due
  // submission, so every latency read at least one pacing interval.
  core::ManualClock manual;
  core::ScopedClock scoped(&manual);
  FaultInjectingScorer chaos;
  // The second request's batch fails, so the first request's latency
  // is the only one sampled.
  chaos.FailNthBatch(2, core::Status::Internal("injected scorer crash"));
  Server server(model_, store_, ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());
  // Once the first request completes, a second of clock time passes
  // before its submitter, asleep until its next slot, reaps it.
  std::thread advancer([&server, &manual] {
    while (server.stats().completed == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    manual.AdvanceMicros(1000000);
  });
  // One submitter, two requests 250 ms of real time apart.
  LoadConfig load;
  load.offered_qps = 4.0;
  load.duration_seconds = 0.5;
  load.submitters = 1;
  const auto requests = MakeRequests(1);
  const LoadReport report = RunLoad(&server, requests, load);
  advancer.join();
  server.Shutdown();
  EXPECT_EQ(report.submitted, 2u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.failed, 1u);
  // Admitted and completed at the same clock time: neither the clock
  // second nor the real 250 ms before the reap is latency.
  EXPECT_EQ(report.p50_us, 0.0);
  EXPECT_EQ(report.p99_us, 0.0);
}

// ---------------------------------------------------------------------
// RetryPolicy unit tests (client-side resilience).

TEST(RetryPolicyTest, OnlyAdmissionTimeRefusalsAreRetryable) {
  EXPECT_TRUE(RetryPolicy::IsRetryable(
      core::Status::ResourceExhausted("shed")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(
      core::Status::DeadlineExceeded("cannot be met")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(core::Status::Ok()));
  EXPECT_FALSE(RetryPolicy::IsRetryable(
      core::Status::InvalidArgument("bad pair")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(
      core::Status::FailedPrecondition("shut down")));
  EXPECT_FALSE(RetryPolicy::IsRetryable(core::Status::Internal("crash")));
}

TEST(RetryPolicyTest, ZeroJitterBackoffGrowsExponentiallyToTheCap) {
  RetryOptions options;
  options.max_attempts = 5;
  options.initial_backoff_us = 100;
  options.multiplier = 2.0;
  options.max_backoff_us = 350;
  options.jitter = 0.0;
  RetryPolicy policy(options, /*seed=*/1);
  const auto shed = core::Status::ResourceExhausted("shed");
  EXPECT_EQ(policy.NextBackoffUs(shed, 1), 100);
  EXPECT_EQ(policy.NextBackoffUs(shed, 2), 200);
  EXPECT_EQ(policy.NextBackoffUs(shed, 3), 350);  // capped, not 400
  EXPECT_EQ(policy.NextBackoffUs(shed, 4), 350);
  // Attempt 5 of max_attempts 5: the request is out of tries.
  EXPECT_EQ(policy.NextBackoffUs(shed, 5), -1);
}

TEST(RetryPolicyTest, JitterDrawsStayInsideTheConfiguredBand) {
  RetryOptions options;
  options.max_attempts = 2;
  options.initial_backoff_us = 1000;
  options.jitter = 0.5;
  options.retry_budget = 1000;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    RetryPolicy policy(options, seed);
    const int64_t backoff = policy.NextBackoffUs(
        core::Status::ResourceExhausted("shed"), 1);
    EXPECT_GE(backoff, 500) << "seed " << seed;
    EXPECT_LE(backoff, 1000) << "seed " << seed;
  }
}

TEST(RetryPolicyTest, SameSeedSameSchedule) {
  RetryOptions options;
  options.max_attempts = 4;
  options.jitter = 0.7;
  RetryPolicy left(options, 42);
  RetryPolicy right(options, 42);
  const auto shed = core::Status::ResourceExhausted("shed");
  for (int32_t attempt = 1; attempt <= 3; ++attempt) {
    EXPECT_EQ(left.NextBackoffUs(shed, attempt),
              right.NextBackoffUs(shed, attempt))
        << "attempt " << attempt;
  }
}

TEST(RetryPolicyTest, BudgetExhaustionStopsGrantingRetries) {
  RetryOptions options;
  options.max_attempts = 10;
  options.retry_budget = 2;
  RetryPolicy policy(options, 7);
  const auto shed = core::Status::ResourceExhausted("shed");
  EXPECT_GE(policy.NextBackoffUs(shed, 1), 0);
  EXPECT_GE(policy.NextBackoffUs(shed, 1), 0);
  EXPECT_EQ(policy.NextBackoffUs(shed, 1), -1);  // budget spent
  EXPECT_EQ(policy.retries_granted(), 2);
}

TEST(RetryPolicyTest, NonRetryableStatusConsumesNoBudget) {
  RetryOptions options;
  options.retry_budget = 5;
  RetryPolicy policy(options, 3);
  EXPECT_EQ(policy.NextBackoffUs(core::Status::Internal("crash"), 1), -1);
  EXPECT_EQ(policy.retries_granted(), 0);
}

TEST(RetryPolicyTest, OptionsValidateNamesEachBadKnob) {
  EXPECT_TRUE(RetryOptions{}.Validate().ok());
  RetryOptions bad_attempts;
  bad_attempts.max_attempts = 0;
  auto s = bad_attempts.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("max_attempts"), std::string::npos);
  RetryOptions bad_range;
  bad_range.initial_backoff_us = 100;
  bad_range.max_backoff_us = 50;
  EXPECT_FALSE(bad_range.Validate().ok());
  RetryOptions bad_multiplier;
  bad_multiplier.multiplier = 0.5;
  EXPECT_FALSE(bad_multiplier.Validate().ok());
  RetryOptions bad_jitter;
  bad_jitter.jitter = 1.5;
  EXPECT_FALSE(bad_jitter.Validate().ok());
  RetryOptions bad_budget;
  bad_budget.retry_budget = -1;
  EXPECT_FALSE(bad_budget.Validate().ok());
}

}  // namespace
}  // namespace hygnn::serve
