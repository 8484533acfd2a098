// serve::Server pipeline tests: admission control, work-conserving
// batching (an idle worker scores at once; what queues while it is busy
// coalesces), determinism (per-request results bit-identical to serial
// scoring for every batch composition), shutdown drain, and typed
// errors.
//
// Raw std::thread is fine here (tests are exempt from the
// thread_pool-only lint rule) and is used deliberately so submitter
// threads do not share any machinery with the server under test.

#include <cstring>
#include <memory>
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
#include "serve/request.h"
#include "serve/scoring.h"
#include "serve/server.h"

namespace hygnn::serve {
namespace {

/// Shared miniature corpus, same shape as ServeTest's: generate ->
/// featurize -> hypergraph, whole catalog served.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig data_config;
    data_config.num_drugs = 60;
    data_config.seed = 707;
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

    core::Rng rng(11);
    model::HyGnnConfig config;
    config.encoder.hidden_dim = 16;
    config.encoder.output_dim = 12;
    config.decoder_hidden_dim = 10;
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

  /// Deterministic request pool: request r holds r%5+1 pairs, so a mix
  /// of sizes lands in every batch.
  static std::vector<ScoreRequest> MakeRequests(int32_t count) {
    const int32_t n = store_->num_drugs();
    std::vector<ScoreRequest> requests(static_cast<size_t>(count));
    for (int32_t r = 0; r < count; ++r) {
      const int32_t pairs = r % 5 + 1;
      for (int32_t i = 0; i < pairs; ++i) {
        const int32_t a = (r * 7 + i) % n;
        const int32_t b = (r * 3 + i * 11 + 1) % n;
        requests[static_cast<size_t>(r)].pairs.push_back({a, b, 0.0f});
      }
    }
    return requests;
  }

  /// Serial reference scores, one ScorePairs call per request.
  static std::vector<std::vector<float>> SerialScores(
      const std::vector<ScoreRequest>& requests) {
    PairScorer scorer(model_, store_);
    std::vector<std::vector<float>> scores;
    for (const auto& request : requests) {
      auto response = scorer.ScorePairs(request);
      EXPECT_TRUE(response.ok()) << response.status().ToString();
      scores.push_back(std::move(response).value().scores);
    }
    return scores;
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

  static data::SubstructureFeaturizer* featurizer_;
  static model::HypergraphContext* context_;
  static model::HyGnnModel* model_;
  static EmbeddingStore* store_;
};

data::SubstructureFeaturizer* ServerTest::featurizer_ = nullptr;
model::HypergraphContext* ServerTest::context_ = nullptr;
model::HyGnnModel* ServerTest::model_ = nullptr;
EmbeddingStore* ServerTest::store_ = nullptr;

TEST_F(ServerTest, OptionsValidateNamesEachBadKnob) {
  EXPECT_TRUE(ServerOptions{}.Validate().ok());
  ServerOptions bad_queue;
  bad_queue.queue_capacity = 0;
  auto s = bad_queue.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("queue_capacity"), std::string::npos);
  ServerOptions bad_batch;
  bad_batch.max_batch = -3;
  s = bad_batch.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("-3"), std::string::npos);
  ServerOptions bad_workers;
  bad_workers.workers = 0;
  EXPECT_FALSE(bad_workers.Validate().ok());
}

TEST_F(ServerTest, StartSurfacesInvalidOptions) {
  ServerOptions options;
  options.workers = 0;
  Server server(model_, store_, options);
  auto s = server.Start();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), core::StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, SubmitBeforeStartQueuesThenDrains) {
  const auto requests = MakeRequests(6);
  const auto serial = SerialScores(requests);
  Server server(model_, store_, ServerOptions{});
  std::vector<std::shared_ptr<Server::Pending>> pendings;
  for (const auto& request : requests) {
    auto pending = server.SubmitAsync(request);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    pendings.push_back(std::move(pending).value());
  }
  for (const auto& pending : pendings) EXPECT_FALSE(pending->done());
  ASSERT_TRUE(server.Start().ok());
  for (size_t r = 0; r < pendings.size(); ++r) {
    auto result = pendings[r]->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitIdentical(result.value().scores, serial[r],
                       "request " + std::to_string(r));
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().completed, pendings.size());
}

TEST_F(ServerTest, ShedsWithTypedErrorWhenQueueSaturates) {
  ServerOptions options;
  options.queue_capacity = 4;
  Server server(model_, store_, options);
  const auto requests = MakeRequests(5);
  std::vector<std::shared_ptr<Server::Pending>> pendings;
  // Workers have not started: exactly queue_capacity requests fit.
  for (int32_t i = 0; i < 4; ++i) {
    auto pending = server.SubmitAsync(requests[static_cast<size_t>(i)]);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    pendings.push_back(std::move(pending).value());
  }
  auto shed = server.SubmitAsync(requests[4]);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), core::StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("queue"), std::string::npos);
  EXPECT_EQ(server.stats().shed, 1u);
  EXPECT_EQ(server.stats().accepted, 4u);

  // Draining restores admission: the same request is accepted once
  // workers free queue slots.
  ASSERT_TRUE(server.Start().ok());
  for (const auto& pending : pendings) {
    EXPECT_TRUE(pending->Wait().ok());
  }
  auto retried = server.Score(requests[4]);
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
  server.Shutdown();
}

TEST_F(ServerTest, BatchCompositionNeverChangesScoresBitwise) {
  const auto requests = MakeRequests(24);
  const auto serial = SerialScores(requests);

  // Two adversarial batching regimes: every request alone
  // (max_batch=1) and a multi-worker scramble. Both must reproduce
  // serial bit-for-bit. Full coalescing is pinned deterministically by
  // CoalescesWhatQueuedWhileTheWorkerWasBusy.
  std::vector<ServerOptions> regimes(2);
  regimes[0].max_batch = 1;
  regimes[1].max_batch = 8;
  regimes[1].workers = 4;

  for (size_t regime = 0; regime < regimes.size(); ++regime) {
    Server server(model_, store_, regimes[regime]);
    ASSERT_TRUE(server.Start().ok());
    std::vector<std::shared_ptr<Server::Pending>> pendings;
    for (const auto& request : requests) {
      auto pending = server.SubmitAsync(request);
      ASSERT_TRUE(pending.ok()) << pending.status().ToString();
      pendings.push_back(std::move(pending).value());
    }
    for (size_t r = 0; r < pendings.size(); ++r) {
      auto result = pendings[r]->Wait();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectBitIdentical(result.value().scores, serial[r],
                         "regime " + std::to_string(regime) + " request " +
                             std::to_string(r));
    }
    server.Shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, requests.size());
    if (regime == 0) {
      // max_batch=1 forbids coalescing: one batch per request.
      EXPECT_EQ(stats.batches, requests.size());
    }
  }
}

TEST_F(ServerTest, CoalescesWhatQueuedWhileTheWorkerWasBusy) {
  // Nine requests of eight pairs: the first stalls batch 1, and the
  // eight queued behind it fill exactly one default max_batch (64).
  const int32_t n = store_->num_drugs();
  std::vector<ScoreRequest> requests(9);
  for (int32_t r = 0; r < 9; ++r) {
    for (int32_t i = 0; i < 8; ++i) {
      requests[static_cast<size_t>(r)].pairs.push_back(
          {(r * 5 + i) % n, (r * 13 + i * 7 + 1) % n, 0.0f});
    }
  }
  const auto serial = SerialScores(requests);

  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  ServerOptions options;
  options.chaos = &chaos;
  Server server(model_, store_, options);
  ASSERT_TRUE(server.Start().ok());
  // Batch 1 is the first request alone, parked on the stall: the idle
  // worker closed it at once rather than waiting for company.
  std::vector<std::shared_ptr<Server::Pending>> pendings;
  auto first = server.SubmitAsync(requests[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  pendings.push_back(std::move(first).value());
  chaos.AwaitStalled();
  // Everything queued while the worker is busy forms one batch.
  for (size_t r = 1; r < requests.size(); ++r) {
    auto pending = server.SubmitAsync(requests[r]);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    pendings.push_back(std::move(pending).value());
  }
  chaos.ReleaseStall();
  for (size_t r = 0; r < pendings.size(); ++r) {
    auto result = pendings[r]->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitIdentical(result.value().scores, serial[r],
                       "request " + std::to_string(r));
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().batches, 2u);
  EXPECT_EQ(server.stats().completed, requests.size());
}

TEST_F(ServerTest, LoneClosedLoopRequestFormsItsOwnBatch) {
  const auto requests = MakeRequests(3);
  const auto serial = SerialScores(requests);
  Server server(model_, store_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  for (size_t r = 0; r < requests.size(); ++r) {
    auto result = server.Score(requests[r]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitIdentical(result.value().scores, serial[r],
                       "request " + std::to_string(r));
    EXPECT_EQ(server.stats().batches, r + 1);
  }
  server.Shutdown();
}

TEST_F(ServerTest, PendingStampsAdmitAndCompleteOnTheClockSeam) {
  core::ManualClock manual(5000);
  core::ScopedClock scoped(&manual);
  Server server(model_, store_, ServerOptions{});
  auto pending = server.SubmitAsync(MakeRequests(1)[0]);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  EXPECT_EQ(pending.value()->admitted_nanos(), 5000u);
  EXPECT_EQ(pending.value()->completed_nanos(), 0u);
  manual.AdvanceMicros(700);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(pending.value()->Wait().ok());
  // Time that passes after delivery does not move the stamp.
  manual.AdvanceMicros(9000);
  EXPECT_EQ(pending.value()->completed_nanos() -
                pending.value()->admitted_nanos(),
            700000u);
  server.Shutdown();
}

TEST_F(ServerTest, ConcurrentSubmittersEachGetTheirOwnScores) {
  const int32_t kThreads = 4;
  const int32_t kPerThread = 16;
  const auto requests = MakeRequests(kThreads * kPerThread);
  const auto serial = SerialScores(requests);

  ServerOptions options;
  options.workers = 2;
  options.max_batch = 16;
  Server server(model_, store_, options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<int32_t> mismatches(static_cast<size_t>(kThreads), 0);
  std::vector<std::thread> submitters;
  for (int32_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int32_t i = 0; i < kPerThread; ++i) {
        const size_t r = static_cast<size_t>(t * kPerThread + i);
        auto result = server.Score(requests[r]);
        if (!result.ok() ||
            result.value().scores.size() != serial[r].size() ||
            std::memcmp(result.value().scores.data(), serial[r].data(),
                        serial[r].size() * sizeof(float)) != 0) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  server.Shutdown();
  for (int32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_EQ(server.stats().completed,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(ServerTest, ShutdownDrainsEveryAcceptedRequest) {
  Server server(model_, store_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const auto requests = MakeRequests(12);
  std::vector<std::shared_ptr<Server::Pending>> pendings;
  for (const auto& request : requests) {
    auto pending = server.SubmitAsync(request);
    ASSERT_TRUE(pending.ok()) << pending.status().ToString();
    pendings.push_back(std::move(pending).value());
  }
  server.Shutdown();
  for (const auto& pending : pendings) {
    ASSERT_TRUE(pending->done());
    EXPECT_TRUE(pending->Wait().ok());
  }
  EXPECT_EQ(server.stats().completed, pendings.size());
}

TEST_F(ServerTest, SubmitAfterShutdownIsRefused) {
  Server server(model_, store_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  server.Shutdown();
  auto refused = server.SubmitAsync(MakeRequests(1)[0]);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(),
            core::StatusCode::kFailedPrecondition);
  // Idempotent: a second Shutdown is a no-op, and Start after Shutdown
  // is refused rather than resurrecting the pipeline.
  server.Shutdown();
  EXPECT_FALSE(server.Start().ok());
}

TEST_F(ServerTest, NeverStartedServerFailsOrphansInsteadOfHanging) {
  std::shared_ptr<Server::Pending> orphan;
  {
    Server server(model_, store_, ServerOptions{});
    auto pending = server.SubmitAsync(MakeRequests(1)[0]);
    ASSERT_TRUE(pending.ok());
    orphan = std::move(pending).value();
  }
  ASSERT_TRUE(orphan->done());
  auto result = orphan->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(),
            core::StatusCode::kFailedPrecondition);
}

TEST_F(ServerTest, EmptyRequestYieldsEmptyResponse) {
  Server server(model_, store_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto result = server.Score(ScoreRequest{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().scores.empty());
  server.Shutdown();
}

TEST_F(ServerTest, OutOfCatalogPairRefusedAtAdmission) {
  Server server(model_, store_, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ScoreRequest bad;
  bad.pairs.push_back({0, store_->num_drugs(), 0.0f});
  auto refused = server.SubmitAsync(bad);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find(
                std::to_string(store_->num_drugs())),
            std::string::npos);
  EXPECT_EQ(server.stats().accepted, 0u);
  server.Shutdown();
}

TEST_F(ServerTest, StaleStoreRefusedAtAdmission) {
  EmbeddingStore stale(model_);  // never Rebuilt
  Server server(model_, &stale, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ScoreRequest request;
  request.pairs.push_back({0, 1, 0.0f});
  auto refused = server.SubmitAsync(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(),
            core::StatusCode::kFailedPrecondition);
  server.Shutdown();
}

TEST_F(ServerTest, ResourceExhaustedCodeIsDistinctAndNamed) {
  const auto status = core::Status::ResourceExhausted("queue full");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), core::StatusCode::kResourceExhausted);
  EXPECT_EQ(status.ToString(), "ResourceExhausted: queue full");
}

TEST_F(ServerTest, QueuedDeadlineExpiresUnderManualClockWithoutScoring) {
  core::ManualClock manual;
  core::ScopedClock scoped(&manual);
  Server server(model_, store_, ServerOptions{});
  // Queue before Start so the deadline provably passes while the
  // request waits — no chaos hook, no wall-clock sleeps.
  ScoreRequest request = MakeRequests(1)[0];
  request.timeout_us = 500;
  auto pending = server.SubmitAsync(request);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  manual.AdvanceMicros(501);
  ASSERT_TRUE(server.Start().ok());
  auto result = pending.value()->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kDeadlineExceeded);
  server.Shutdown();
  EXPECT_EQ(server.stats().expired, 1u);
  EXPECT_EQ(server.stats().batches, 0u);  // expired at batch close, unscored
}

TEST_F(ServerTest, ZeroTimeoutMeansNoDeadline) {
  core::ManualClock manual;
  core::ScopedClock scoped(&manual);
  Server server(model_, store_, ServerOptions{});
  ScoreRequest request = MakeRequests(1)[0];
  request.timeout_us = 0;
  auto pending = server.SubmitAsync(request);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  // An eternity passes while queued; without a deadline the request
  // still scores.
  manual.AdvanceMicros(int64_t{1} << 40);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(pending.value()->Wait().ok());
  server.Shutdown();
  EXPECT_EQ(server.stats().expired, 0u);
}

TEST_F(ServerTest, NegativeTimeoutRefusedAtSubmit) {
  Server server(model_, store_, ServerOptions{});
  ScoreRequest request = MakeRequests(1)[0];
  request.timeout_us = -5;
  auto refused = server.SubmitAsync(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("timeout_us"),
            std::string::npos);
  EXPECT_EQ(server.stats().accepted, 0u);
}

TEST_F(ServerTest, WaitForBoundsTheWaitAndKeepsTheRequestInFlight) {
  // Never-started server: the result cannot arrive, so WaitFor must
  // give up on its own.
  Server server(model_, store_, ServerOptions{});
  auto pending = server.SubmitAsync(MakeRequests(1)[0]);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  // Non-positive timeout is a poll.
  auto poll = pending.value()->WaitFor(0);
  ASSERT_FALSE(poll.ok());
  EXPECT_EQ(poll.status().code(), core::StatusCode::kDeadlineExceeded);
  auto timed_out = pending.value()->WaitFor(1000);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(),
            core::StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(pending.value()->done());  // still in flight, not failed
  // Once the result exists, WaitFor returns it like Wait.
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(pending.value()->Wait().ok());
  EXPECT_TRUE(pending.value()->WaitFor(1).ok());
  server.Shutdown();
}

TEST_F(ServerTest, HealthTracksQueuePressureAndShutdown) {
  ServerOptions options;
  options.queue_capacity = 4;
  Server server(model_, store_, options);
  EXPECT_EQ(server.health(), Server::Health::kServing);
  // Workers not started: queued requests pile up deterministically.
  const auto requests = MakeRequests(2);
  for (const auto& request : requests) {
    ASSERT_TRUE(server.SubmitAsync(request).ok());
  }
  // 2 of 4 slots used = half full: degraded.
  EXPECT_EQ(server.health(), Server::Health::kDegraded);
  ASSERT_TRUE(server.Start().ok());
  server.Shutdown();
  EXPECT_EQ(server.health(), Server::Health::kDraining);
}

}  // namespace
}  // namespace hygnn::serve
