// Epoch-based hot catalog swap tests: serve::EmbeddingStore publishes
// immutable StoreSnapshots through an atomic handle, and serve::Server
// pins one snapshot per batch, so AddDrug/Rebuild/Invalidate while
// Started never quiesce serving:
//
//   * a snapshot pinned before a swap keeps its generation, catalog
//     size, and exact bytes while the store moves on;
//   * scores of pre-existing pairs are bit-identical across an AddDrug
//     publication (rows are byte-copied into each new epoch);
//   * a batch pinned to epoch N completes correctly — against N's
//     bytes — after N+1 publishes mid-batch, with Health() reporting
//     the brief kSwapping transition;
//   * requests validated against epoch N but scored under a shrunken
//     or invalidated epoch get a typed error, never a torn score;
//   * superseded snapshots are reclaimed exactly when their last
//     pinned batch drains (grace period = shared_ptr refcount),
//     observed via StoreSnapshot::LiveCount and weak_ptr expiry;
//   * concurrent AddDrug against live serving is race-free (tsan runs
//     this file in CI) and kDegraded keeps precedence over kSwapping.
//
// Raw std::thread is fine here (tests are exempt from the
// thread_pool-only lint rule).

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
#include "serve/request.h"
#include "serve/scoring.h"
#include "serve/server.h"

namespace hygnn::serve {
namespace {

/// Shared read-only corpus (same shape as ServerChaosTest's). The
/// store is NOT shared: every test builds its own, because these tests
/// mutate the catalog.
class ServerSwapTest : public ::testing::Test {
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
  }

  static void TearDownTestSuite() {
    delete model_;
    delete context_;
    delete featurizer_;
  }

  /// A fresh valid store over the full 40-drug corpus.
  static std::unique_ptr<EmbeddingStore> MakeStore() {
    auto store = std::make_unique<EmbeddingStore>(model_);
    EXPECT_TRUE(store->Rebuild(*context_).ok());
    return store;
  }

  static std::vector<ScoreRequest> MakeRequests(int32_t count,
                                                int32_t catalog) {
    std::vector<ScoreRequest> requests(static_cast<size_t>(count));
    for (int32_t r = 0; r < count; ++r) {
      const int32_t pairs = r % 3 + 1;
      for (int32_t i = 0; i < pairs; ++i) {
        const int32_t a = (r * 7 + i) % catalog;
        const int32_t b = (r * 3 + i * 11 + 1) % catalog;
        requests[static_cast<size_t>(r)].pairs.push_back({a, b, 0.0f});
      }
    }
    return requests;
  }

  /// Substructure ids of corpus drug `i` — valid encoder input, so
  /// AddDrug always succeeds.
  static const std::vector<int32_t>& Substructures(size_t i) {
    const auto& subs = featurizer_->drug_substructures();
    return subs[i % subs.size()];
  }

  static void ExpectBitIdentical(const std::vector<float>& got,
                                 const std::vector<float>& want,
                                 const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << what << ": scores differ bitwise across the swap";
  }

  /// One worker, chaos hook installed.
  static ServerOptions ChaosOptions(FaultInjectingScorer* chaos) {
    ServerOptions options;
    options.workers = 1;
    options.chaos = chaos;
    return options;
  }

  static data::SubstructureFeaturizer* featurizer_;
  static model::HypergraphContext* context_;
  static model::HyGnnModel* model_;
};

data::SubstructureFeaturizer* ServerSwapTest::featurizer_ = nullptr;
model::HypergraphContext* ServerSwapTest::context_ = nullptr;
model::HyGnnModel* ServerSwapTest::model_ = nullptr;

// ---------------------------------------------------------------------
// Store-level snapshot semantics.

TEST_F(ServerSwapTest, PinnedSnapshotKeepsItsViewAcrossPublications) {
  auto store = MakeStore();
  const auto pinned = store->Snapshot();
  ASSERT_NE(pinned, nullptr);
  const int32_t old_drugs = pinned->num_drugs();
  const uint64_t old_generation = pinned->generation();
  // Copy one row's bytes to compare after the swap.
  std::vector<float> row0(static_cast<size_t>(pinned->dim()));
  std::memcpy(row0.data(), pinned->Row(0), row0.size() * sizeof(float));

  auto added = store->AddDrug(Substructures(0));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value(), old_drugs);  // appended, ids stable

  // The store moved on...
  const auto current = store->Snapshot();
  ASSERT_NE(current, nullptr);
  EXPECT_GT(store->generation(), old_generation);
  EXPECT_EQ(current->num_drugs(), old_drugs + 1);
  // ...but the pinned epoch is frozen: same generation, same catalog,
  // same bytes.
  EXPECT_EQ(pinned->generation(), old_generation);
  EXPECT_EQ(pinned->num_drugs(), old_drugs);
  EXPECT_EQ(std::memcmp(pinned->Row(0), row0.data(),
                        row0.size() * sizeof(float)),
            0);
  // And the new epoch byte-copied every pre-existing row.
  EXPECT_EQ(std::memcmp(current->Row(0), pinned->Row(0),
                        static_cast<size_t>(old_drugs) *
                            static_cast<size_t>(pinned->dim()) *
                            sizeof(float)),
            0);
}

TEST_F(ServerSwapTest, GenerationBumpsOnEveryPublication) {
  auto store = MakeStore();
  const uint64_t after_rebuild = store->generation();
  ASSERT_TRUE(store->AddDrug(Substructures(1)).ok());
  const uint64_t after_add = store->generation();
  EXPECT_GT(after_add, after_rebuild);
  store->Invalidate();
  const uint64_t after_invalidate = store->generation();
  EXPECT_GT(after_invalidate, after_add);
  // Invalidate publishes the null (stale) epoch.
  EXPECT_EQ(store->Snapshot(), nullptr);
  EXPECT_FALSE(store->valid());
  EXPECT_EQ(store->num_drugs(), 0);
  ASSERT_TRUE(store->Rebuild(*context_).ok());
  EXPECT_GT(store->generation(), after_invalidate);
  EXPECT_TRUE(store->valid());
}

TEST_F(ServerSwapTest, SupersededSnapshotReclaimedWhenLastPinDrops) {
  auto store = MakeStore();
  const int64_t live_before = StoreSnapshot::LiveCount();
  std::weak_ptr<const StoreSnapshot> old_epoch = store->Snapshot();
  ASSERT_FALSE(old_epoch.expired());
  {
    // A pinned reader holds the old epoch across the swap.
    const auto pinned = store->Snapshot();
    ASSERT_TRUE(store->AddDrug(Substructures(2)).ok());
    EXPECT_FALSE(old_epoch.expired());
    EXPECT_EQ(StoreSnapshot::LiveCount(), live_before + 1);
  }
  // Last pin dropped: the grace period ends and the buffer is freed.
  EXPECT_TRUE(old_epoch.expired());
  EXPECT_EQ(StoreSnapshot::LiveCount(), live_before);
}

// ---------------------------------------------------------------------
// Serving through a swap.

TEST_F(ServerSwapTest, AddDrugWhileStartedPreservesServedScoresBitwise) {
  auto store = MakeStore();
  const auto requests = MakeRequests(6, store->num_drugs());
  PairScorer serial(model_, store.get());
  std::vector<std::vector<float>> before;
  for (const auto& request : requests) {
    before.push_back(serial.ScorePairs(request).value().scores);
  }

  Server server(model_, store.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  // Mutate the catalog while the server is live — no shutdown, no
  // quiesce.
  for (int32_t i = 0; i < 3; ++i) {
    auto added = store->AddDrug(Substructures(static_cast<size_t>(i)));
    ASSERT_TRUE(added.ok()) << added.status().ToString();
  }
  for (size_t r = 0; r < requests.size(); ++r) {
    auto served = server.Score(requests[r]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectBitIdentical(served.value().scores, before[r],
                       "request " + std::to_string(r));
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().completed, requests.size());
}

TEST_F(ServerSwapTest, BatchPinnedToOldEpochCompletesAfterSwapPublishes) {
  auto store = MakeStore();
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  Server server(model_, store.get(), ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());

  const auto request = MakeRequests(1, store->num_drugs())[0];
  auto pending = server.SubmitAsync(request);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  chaos.AwaitStalled();

  // The batch pinned its epoch before parking. Publish the next epoch
  // underneath it.
  const auto old_epoch = store->Snapshot();
  ASSERT_TRUE(store->AddDrug(Substructures(3)).ok());
  ASSERT_GT(store->generation(), old_epoch->generation());
  // The brief swap transition is visible while the old-epoch batch is
  // still in flight.
  EXPECT_EQ(server.health(), Server::Health::kSwapping);

  chaos.ReleaseStall();
  auto result = pending.value()->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The batch scored against the epoch it pinned, not the new one.
  PairScorer scorer(model_, store.get());
  auto expected = scorer.ScorePairs(request, old_epoch);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ExpectBitIdentical(result.value().scores, expected.value().scores,
                     "old-epoch batch");

  // A follow-up batch (same single worker) proves the stalled batch
  // fully drained; the transition is over.
  ASSERT_TRUE(server.Score(request).ok());
  EXPECT_EQ(server.health(), Server::Health::kServing);
  server.Shutdown();
}

TEST_F(ServerSwapTest, SwapUnderDeadlinePressureKeepsBothContracts) {
  core::ManualClock manual;
  core::ScopedClock scoped(&manual);
  auto store = MakeStore();
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  Server server(model_, store.get(), ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());

  const auto requests = MakeRequests(2, store->num_drugs());
  // Batch 1 opens with A (no deadline) and parks.
  auto a = server.SubmitAsync(requests[0]);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  chaos.AwaitStalled();
  // B (1 ms deadline) queues behind the stall; then the catalog swaps
  // and B's deadline passes — swap pressure and deadline pressure at
  // once.
  ScoreRequest with_deadline = requests[1];
  with_deadline.timeout_us = 1000;
  auto b = server.SubmitAsync(with_deadline);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const auto old_epoch = store->Snapshot();
  ASSERT_TRUE(store->AddDrug(Substructures(4)).ok());
  manual.AdvanceMicros(2000);
  chaos.ReleaseStall();

  // A still completes against its pinned pre-swap epoch.
  auto a_result = a.value()->Wait();
  ASSERT_TRUE(a_result.ok()) << a_result.status().ToString();
  PairScorer scorer(model_, store.get());
  ExpectBitIdentical(
      a_result.value().scores,
      scorer.ScorePairs(requests[0], old_epoch).value().scores,
      "pinned survivor");
  // B's deadline contract is untouched by the swap: typed expiry.
  auto b_result = b.value()->Wait();
  ASSERT_FALSE(b_result.ok());
  EXPECT_EQ(b_result.status().code(),
            core::StatusCode::kDeadlineExceeded);

  server.Shutdown();
  EXPECT_EQ(server.stats().expired, 1u);
}

TEST_F(ServerSwapTest, RequestValidatedAgainstOldEpochGetsTypedError) {
  // A request admitted under the 40-drug epoch but scored under a
  // shrunken one must get a typed error, never a torn or out-of-bounds
  // score. The shrink happens between SubmitAsync and Start, so the
  // batch pins the small epoch.
  auto store = MakeStore();
  Server server(model_, store.get(), ServerOptions{});
  ScoreRequest request;
  request.pairs.push_back({store->num_drugs() - 1, 0, 0.0f});
  auto pending = server.SubmitAsync(request);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();

  // Rebuild over the first half of the corpus: same substructure
  // vocabulary, smaller catalog.
  const auto& all_subs = featurizer_->drug_substructures();
  std::vector<std::vector<int32_t>> half(
      all_subs.begin(),
      all_subs.begin() + static_cast<ptrdiff_t>(all_subs.size() / 2));
  auto small_graph = graph::BuildDrugHypergraph(
      half, featurizer_->num_substructures());
  auto small_context =
      model::HypergraphContext::FromHypergraph(small_graph);
  ASSERT_TRUE(store->Rebuild(small_context).ok());

  ASSERT_TRUE(server.Start().ok());
  auto result = pending.value()->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("outside catalog"),
            std::string::npos);
  server.Shutdown();
}

TEST_F(ServerSwapTest, RequestScoredUnderInvalidatedEpochGetsTypedError) {
  auto store = MakeStore();
  Server server(model_, store.get(), ServerOptions{});
  auto pending =
      server.SubmitAsync(MakeRequests(1, store->num_drugs())[0]);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  // The store goes stale (weight reload) before the batch opens: the
  // batch pins the null epoch and fails typed.
  store->Invalidate();
  ASSERT_TRUE(server.Start().ok());
  auto result = pending.value()->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(),
            core::StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("stale"), std::string::npos);
  // New admissions are refused at the door while stale...
  auto refused = server.SubmitAsync(MakeRequests(1, 40)[0]);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(),
            core::StatusCode::kFailedPrecondition);
  // ...and a Rebuild restores serving with no restart.
  ASSERT_TRUE(store->Rebuild(*context_).ok());
  EXPECT_TRUE(server.Score(MakeRequests(1, store->num_drugs())[0]).ok());
  server.Shutdown();
}

TEST_F(ServerSwapTest, OldEpochReclaimedExactlyWhenPinnedBatchDrains) {
  auto store = MakeStore();
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  Server server(model_, store.get(), ChaosOptions(&chaos));
  ASSERT_TRUE(server.Start().ok());

  const auto request = MakeRequests(1, store->num_drugs())[0];
  std::weak_ptr<const StoreSnapshot> old_epoch = store->Snapshot();
  const int64_t live_before = StoreSnapshot::LiveCount();
  auto pending = server.SubmitAsync(request);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  chaos.AwaitStalled();

  ASSERT_TRUE(store->AddDrug(Substructures(5)).ok());
  // Grace period: the stalled batch still pins the superseded epoch.
  EXPECT_FALSE(old_epoch.expired());
  EXPECT_EQ(StoreSnapshot::LiveCount(), live_before + 1);

  chaos.ReleaseStall();
  ASSERT_TRUE(pending.value()->Wait().ok());
  // The waiter completing doesn't end the grace period — the worker
  // frame does. A follow-up blocking Score on the single worker
  // guarantees that frame unwound.
  ASSERT_TRUE(server.Score(request).ok());
  EXPECT_TRUE(old_epoch.expired());
  EXPECT_EQ(StoreSnapshot::LiveCount(), live_before);
  server.Shutdown();
}

TEST_F(ServerSwapTest, ConcurrentAddDrugWhileServingIsRaceFree) {
  // tsan pins this path in CI: submitters score pre-existing pairs
  // while a mutator publishes epochs as fast as it can. No locks are
  // shared between the read side (atomic snapshot load) and scoring.
  auto store = MakeStore();
  const auto requests = MakeRequests(4, store->num_drugs());
  PairScorer serial(model_, store.get());
  std::vector<std::vector<float>> before;
  for (const auto& request : requests) {
    before.push_back(serial.ScorePairs(request).value().scores);
  }
  Server server(model_, store.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  std::thread mutator([&store] {
    for (int32_t i = 0; i < 8; ++i) {
      auto added = store->AddDrug(Substructures(static_cast<size_t>(i)));
      ASSERT_TRUE(added.ok()) << added.status().ToString();
    }
  });
  for (int32_t round = 0; round < 8; ++round) {
    for (size_t r = 0; r < requests.size(); ++r) {
      auto served = server.Score(requests[r]);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ExpectBitIdentical(served.value().scores, before[r],
                         "round " + std::to_string(round) + " request " +
                             std::to_string(r));
    }
  }
  mutator.join();
  server.Shutdown();
  EXPECT_EQ(store->num_drugs(), 48);
  EXPECT_EQ(server.stats().completed, server.stats().accepted);
}

TEST_F(ServerSwapTest, DegradedHealthKeepsPrecedenceOverSwapping) {
  auto store = MakeStore();
  FaultInjectingScorer chaos;
  chaos.StallNthBatch(1);
  ServerOptions options = ChaosOptions(&chaos);
  options.queue_capacity = 2;
  Server server(model_, store.get(), options);
  ASSERT_TRUE(server.Start().ok());

  const auto requests = MakeRequests(3, store->num_drugs());
  auto parked = server.SubmitAsync(requests[0]);
  ASSERT_TRUE(parked.ok()) << parked.status().ToString();
  chaos.AwaitStalled();
  // Fill the queue to the degradation threshold behind the stall.
  auto queued = server.SubmitAsync(requests[1]);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  ASSERT_EQ(server.health(), Server::Health::kDegraded);

  // A swap while degraded: queue pressure outranks the transition.
  ASSERT_TRUE(store->AddDrug(Substructures(6)).ok());
  EXPECT_EQ(server.health(), Server::Health::kDegraded);

  chaos.ReleaseStall();
  ASSERT_TRUE(parked.value()->Wait().ok());
  ASSERT_TRUE(queued.value()->Wait().ok());
  server.Shutdown();
  EXPECT_EQ(server.health(), Server::Health::kDraining);
}

}  // namespace
}  // namespace hygnn::serve
