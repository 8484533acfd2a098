// SLO load test for the serve::Server request pipeline: measures the
// pipeline's closed-loop capacity, then offers open-loop load at
// several fractions/multiples of it and reports sustained QPS,
// end-to-end latency percentiles (p50/p95/p99), and how many requests
// admission control shed at each level, into BENCH_load.json
// (override with --json_out=PATH). A second sweep holds offered load
// at 1x capacity and tightens per-request deadlines (none, 10 ms,
// 1 ms) with client retries on, reporting the completed/shed/expired/
// retried breakdown at each deadline.
//
// Before any load runs, every pooled request is scored once through
// the server and once serially through PairScorer::ScorePairs; the two
// must be bit-identical (memcmp) or the bench exits 1 — dynamic
// batching is only allowed to change *when* a pair is scored, never
// its value.
//
// Latency is read from the server's admit/complete stamps
// (serve::RunLoad), so it does not depend on when a submitter gets
// round to collecting a result. The JSON records its provenance: git
// sha (and whether the tree had uncommitted changes), nproc, compiler,
// build type and flags. Submitters, the batcher and scorer workers
// share the host's cores, so absolute QPS depends on the machine; the
// shape — saturation, shedding instead of collapse at overload — is
// what carries across hosts.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "serve/embedding_store.h"
#include "serve/loadgen.h"
#include "serve/request.h"
#include "serve/scoring.h"
#include "serve/server.h"

namespace hygnn {
namespace {

struct LoadBenchConfig {
  int32_t num_drugs = 150;
  int32_t pairs_per_request = 8;
  int32_t pool_requests = 64;
  double seconds_per_level = 1.0;
  int32_t submitters = 2;
  uint64_t seed = 42;
  serve::ServerOptions server;
  std::string metrics_out;
};

/// First line of `command`'s output, or "" when it fails.
std::string FirstLineOf(const std::string& command) {
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  char line[256] = {0};
  const bool read = std::fgets(line, sizeof(line), pipe) != nullptr;
  const int status = pclose(pipe);
  if (!read || status != 0) return "";
  std::string out(line);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// Where a BENCH_load.json came from: the source tree's git sha (or
/// "unknown" outside a git checkout), whether it had uncommitted
/// changes, and the machine and build that produced it.
struct Provenance {
  std::string git_sha;
  bool git_dirty = false;
  long nproc = 0;
#if defined(__clang__)
  std::string compiler = __VERSION__;
#else
  std::string compiler = "gcc " __VERSION__;
#endif
  std::string build_type = HYGNN_BUILD_TYPE;
  std::string flags = HYGNN_CXX_FLAGS;
};

Provenance CollectProvenance() {
  Provenance provenance;
  const std::string git =
      std::string("git -C '") + HYGNN_SOURCE_DIR + "' ";
  provenance.git_sha = FirstLineOf(git + "rev-parse HEAD 2>/dev/null");
  if (provenance.git_sha.empty()) {
    provenance.git_sha = "unknown";
  } else {
    provenance.git_dirty = !FirstLineOf(
        git + "status --porcelain --untracked-files=no 2>/dev/null")
                                .empty();
  }
  provenance.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return provenance;
}

/// Closed-loop capacity probe: one submitter, blocking Score,
/// back-to-back. The sustained rate with zero queueing is the
/// pipeline's intrinsic capacity; offered-load levels are set
/// relative to it so the sweep brackets saturation on any machine.
double MeasureCapacityQps(serve::Server* server,
                          const std::vector<serve::ScoreRequest>& pool) {
  const int32_t warmup = 20;
  const int32_t measured = 200;
  for (int32_t i = 0; i < warmup; ++i) {
    auto r = server->Score(pool[static_cast<size_t>(i) % pool.size()]);
    HYGNN_CHECK(r.ok()) << r.status().ToString();
  }
  obs::Timer timer;
  for (int32_t i = 0; i < measured; ++i) {
    auto r = server->Score(pool[static_cast<size_t>(i) % pool.size()]);
    HYGNN_CHECK(r.ok()) << r.status().ToString();
  }
  return static_cast<double>(measured) / timer.ElapsedSeconds();
}

/// Scores every pooled request through the server and serially;
/// returns false on any bitwise mismatch.
bool VerifyBitIdentity(serve::Server* server,
                       const serve::PairScorer& serial,
                       const std::vector<serve::ScoreRequest>& pool) {
  for (size_t i = 0; i < pool.size(); ++i) {
    auto served = server->Score(pool[i]);
    auto expected = serial.ScorePairs(pool[i]);
    HYGNN_CHECK(served.ok()) << served.status().ToString();
    HYGNN_CHECK(expected.ok()) << expected.status().ToString();
    const auto& got = served.value().scores;
    const auto& want = expected.value().scores;
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(),
                    want.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "request %zu: served scores != serial\n", i);
      return false;
    }
  }
  return true;
}

int RunLoadBench(const LoadBenchConfig& config,
                 const std::string& json_path) {
  obs::MetricsRecorder recorder(config.metrics_out);
  std::optional<obs::ScopedMetricsEnabled> metrics_scope;
  if (recorder.active()) metrics_scope.emplace(true);

  data::DatasetConfig data_config;
  data_config.num_drugs = config.num_drugs;
  data_config.seed = config.seed;
  auto dataset = data::GenerateDataset(data_config).value();
  data::FeaturizeConfig feat_config;
  feat_config.espf_frequency_threshold = 3;
  auto featurizer =
      data::SubstructureFeaturizer::Build(dataset.drugs(), feat_config)
          .value();
  auto hypergraph =
      graph::BuildDrugHypergraph(featurizer.drug_substructures(),
                                 featurizer.num_substructures());
  auto context = model::HypergraphContext::FromHypergraph(hypergraph);

  core::Rng rng(config.seed);
  model::HyGnnConfig model_config;
  auto model = model::HyGnnModel(featurizer.num_substructures(),
                                 model_config, &rng);
  serve::EmbeddingStore store(&model);
  HYGNN_CHECK(store.Rebuild(context).ok());

  // Seeded request pool shared by every level: identical offered work
  // across levels and across runs.
  const int32_t catalog = store.num_drugs();
  core::Rng pair_rng(config.seed + 1);
  std::vector<serve::ScoreRequest> pool(
      static_cast<size_t>(config.pool_requests));
  for (auto& request : pool) {
    request.pairs.reserve(static_cast<size_t>(config.pairs_per_request));
    for (int32_t i = 0; i < config.pairs_per_request; ++i) {
      const auto a = static_cast<int32_t>(
          pair_rng.UniformInt(static_cast<uint64_t>(catalog)));
      auto b = static_cast<int32_t>(
          pair_rng.UniformInt(static_cast<uint64_t>(catalog - 1)));
      if (b >= a) ++b;
      request.pairs.push_back({a, b, 0.0f});
    }
  }

  serve::Server server(&model, &store, config.server);
  HYGNN_CHECK(server.Start().ok());

  serve::PairScorer serial(&model, &store);
  const bool bit_identical = VerifyBitIdentity(&server, serial, pool);

  const double capacity_qps = MeasureCapacityQps(&server, pool);
  const Provenance provenance = CollectProvenance();
  std::printf("load bench: %d drugs, %d-pair requests, workers=%d "
              "max_batch=%d queue=%d\n",
              config.num_drugs, config.pairs_per_request,
              config.server.workers, config.server.max_batch,
              config.server.queue_capacity);
  std::printf("  closed-loop capacity: %.0f req/s\n", capacity_qps);
  std::printf("  bit_identical vs serial: %s\n",
              bit_identical ? "true" : "false");

  const auto print_report = [](const char* label,
                               const serve::LoadReport& report) {
    std::printf("  %s: sustained %7.0f req/s  requests %llu "
                "(%llu attempts)  completed %llu  shed %llu  "
                "expired %llu  retried %llu/%llu ok  p50 %.0f us  "
                "p95 %.0f us  p99 %.0f us\n",
                label, report.sustained_qps,
                static_cast<unsigned long long>(report.submitted),
                static_cast<unsigned long long>(report.attempts),
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.shed),
                static_cast<unsigned long long>(report.expired),
                static_cast<unsigned long long>(report.retried_ok),
                static_cast<unsigned long long>(report.retried),
                report.p50_us, report.p95_us, report.p99_us);
  };

  const double fractions[] = {0.5, 1.0, 2.0};
  std::vector<serve::LoadReport> reports;
  for (const double fraction : fractions) {
    serve::LoadConfig load;
    load.offered_qps = capacity_qps * fraction;
    load.duration_seconds = config.seconds_per_level;
    load.submitters = config.submitters;
    reports.push_back(serve::RunLoad(&server, pool, load));
    char label[64];
    std::snprintf(label, sizeof(label), "offered %7.0f req/s (%.1fx)",
                  reports.back().offered_qps, fraction);
    print_report(label, reports.back());
  }

  // Deadline sweep: the same 1x-capacity load with per-request
  // deadlines of infinity, 10 ms, and 1 ms, retries on. What changes
  // is *how* pressure resolves — infinite deadlines only queue, tight
  // ones turn queueing into expiry/shedding that retries then absorb.
  const int64_t deadline_sweep_us[] = {0, 10000, 1000};
  std::vector<serve::LoadReport> deadline_reports;
  for (const int64_t timeout_us : deadline_sweep_us) {
    serve::LoadConfig load;
    load.offered_qps = capacity_qps;
    load.duration_seconds = config.seconds_per_level;
    load.submitters = config.submitters;
    load.timeout_us = timeout_us;
    load.retry = true;
    deadline_reports.push_back(serve::RunLoad(&server, pool, load));
    char label[64];
    if (timeout_us == 0) {
      std::snprintf(label, sizeof(label), "deadline      none (1.0x)");
    } else {
      std::snprintf(label, sizeof(label), "deadline %6lld us (1.0x)",
                    static_cast<long long>(timeout_us));
    }
    print_report(label, deadline_reports.back());
  }

  // Hot-swap scenario: 1x-capacity open-loop load with catalog
  // mutations published in the middle of the window. A background
  // thread AddDrugs while submitters keep offering; because AddDrug
  // only appends rows (existing rows are byte-copied into each new
  // epoch), every pooled request must afterwards still score
  // bit-identically to its pre-swap serial scores, and no in-flight
  // request may have failed.
  std::vector<std::vector<float>> pre_swap_scores;
  pre_swap_scores.reserve(pool.size());
  for (const auto& request : pool) {
    pre_swap_scores.push_back(serial.ScorePairs(request).value().scores);
  }
  const uint64_t generation_before = store.generation();
  serve::LoadReport swap_report;
  constexpr int32_t kSwapPublications = 4;
  {
    core::WorkerThread mutator([&store, &featurizer, &config] {
      // Each publication reuses an existing drug's substructure set
      // (the encoder input vocabulary is fixed), spread across the
      // load window so batches pin several distinct epochs.
      const auto& subs = featurizer.drug_substructures();
      for (int32_t i = 0; i < kSwapPublications; ++i) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            config.seconds_per_level /
            static_cast<double>(2 * kSwapPublications)));
        auto added =
            store.AddDrug(subs[static_cast<size_t>(i) % subs.size()]);
        HYGNN_CHECK(added.ok()) << added.status().ToString();
      }
    });
    serve::LoadConfig load;
    load.offered_qps = capacity_qps;
    load.duration_seconds = config.seconds_per_level;
    load.submitters = config.submitters;
    swap_report = serve::RunLoad(&server, pool, load);
    // mutator joins here (WorkerThread destructor).
  }
  const uint64_t generation_after = store.generation();
  bool swap_bit_identical = true;
  for (size_t i = 0; i < pool.size(); ++i) {
    const auto post = serial.ScorePairs(pool[i]).value().scores;
    if (post.size() != pre_swap_scores[i].size() ||
        std::memcmp(post.data(), pre_swap_scores[i].data(),
                    post.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "request %zu: post-swap scores != pre-swap\n",
                   i);
      swap_bit_identical = false;
    }
  }
  char swap_label[64];
  std::snprintf(swap_label, sizeof(swap_label),
                "swap x%d gen %llu->%llu (1.0x)", kSwapPublications,
                static_cast<unsigned long long>(generation_before),
                static_cast<unsigned long long>(generation_after));
  print_report(swap_label, swap_report);
  std::printf("  swap: bit_identical_after_swap %s  failed %llu\n",
              swap_bit_identical ? "true" : "false",
              static_cast<unsigned long long>(swap_report.failed));

  server.Shutdown();
  const auto stats = server.stats();
  std::printf("  pipeline totals: accepted %llu  completed %llu  "
              "shed %llu  expired %llu  hinted %llu  batches %llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.expired),
              static_cast<unsigned long long>(stats.retried_after_hint),
              static_cast<unsigned long long>(stats.batches));

  std::FILE* file = std::fopen(json_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(file,
               "{\n  \"bench\": \"load\",\n"
               "  \"provenance\": {\"git_sha\": \"%s\", "
               "\"git_dirty\": %s, \"nproc\": %ld, "
               "\"compiler\": \"%s\", \"build_type\": \"%s\", "
               "\"flags\": \"%s\"},\n"
               "  \"num_drugs\": %d,\n  \"pairs_per_request\": %d,\n"
               "  \"workers\": %d,\n  \"max_batch\": %d,\n"
               "  \"queue_capacity\": %d,\n"
               "  \"submitters\": %d,\n"
               "  \"capacity_qps\": %.1f,\n"
               "  \"bit_identical\": %s,\n"
               "  \"levels\": [\n",
               provenance.git_sha.c_str(),
               provenance.git_dirty ? "true" : "false", provenance.nproc,
               provenance.compiler.c_str(), provenance.build_type.c_str(),
               provenance.flags.c_str(), config.num_drugs,
               config.pairs_per_request, config.server.workers,
               config.server.max_batch, config.server.queue_capacity,
               config.submitters, capacity_qps,
               bit_identical ? "true" : "false");
  const auto write_report = [file](const serve::LoadReport& report,
                                   int64_t timeout_us, bool last) {
    std::fprintf(file,
                 "    {\"offered_qps\": %.1f, \"duration_s\": %.2f, "
                 "\"timeout_us\": %lld, "
                 "\"submitted\": %llu, \"attempts\": %llu, "
                 "\"completed\": %llu, "
                 "\"shed\": %llu, \"failed\": %llu, "
                 "\"expired\": %llu, \"retried\": %llu, "
                 "\"retried_ok\": %llu, "
                 "\"sustained_qps\": %.1f, \"p50_us\": %.1f, "
                 "\"p95_us\": %.1f, \"p99_us\": %.1f}%s\n",
                 report.offered_qps, report.duration_seconds,
                 static_cast<long long>(timeout_us),
                 static_cast<unsigned long long>(report.submitted),
                 static_cast<unsigned long long>(report.attempts),
                 static_cast<unsigned long long>(report.completed),
                 static_cast<unsigned long long>(report.shed),
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.expired),
                 static_cast<unsigned long long>(report.retried),
                 static_cast<unsigned long long>(report.retried_ok),
                 report.sustained_qps, report.p50_us, report.p95_us,
                 report.p99_us, last ? "" : ",");
  };
  for (size_t i = 0; i < reports.size(); ++i) {
    write_report(reports[i], 0, i + 1 == reports.size());
  }
  std::fprintf(file, "  ],\n  \"deadline_sweep\": [\n");
  for (size_t i = 0; i < deadline_reports.size(); ++i) {
    write_report(deadline_reports[i], deadline_sweep_us[i],
                 i + 1 == deadline_reports.size());
  }
  std::fprintf(file,
               "  ],\n  \"swap\": {\n"
               "    \"publications\": %d,\n"
               "    \"generation_before\": %llu,\n"
               "    \"generation_after\": %llu,\n"
               "    \"bit_identical_after_swap\": %s,\n"
               "    \"report\":\n",
               kSwapPublications,
               static_cast<unsigned long long>(generation_before),
               static_cast<unsigned long long>(generation_after),
               swap_bit_identical ? "true" : "false");
  write_report(swap_report, 0, /*last=*/true);
  std::fprintf(file, "  }\n}\n");
  std::fclose(file);
  std::printf("wrote %s\n", json_path.c_str());

  if (recorder.active()) {
    if (auto s = recorder.Flush(); !s.ok()) {
      std::fprintf(stderr, "FAIL: metrics flush: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("wrote metrics to %s\n", recorder.path().c_str());
  }
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: served scores are not bit-identical to serial\n");
    return 1;
  }
  if (!swap_bit_identical) {
    std::fprintf(stderr,
                 "FAIL: catalog swap moved pre-existing scores\n");
    return 1;
  }
  if (swap_report.failed != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu in-flight requests failed during swap\n",
                 static_cast<unsigned long long>(swap_report.failed));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hygnn

int main(int argc, char** argv) {
  hygnn::LoadBenchConfig config;
  std::string json_path = "BENCH_load.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto int_flag = [&arg](const char* name, int32_t* out) {
      const std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = std::stoi(arg.substr(prefix.size()));
      return true;
    };
    if (arg.rfind("--json_out=", 0) == 0) {
      json_path = arg.substr(std::string("--json_out=").size());
    } else if (arg.rfind("--metrics_out=", 0) == 0) {
      config.metrics_out = arg.substr(std::string("--metrics_out=").size());
    } else if (arg.rfind("--seconds=", 0) == 0) {
      config.seconds_per_level =
          std::stod(arg.substr(std::string("--seconds=").size()));
    } else if (int_flag("drugs", &config.num_drugs) ||
               int_flag("pairs_per_request", &config.pairs_per_request) ||
               int_flag("submitters", &config.submitters) ||
               int_flag("workers", &config.server.workers) ||
               int_flag("max_batch", &config.server.max_batch) ||
               int_flag("queue_capacity", &config.server.queue_capacity)) {
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }
  return hygnn::RunLoadBench(config, json_path);
}
