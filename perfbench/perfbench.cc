// End-to-end benchmark of HyGNN training, pair serving and cold-start
// catalog growth. One process runs one workload for one seed and prints,
// as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is repeated with spans and the program's own counters switched on,
// and the metrics are the per-layer ones plus the tracing overhead.
//
// Every workload runs the same three phases so that every end-to-end
// metric is measured on every workload; the workloads differ in how much
// work each phase gets (see README.md):
//   train    paper-config full-batch Fit, repeated; then test-fold AUCs
//   serve    open-loop requests into serve::Server at fixed rates and up
//            a fixed ladder of rates to find the knee
//   catalog  AddDrugSmiles + Screen of held-out drugs while a fixed-rate
//            background stream keeps flowing through the server
//
// Usage: perfbench --workload train|serve|catalog --seed N --seconds S
//                  --trace 0|1 [--out_dir DIR]

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "data/pairs.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "obs/metrics.h"
#include "obs/optime.h"
#include "reference.h"
#include "serve/embedding_store.h"
#include "serve/request.h"
#include "serve/scoring.h"
#include "serve/server.h"
#include "stats.h"
#include "tensor/loss.h"
#include "tensor/optimizer.h"
#include "tensor/tape.h"
#include "trace.h"

namespace perfbench {
namespace {

using hygnn::core::Rng;
namespace data = hygnn::data;
namespace graph = hygnn::graph;
namespace model = hygnn::model;
namespace obs = hygnn::obs;
namespace serve = hygnn::serve;
namespace tensor = hygnn::tensor;

// ---------------------------------------------------------------------
// Fixed input make-up. README.md lists these; change them only together
// with the README and a fresh pair of steadiness sets.

constexpr int32_t kTrainDrugs = 200;
constexpr double kTrainFraction = 0.7;
constexpr size_t kPairsPerClass = 3500;
/// The training corpus is fixed, like the paper's dataset; the seed
/// varies the pair sample, the split, the initial weights and the
/// training RNG.
constexpr uint64_t kTrainCorpusSeed = 42;
constexpr int64_t kEspfThreshold = 3;
constexpr int64_t kHidden = 64;
constexpr int32_t kKernelThreads = 2;  // training only
/// Ops whose kernel time the traced run reports by name.
constexpr const char* kTracedOps[] = {
    "AddRowBroadcast", "BceWithLogitsLoss", "ConcatCols", "Dropout",
    "IndexSelectRows", "LeakyRelu",          "MatMul",     "MulColumnBroadcast",
    "Relu",            "SegmentSoftmax",     "SegmentSum", "leaf",
    "other"};

/// The request shape of the repository's load bench
/// (bench/bench_load.cc): 8 pairs, drawn uniformly over the catalog.
constexpr int32_t kPairsPerRequest = 8;
/// Requests per window of a windowed p99: the fewest that leave ten
/// samples beyond the 99th percentile (checked at start-up against
/// HighestSupportedPercentile).
constexpr int64_t kTailWindow = 1000;
/// `low`: a lone request waits out the batch window. `high`: a little over
/// half the knee measured on a 4-vCPU host (70000-80000/s), where batches
/// fill before the window closes.
constexpr double kLowQps = 1000.0;
constexpr double kHighQps = 40000.0;
constexpr double kLatencyLimitMs = 5.0;
/// The saturation ladder: 10% steps from the `high` rate.
constexpr double kLadderQps[] = {
    40000, 44000, 48400, 53200, 58600, 64400,  70900,
    77900, 85700, 94300, 103700, 114100, 125500};
/// A rung misses when more than this share of its requests is refused.
constexpr double kMaxRefusedShare = 0.01;
constexpr size_t kLadderCheckStride = 16;
constexpr int32_t kWarmupRequests = 128;

constexpr int32_t kCatalogStart = 1000;
/// An assumed background rate, not taken from a measured workload: a
/// fortieth of the knee, so the stream shows what swaps do to requests
/// in flight rather than overload.
constexpr double kChurnQps = 2000.0;
constexpr int32_t kTopK = 10;

/// How much work each phase gets per round on each workload.
struct Plan {
  /// Odd, so the median over rounds is a round's own figure.
  int32_t rounds = 5;
  int32_t epochs = 30;
  int32_t fits_per_round = 1;
  int64_t low_per_round = 600;
  int64_t high_per_round = 8000;
  double rung_seconds = 0.08;  ///< per ladder rung, per round
  int32_t adds_per_round = 80;
  double churn_seconds_per_round = 0.5;
};

/// The phase a workload is named after gets a share that scales with the
/// run length; the other two run at the fixed small size of Plan{}, still
/// enough for every metric's percentile.
Plan MakePlan(const std::string& workload, int32_t seconds) {
  const double scale = std::max(1, seconds) / 20.0;
  Plan plan;
  if (workload == "train") {
    plan.fits_per_round = std::max(1, static_cast<int32_t>(2 * scale));
  } else if (workload == "serve") {
    plan.low_per_round = std::max<int64_t>(600, static_cast<int64_t>(1000 * scale));
    plan.high_per_round = std::max<int64_t>(8000, static_cast<int64_t>(16000 * scale));
    plan.rung_seconds = std::max(0.08, 0.12 * scale);
  } else {  // catalog
    plan.adds_per_round = std::max(80, static_cast<int32_t>(200 * scale));
    plan.churn_seconds_per_round = std::max(0.5, 2.0 * scale);
  }
  return plan;
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until `t` (NowS clock), then spins the last stretch, so the
/// generator sends on time without a timer-slack error.
void WaitUntil(double t) {
  for (;;) {
    const double left = t - NowS();
    if (left <= 0.0) return;
    if (left > 300e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 200e-6));
    } else {
      std::this_thread::yield();
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Run-wide bookkeeping: operations, failures and failed checks.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

template <typename T>
T Unwrap(hygnn::core::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "fatal: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(result).value();
}

void Require(const hygnn::core::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "fatal: %s: %s\n", what, status.ToString().c_str());
    std::exit(3);
  }
}

// ---------------------------------------------------------------------
// Corpus: generate -> featurize -> hypergraph.

struct Corpus {
  std::unique_ptr<data::DdiDataset> dataset;
  std::unique_ptr<data::SubstructureFeaturizer> featurizer;
  std::vector<std::vector<int32_t>> members;  // catalog hyperedges
  model::HypergraphContext context;
};

/// Generates `total` drugs; the featurizer's vocabulary and the
/// hypergraph cover the first `catalog` of them (the rest are held out
/// as cold-start drugs).
Corpus BuildCorpus(uint64_t seed, int32_t total, int32_t catalog,
                   Tracer* tracer) {
  Corpus corpus;
  {
    ScopedSpan span(tracer, "data.generate");
    data::DatasetConfig config;
    config.num_drugs = total;
    config.seed = seed;
    corpus.dataset = std::make_unique<data::DdiDataset>(
        Unwrap(data::GenerateDataset(config), "GenerateDataset"));
  }
  {
    ScopedSpan span(tracer, "chem.featurize");
    data::FeaturizeConfig config;
    config.espf_frequency_threshold = kEspfThreshold;
    std::vector<data::DrugRecord> known(
        corpus.dataset->drugs().begin(),
        corpus.dataset->drugs().begin() + catalog);
    corpus.featurizer = std::make_unique<data::SubstructureFeaturizer>(
        Unwrap(data::SubstructureFeaturizer::Build(known, config),
               "SubstructureFeaturizer::Build"));
  }
  {
    ScopedSpan span(tracer, "graph.context");
    corpus.members = corpus.featurizer->drug_substructures();
    auto hypergraph = graph::BuildDrugHypergraph(
        corpus.members, corpus.featurizer->num_substructures());
    corpus.context = model::HypergraphContext::FromHypergraph(hypergraph);
  }
  return corpus;
}

/// The paper's configuration: one encoder layer, MLP decoder, hidden 64.
model::HyGnnConfig PaperModelConfig() {
  model::HyGnnConfig config;
  config.encoder.hidden_dim = kHidden;
  config.encoder.output_dim = kHidden;
  config.encoder.dropout = 0.1f;
  config.num_layers = 1;
  config.decoder = model::DecoderKind::kMlp;
  config.decoder_hidden_dim = kHidden;
  return config;
}

model::TrainConfig PaperTrainConfig(uint64_t seed, int32_t epochs) {
  model::TrainConfig config;
  config.epochs = epochs;
  config.learning_rate = 0.01f;
  config.weight_decay = 1e-4f;
  config.threads = kKernelThreads;
  config.seed = seed ^ 0x5eedULL;
  return config;
}

std::unique_ptr<model::HyGnnModel> FreshModel(int64_t input_dim,
                                              uint64_t seed) {
  Rng rng(seed ^ 0xabcdefULL);
  return std::make_unique<model::HyGnnModel>(input_dim, PaperModelConfig(),
                                             &rng);
}

// ---------------------------------------------------------------------
// Open-loop request stream: one generator thread sends on a seeded
// schedule, one waiter thread stamps each completion when it wakes.

std::vector<serve::ScoreRequest> MakeRequests(uint64_t seed, int64_t count,
                                              int32_t catalog) {
  Rng rng(seed);
  std::vector<serve::ScoreRequest> requests(static_cast<size_t>(count));
  for (auto& request : requests) {
    for (int32_t i = 0; i < kPairsPerRequest; ++i) {
      const auto a = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(catalog)));
      auto b = static_cast<int32_t>(
          rng.UniformInt(static_cast<uint64_t>(catalog - 1)));
      if (b >= a) ++b;
      request.pairs.push_back({a, b, 0.0f});
    }
  }
  return requests;
}

class OpenLoop {
 public:
  OpenLoop(serve::Server* server, const std::vector<double>& offsets,
           std::vector<serve::ScoreRequest> requests)
      : server_(server),
        offsets_(offsets),
        requests_(std::move(requests)),
        slots_(offsets.size()) {
    const size_t n = offsets.size();
    times.due.assign(n, 0.0);
    times.sent.assign(n, 0.0);
    times.done.assign(n, -1.0);
    responses.resize(n);
  }

  ~OpenLoop() { Join(); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void Start(double t0) {
    waiter_ = std::thread([this] { WaiterLoop(); });
    generator_ = std::thread([this, t0] { GeneratorLoop(t0); });
  }

  void Join() {
    if (generator_.joinable()) generator_.join();
    if (waiter_.joinable()) waiter_.join();
  }

  const std::vector<serve::ScoreRequest>& requests() const {
    return requests_;
  }

  StreamTimes times;
  std::vector<std::vector<float>> responses;
  int64_t refused = 0;
  int64_t failed = 0;  ///< admitted but completed with an error

 private:
  void GeneratorLoop(double t0) {
    for (size_t i = 0; i < offsets_.size(); ++i) {
      const double due = t0 + offsets_[i];
      WaitUntil(due);
      times.due[i] = due;
      times.sent[i] = NowS();
      auto pending = server_->SubmitAsync(requests_[i]);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (pending.ok()) slots_[i] = std::move(pending).value();
        published_ = i + 1;
      }
      published_cv_.notify_one();
    }
  }

  void WaiterLoop() {
    for (size_t i = 0; i < offsets_.size(); ++i) {
      std::shared_ptr<serve::Server::Pending> pending;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        published_cv_.wait(lock, [&] { return published_ > i; });
        pending = std::move(slots_[i]);
      }
      if (pending == nullptr) {
        ++refused;
        continue;
      }
      auto result = pending->Wait();
      const double now = NowS();
      if (!result.ok()) {
        ++failed;
        continue;
      }
      times.done[i] = now;
      responses[i] = std::move(result).value().scores;
    }
  }

  serve::Server* server_;
  std::vector<double> offsets_;
  std::vector<serve::ScoreRequest> requests_;
  std::mutex mutex_;
  std::condition_variable published_cv_;
  std::vector<std::shared_ptr<serve::Server::Pending>> slots_;
  size_t published_ = 0;
  std::thread generator_;
  std::thread waiter_;
};

/// Runs one open-loop stream to its end and returns it.
std::unique_ptr<OpenLoop> RunStream(serve::Server* server, uint64_t seed,
                                    double rate, int64_t count,
                                    int32_t catalog) {
  auto stream = std::make_unique<OpenLoop>(
      server, PoissonSchedule(seed, rate, count),
      MakeRequests(seed ^ 0x9e3779b97f4a7c15ULL, count, catalog));
  stream->Start(NowS() + 0.002);
  stream->Join();
  return stream;
}

/// Every served response must equal serial PairScorer::ScorePairs on the
/// same catalog byte for byte.
/// `stride` > 1 checks every stride-th response only.
void CheckAgainstSerial(const OpenLoop& stream, const serve::PairScorer& scorer,
                        const char* label, Ledger* ledger, size_t stride = 1) {
  int64_t mismatched = 0, checked = 0;
  for (size_t i = 0; i < stream.requests().size(); i += stride) {
    if (stream.times.done[i] < 0.0) continue;
    auto serial = scorer.ScorePairs(stream.requests()[i]);
    const auto& served = stream.responses[i];
    ++checked;
    if (!serial.ok() || serial.value().scores.size() != served.size() ||
        std::memcmp(serial.value().scores.data(), served.data(),
                    served.size() * sizeof(float)) != 0) {
      ++mismatched;
    }
  }
  ledger->Check(mismatched == 0,
                std::string(label) + ": " + std::to_string(mismatched) +
                    " of " + std::to_string(checked) +
                    " responses differ from serial ScorePairs");
}

ReferenceDecoder MakeReferenceDecoder(const model::HyGnnModel& m) {
  const auto params = m.decoder().Parameters();
  ReferenceDecoder ref;
  ref.dim = params[0].rows() / 2;
  ref.hidden = params[0].cols();
  ref.w1.assign(params[0].data(), params[0].data() + params[0].size());
  ref.b1.assign(params[1].data(), params[1].data() + params[1].size());
  ref.w2.assign(params[2].data(), params[2].data() + params[2].size());
  ref.b2 = params[3].data()[0];
  return ref;
}

/// A seeded sample of served scores must match the plain-loop decoder
/// over the snapshot's rows within kDecoderTolerance.
void CheckAgainstReference(const OpenLoop& stream, const model::HyGnnModel& m,
                           const serve::StoreSnapshot& snapshot,
                           uint64_t seed, Ledger* ledger) {
  const ReferenceDecoder ref = MakeReferenceDecoder(m);
  Rng rng(seed);
  double worst = 0.0;
  int64_t checked = 0;
  for (int32_t s = 0; s < 256; ++s) {
    const auto i = static_cast<size_t>(
        rng.UniformInt(static_cast<uint64_t>(stream.requests().size())));
    if (stream.times.done[i] < 0.0) continue;
    for (size_t p = 0; p < stream.requests()[i].pairs.size(); ++p) {
      const auto& pair = stream.requests()[i].pairs[p];
      const double expected =
          ref.Probability(snapshot.Row(pair.a), snapshot.Row(pair.b));
      worst = std::max(worst, std::abs(expected - stream.responses[i][p]));
      ++checked;
    }
  }
  ledger->Check(checked > 0 && worst <= kDecoderTolerance,
                "reference decoder: worst |diff| " + std::to_string(worst) +
                    " over " + std::to_string(checked) + " pairs");
}

// ---------------------------------------------------------------------
// Metric output.

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[32] = "null";  // JSON has no infinity or NaN
    if (std::isfinite(metric.value)) {
      std::snprintf(value, sizeof(value), "%.17g", metric.value);
    }
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value, metric.unit.c_str());
    out += buffer;
    first = false;
  }
  return out + "}";
}

/// Histogram percentile from the obs registry (bucket-interpolated), 0
/// when the histogram never observed anything.
double RegistryQuantile(const std::string& name, double q) {
  auto* histogram = obs::MetricsRegistry::Global().GetHistogram(name);
  return histogram->count() == 0 ? 0.0 : histogram->Quantile(q);
}

double RegistryMean(const std::string& name) {
  auto* histogram = obs::MetricsRegistry::Global().GetHistogram(name);
  return histogram->count() == 0 ? 0.0 : histogram->mean();
}

/// Maps a tensor op or fused-group name onto the metric-name alphabet:
/// letters, digits, '_' and '.'; every other run of characters becomes
/// one '_'.
std::string MetricSafe(const std::string& name) {
  std::string out;
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    if (ok) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

// ---------------------------------------------------------------------
// The three phases. Each sets up once, then runs one slice per round;
// rounds interleave the phases so every metric samples the whole run
// rather than one stretch of it (the host's speed drifts over seconds).
// Each fills `e2e` (and, when traced, `layer`) when it finishes.

struct RunContext {
  uint64_t seed = 0;
  Plan plan;
  std::string out_dir;
  Tracer* tracer = nullptr;
  Ledger* ledger = nullptr;
  Metrics* e2e = nullptr;
  Metrics* layer = nullptr;  // null on an untraced pass
  /// The untraced pass's figures, for the traced pass's overhead ratios.
  const Metrics* untraced = nullptr;
  std::vector<double> setup_s;  // per-phase fastest set-up times
};

/// One phase's set-up repetitions. The first runs when the phase is
/// built and keeps what it makes; one more, thrown away, runs at the
/// start of every later round, so the repetitions sample the whole run
/// as the other metrics do (the host's speed drifts over seconds).
class SetupTimes {
 public:
  /// Runs `fn` inside a "setup.<phase>" span and records its time.
  template <typename Fn>
  void Time(Tracer* tracer, const char* phase, Fn&& fn) {
    ScopedSpan span(tracer, std::string("setup.") + phase);
    const double start = NowS();
    fn();
    seconds_.push_back(NowS() - start);
  }

  /// Prints every repetition and returns the fastest: CPU steal on a
  /// shared host only adds time.
  double Fastest(const char* phase) const {
    std::printf("set-up %s:", phase);
    for (double s : seconds_) std::printf(" %.4f", s);
    std::printf(" s\n");
    return *std::min_element(seconds_.begin(), seconds_.end());
  }

 private:
  std::vector<double> seconds_;
};

class TrainPhase {
 public:
  explicit TrainPhase(RunContext* run) : run_(run) {
    hygnn::core::SetNumThreads(kKernelThreads);
    SetUp(/*keep=*/true);
    config_ = PaperTrainConfig(run_->seed, run_->plan.epochs);
    // The first Fit of a process also pays for first-touch memory and
    // pool start-up, so it is a warm-up, not a sample. It also yields the
    // model the serve phase loads, and the reference losses.
    trained_ = FreshModel(corpus_->featurizer->num_substructures(), run_->seed);
    model::HyGnnTrainer trainer(trained_.get(), config_);
    tensor::ResetExecStats();
    const double start = NowS();
    trainer.Fit(corpus_->context, split_.train);
    const auto stats = tensor::ExecStats();
    std::printf("train: warm-up Fit %.3f s; %zu training pairs, %d substructures\n",
                NowS() - start, split_.train.size(),
                corpus_->featurizer->num_substructures());
    ++run_->ledger->attempted;
    reference_losses_ = trainer.epoch_losses();
    run_->ledger->Check(reference_losses_.size() == static_cast<size_t>(config_.epochs) &&
                            reference_losses_.back() < reference_losses_.front(),
                        "train: final epoch loss is not below the first");
    if (run_->layer != nullptr) {
      const double epochs = config_.epochs;
      Metrics& layer = *run_->layer;
      layer["tensor.ops_per_epoch"] = {static_cast<double>(stats.ops_executed) / epochs, "count"};
      layer["tensor.buffers_per_epoch"] = {static_cast<double>(stats.buffers_allocated) / epochs, "count"};
      layer["tensor.fused_groups_per_epoch"] = {static_cast<double>(stats.fused_groups) / epochs, "count"};
      obs::ResetOpTimes();
    }
  }

  const Corpus& corpus() const { return *corpus_; }
  const model::HyGnnModel& trained() const { return *trained_; }

  void Round(int32_t round) {
    hygnn::core::SetNumThreads(kKernelThreads);
    if (round > 0) SetUp(/*keep=*/false);
    for (int32_t f = 0; f < run_->plan.fits_per_round; ++f) {
      auto m = FreshModel(corpus_->featurizer->num_substructures(), run_->seed);
      const double start = NowS();
      std::vector<float> losses;
      if (run_->layer == nullptr) {
        model::HyGnnTrainer trainer(m.get(), config_);
        trainer.Fit(corpus_->context, split_.train);
        losses = trainer.epoch_losses();
      } else {
        losses = TracedFit(m.get());
      }
      fit_s_.push_back(NowS() - start);
      ++run_->ledger->attempted;
      if (losses != reference_losses_) {
        run_->ledger->Check(false, run_->layer == nullptr
            ? "train: repeated Fit from the same weights diverged"
            : "train: traced loop does not reproduce epoch_losses() bit for bit");
      }
    }
    hygnn::core::SetNumThreads(1);
  }

  void Finish() {
    Ledger* ledger = run_->ledger;
    run_->setup_s.push_back(setup_.Fastest("train"));
    std::printf("train: Fit");
    for (double f : fit_s_) std::printf(" %.3f", f);
    std::printf(" s\n");
    if (run_->layer != nullptr) {
      Metrics& layer = *run_->layer;
      const double epochs = static_cast<double>(fit_s_.size()) * config_.epochs;
      for (const char* name : {"hygnn.encoder.fwd", "hygnn.decoder.fwd",
                               "tensor.backward", "tensor.adam"}) {
        layer[std::string(name) + "_ms"] = {Median(run_->tracer->DurationsMs(name)), "ms"};
      }
      // A fixed set of names, so every traced run reports the same
      // metrics: the ops this model records, and "other" for anything
      // else (fused groups included).
      for (const char* op : kTracedOps) {
        layer[std::string("tensor.op.") + op + ".fwd_ms"] = {0.0, "ms"};
        layer[std::string("tensor.op.") + op + ".bwd_ms"] = {0.0, "ms"};
      }
      for (const auto& entry : obs::OpTimeSnapshot()) {
        std::string op = MetricSafe(entry.op);
        if (!layer.count("tensor.op." + op + ".fwd_ms")) op = "other";
        layer["tensor.op." + op + ".fwd_ms"].value += entry.forward_ms / epochs;
        layer["tensor.op." + op + ".bwd_ms"].value += entry.backward_ms / epochs;
      }
      layer["trace.overhead.train_s"] = {
          *std::min_element(fit_s_.begin(), fit_s_.end()) /
              run_->untraced->at("train_s").value, "ratio"};
      return;
    }
    // The fastest of the identical timed Fits: the host's CPU steal only
    // ever adds to a Fit's wall time, and on a shared machine it comes in
    // episodes that can cover some of a run's rounds and not others.
    (*run_->e2e)["train_s"] = {*std::min_element(fit_s_.begin(), fit_s_.end()), "s"};
    // Test-fold evaluation, recomputed apart from the program.
    model::HyGnnTrainer evaluator(trained_.get(), config_);
    const model::EvalResult eval = evaluator.Evaluate(corpus_->context, split_.test);
    ++ledger->attempted;
    const auto scores = trained_->PredictProbabilities(corpus_->context, split_.test);
    const auto labels = model::LabelsOf(split_.test);
    const double roc = RankSumRocAuc(scores, labels);
    const double ap = StepAveragePrecision(scores, labels);
    ledger->Check(std::abs(roc - eval.roc_auc) <= 1e-9,
                  "train: ROC-AUC " + std::to_string(eval.roc_auc) +
                      " != rank-sum " + std::to_string(roc));
    ledger->Check(std::abs(ap - eval.pr_auc) <= 1e-9,
                  "train: PR-AUC " + std::to_string(eval.pr_auc) +
                      " != average precision " + std::to_string(ap));
    ledger->Check(eval.roc_auc > 0.5, "train: ROC-AUC " +
                                          std::to_string(eval.roc_auc) +
                                          " is no better than chance");
    (*run_->e2e)["roc_auc"] = {eval.roc_auc, "ratio"};
    (*run_->e2e)["pr_auc"] = {eval.pr_auc, "ratio"};
  }

 private:
  /// The training Fit runs, unrolled into the library calls it makes so
  /// each layer gets its own span. The lazy tape defers work until a
  /// value is read, so each span reads its result before closing.
  /// Corpus and pair split; `keep` stores them.
  void SetUp(bool keep) {
    setup_.Time(run_->tracer, "train", [&] {
      auto corpus = std::make_unique<Corpus>(BuildCorpus(
          kTrainCorpusSeed, kTrainDrugs, kTrainDrugs, run_->tracer));
      // A fixed number of pairs per class, drawn by the run's seed.
      Rng pair_rng(run_->seed ^ 0x7a17ULL);
      std::vector<data::LabeledPair> positives, negatives;
      for (const auto& pair :
           data::BuildBalancedPairs(*corpus->dataset, &pair_rng)) {
        (pair.label > 0.5f ? positives : negatives).push_back(pair);
      }
      pair_rng.Shuffle(positives);
      pair_rng.Shuffle(negatives);
      positives.resize(std::min(positives.size(), kPairsPerClass));
      positives.insert(positives.end(), negatives.begin(),
                       negatives.begin() + static_cast<ptrdiff_t>(
                                               positives.size()));
      auto split = data::RandomSplit(std::move(positives), kTrainFraction,
                                     &pair_rng);
      if (keep) {
        corpus_ = std::move(corpus);
        split_ = std::move(split);
      }
    });
  }

  std::vector<float> TracedFit(model::HyGnnModel* m) {
    Tracer* tracer = run_->tracer;
    Rng rng(config_.seed);
    tensor::Adam optimizer(m->Parameters(), config_.learning_rate, 0.9f,
                           0.999f, 1e-8f, config_.weight_decay);
    const auto labels = model::LabelsOf(split_.train);
    std::vector<float> losses;
    obs::SetKernelTimingEnabled(true);
    for (int32_t epoch = 0; epoch < config_.epochs; ++epoch) {
      ScopedSpan epoch_span(tracer, "hygnn.epoch");
      optimizer.ZeroGrad();
      tensor::Tensor embeddings, logits, loss;
      {
        ScopedSpan span(tracer, "hygnn.encoder.fwd");
        embeddings = m->EmbedDrugs(corpus_->context, /*training=*/true, &rng);
        (void)embeddings.data();
      }
      {
        ScopedSpan span(tracer, "hygnn.decoder.fwd");
        logits = m->ScorePairs(embeddings, split_.train, /*training=*/true, &rng);
        (void)logits.data();
      }
      {
        ScopedSpan span(tracer, "tensor.loss");
        loss = tensor::BceWithLogitsLoss(logits, labels);
        (void)loss.item();
      }
      {
        ScopedSpan span(tracer, "tensor.backward");
        loss.Backward();
      }
      {
        ScopedSpan span(tracer, "tensor.adam");
        optimizer.ClipGradNorm(config_.grad_clip);
        optimizer.Step();
      }
      losses.push_back(loss.item());
    }
    obs::SetKernelTimingEnabled(false);
    return losses;
  }

  RunContext* run_;
  SetupTimes setup_;
  std::unique_ptr<Corpus> corpus_;
  data::PairSplit split_;
  model::TrainConfig config_;
  std::unique_ptr<model::HyGnnModel> trained_;
  std::vector<float> reference_losses_;
  std::vector<double> fit_s_;
};

/// Model, store and server for one serving phase, torn down in reverse
/// order of construction (server before store before model).
struct ServingStack {
  std::unique_ptr<model::HyGnnModel> model;
  std::unique_ptr<serve::EmbeddingStore> store;
  std::unique_ptr<serve::Server> server;
};

/// The server as it ships: default options (1 worker, queue of 256
/// requests, batches of 64 pairs, 1000 us window).
serve::ServerOptions ServingOptions() { return serve::ServerOptions{}; }

void WarmUp(serve::Server* server, int32_t catalog, uint64_t seed) {
  std::vector<std::shared_ptr<serve::Server::Pending>> pending;
  for (auto& request : MakeRequests(seed, kWarmupRequests, catalog)) {
    pending.push_back(Unwrap(server->SubmitAsync(std::move(request)), "warm-up"));
  }
  for (auto& p : pending) Unwrap(p->Wait(), "warm-up wait");
}

/// Latencies of the requests the server completed, in schedule order.
/// A ladder rung charges refusals as infinitely late instead
/// (LatencyOrInfUs), since it judges a latency limit.
std::vector<double> CompletedLatencyUs(const StreamTimes& times) {
  std::vector<double> latency = LatencyOrInfUs(times);
  latency.erase(std::remove_if(latency.begin(), latency.end(),
                               [](double us) { return std::isinf(us); }),
                latency.end());
  return latency;
}

/// Latencies of one rate's completed requests across all rounds.
struct RateSamples {
  std::vector<double> latency_us;  // schedule order within each round
  std::vector<double> late_us;
  std::vector<double> queue_wait_p50, batch_pairs_mean;  // per round, traced
  /// Refused at admission (ResourceExhausted: the queue was full). Not
  /// failed operations, because how many a run meets depends on how long
  /// the host stalls the server, not on the inputs.
  int64_t refused = 0;
};

/// One line of tail detail: p50, p90 and p99, each pooled and windowed,
/// the highest percentile the pooled sample supports, and the refusals.
void PrintTails(const char* label, const std::vector<double>& latency_us,
                int64_t refused) {
  std::printf("tails %s: n=%zu refused=%lld", label, latency_us.size(),
              static_cast<long long>(refused));
  for (double q : {50.0, 90.0, 99.0}) {
    std::printf(" p%g=%.3f/%.3f", q, Percentile(latency_us, q) / 1e3,
                WindowedPercentile(latency_us, kTailWindow, q) / 1e3);
  }
  const double top =
      HighestSupportedPercentile(static_cast<int64_t>(latency_us.size()));
  std::printf(" ms (pooled/windowed); pooled p%g=%.3f ms\n", top,
              Percentile(latency_us, top) / 1e3);
}

class ServePhase {
 public:
  ServePhase(RunContext* run, const TrainPhase& train) : run_(run), train_(train) {
    hygnn::core::SetNumThreads(1);
    catalog_ = train.corpus().context.num_edges;
    bundle_path_ = run->out_dir + "/bundle-" + std::to_string(run->seed) + ".bin";
    Require(train.trained().Save(bundle_path_,
                                 train.corpus().featurizer->vocabulary()),
            "save bundle");
    SetUp(/*keep=*/true);
    scorer_ = std::make_unique<serve::PairScorer>(stack_.model.get(),
                                                  stack_.store.get());
  }

  void Round(int32_t round) {
    if (round > 0) SetUp(/*keep=*/false);
    const Plan& plan = run_->plan;
    const uint64_t round_seed = run_->seed ^ (static_cast<uint64_t>(round) << 32);
    Stream(&low_, "low", round_seed ^ 0x10, kLowQps, plan.low_per_round);
    Stream(&high_, "high", round_seed ^ 0x20, kHighQps, plan.high_per_round);
    if (run_->layer != nullptr) return;
    // Saturation ladder, climbed every round until two rungs in a row
    // miss. The knee is the mean of the per-round knees without the
    // highest and lowest, so a rung that misses only because the host
    // stalled moves the figure by at most a share of one step.
    // Refusals above the knee are what it looks for, so they are
    // reported in the probe's own line and not counted as failures.
    std::vector<Rung> rungs;
    int32_t misses = 0;
    std::printf("ladder round %d:", round);
    for (double rate : kLadderQps) {
      const auto count = static_cast<int64_t>(rate * plan.rung_seconds);
      auto stream = RunStream(stack_.server.get(),
                              round_seed ^ static_cast<uint64_t>(rate), rate,
                              count, catalog_);
      run_->ledger->attempted += count;
      run_->ledger->failed += stream->failed;
      // The ladder sends most of the run's requests; a sample of them
      // keeps the check from costing more than the probe.
      CheckAgainstSerial(*stream, *scorer_, "ladder", run_->ledger,
                         kLadderCheckStride);
      const auto latency = LatencyOrInfUs(stream->times);
      Rung rung;
      rung.rate_per_s = rate;
      rung.offered = count;
      rung.refused = stream->refused;
      rung.tail_ms = WindowedPercentile(latency, kTailWindow, 99) / 1e3;
      rung.backlog_ms = Percentile(
          std::vector<double>(latency.end() - std::min<int64_t>(count, kTailWindow),
                              latency.end()), 50) / 1e3;
      rungs.push_back(rung);
      const bool holds = RungHolds(rung, kLatencyLimitMs, kMaxRefusedShare);
      std::printf(" %.0f:%s(p99 %.2f, end p50 %.2f ms, refused %lld)", rate,
                  holds ? "holds" : "misses", rung.tail_ms, rung.backlog_ms,
                  static_cast<long long>(rung.refused));
      misses = holds ? 0 : misses + 1;
      if (misses == 2) break;
    }
    std::printf("\n");
    knees_.push_back(KneeRate(rungs, kLatencyLimitMs, kMaxRefusedShare));
  }

  void Finish() {
    Metrics* e2e = run_->e2e;
    Metrics* layer = run_->layer;
    for (const auto& [label, samples] :
         {std::pair<const char*, RateSamples*>{"low", &low_}, {"high", &high_}}) {
      PrintTails(label, samples->latency_us, samples->refused);
      (*e2e)[std::string("score_p50_ms.") + label] = {
          Percentile(samples->latency_us, 50) / 1e3, "ms"};
      (*e2e)[std::string("score_p99_ms.") + label] = {
          WindowedPercentile(samples->latency_us, kTailWindow, 99) / 1e3, "ms"};
      if (layer != nullptr) {
        (*layer)[std::string("serve.server.queue_wait_us.p50.") + label] = {
            Median(samples->queue_wait_p50), "us"};
        (*layer)[std::string("serve.server.batch_pairs.mean.") + label] = {
            Median(samples->batch_pairs_mean), "count"};
        (*layer)[std::string("serve.server.refused.") + label] = {
            static_cast<double>(samples->refused), "count"};
      }
    }
    if (layer == nullptr) {
      std::printf("knee per round:");
      for (double k : knees_) std::printf(" %.0f", k);
      std::printf(" /s\n");
      (*e2e)["knee_qps"] = {TrimmedMean(knees_), "1/s"};
    } else {
      (*layer)["serve.server.batch_score_us.p50"] = {Median(batch_score_p50_), "us"};
      (*layer)["serve.scoring.gather_us.p50"] = {Median(gather_p50_), "us"};
      (*layer)["serve.scoring.decode_us.p50"] = {Median(decode_p50_), "us"};
      std::vector<double> late = low_.late_us;
      late.insert(late.end(), high_.late_us.begin(), high_.late_us.end());
      (*layer)["serve.gen.late_us.p99"] = {Percentile(late, 99), "us"};
      DirectCalls();
      (*layer)["trace.overhead.score_p50_ms.high"] = {
          (*e2e)["score_p50_ms.high"].value /
              run_->untraced->at("score_p50_ms.high").value, "ratio"};
    }
    const auto stats = stack_.server->stats();
    run_->ledger->Check(stats.completed == stats.accepted && stats.expired == 0,
                        "serve: server completed " + std::to_string(stats.completed) +
                            " of " + std::to_string(stats.accepted) + " accepted");
    stack_.server->Shutdown();
    std::filesystem::remove(bundle_path_);
    run_->setup_s.push_back(setup_.Fastest("serve"));
  }

 private:
  /// Bundle load, store rebuild, server start and warm-up; `keep`
  /// stores the stack.
  void SetUp(bool keep) {
    Tracer* tracer = run_->tracer;
    setup_.Time(tracer, "serve", [&] {
      ServingStack candidate;
      {
        ScopedSpan span(tracer, "serve.bundle.load");
        candidate.model = std::make_unique<model::HyGnnModel>(
            Unwrap(model::HyGnnModel::Load(bundle_path_), "load bundle"));
      }
      candidate.store =
          std::make_unique<serve::EmbeddingStore>(candidate.model.get());
      {
        ScopedSpan span(tracer, "serve.store.rebuild");
        Require(candidate.store->Rebuild(train_.corpus().context), "Rebuild");
      }
      {
        ScopedSpan span(tracer, "serve.server.start");
        candidate.server = std::make_unique<serve::Server>(
            candidate.model.get(), candidate.store.get(), ServingOptions());
        Require(candidate.server->Start(), "Server::Start");
        WarmUp(candidate.server.get(), catalog_, run_->seed);
      }
      if (keep) stack_ = std::move(candidate);
    });
  }

  void Stream(RateSamples* samples, const char* label, uint64_t seed,
              double rate, int64_t count) {
    const bool traced = run_->layer != nullptr;
    if (traced) obs::MetricsRegistry::Global().ResetValues();
    std::unique_ptr<OpenLoop> stream;
    {
      ScopedSpan span(run_->tracer, std::string("serve.stream.") + label);
      stream = RunStream(stack_.server.get(), seed, rate, count, catalog_);
    }
    if (traced) {
      samples->queue_wait_p50.push_back(
          RegistryQuantile("serve.server.queue_wait_us", 0.5));
      samples->batch_pairs_mean.push_back(RegistryMean("serve.server.batch_pairs"));
      if (samples == &high_) {
        batch_score_p50_.push_back(RegistryQuantile("serve.server.batch_score_us", 0.5));
        gather_p50_.push_back(RegistryQuantile("serve.gather_us", 0.5));
        decode_p50_.push_back(RegistryQuantile("serve.decode_us", 0.5));
      }
    }
    run_->ledger->attempted += count;
    run_->ledger->failed += stream->failed;
    samples->refused += stream->refused;
    CheckAgainstSerial(*stream, *scorer_, label, run_->ledger);
    if (samples == &high_ && high_.latency_us.empty()) {
      CheckAgainstReference(*stream, *stack_.model,
                            *stack_.store->Snapshot(), seed, run_->ledger);
    }
    const auto latency = CompletedLatencyUs(stream->times);
    samples->latency_us.insert(samples->latency_us.end(), latency.begin(),
                               latency.end());
    const auto late = LatenessUs(stream->times);
    samples->late_us.insert(samples->late_us.end(), late.begin(), late.end());
  }

  /// Direct calls at the server's batch size, and into the read side.
  void DirectCalls() {
    Metrics& layer = *run_->layer;
    const int32_t batch = ServingOptions().max_batch;
    auto requests = MakeRequests(run_->seed ^ 0xd1ec7ULL, 2000, catalog_);
    for (auto& r : requests) {
      while (static_cast<int32_t>(r.pairs.size()) < batch) {
        r.pairs.push_back(r.pairs[r.pairs.size() % kPairsPerRequest]);
      }
    }
    double start = NowS();
    int64_t pairs = 0;
    for (const auto& r : requests) {
      pairs += static_cast<int64_t>(
          Unwrap(scorer_->ScorePairs(r), "ScorePairs").scores.size());
    }
    layer["serve.scoring.pairs_per_s"] = {static_cast<double>(pairs) / (NowS() - start), "1/s"};
    constexpr int32_t kSnapshots = 200000;
    int64_t live = 0;
    start = NowS();
    for (int32_t i = 0; i < kSnapshots; ++i) live += stack_.store->Snapshot() != nullptr;
    layer["serve.store.snapshot_ns"] = {(NowS() - start) * 1e9 / kSnapshots, "ns"};
    run_->ledger->Check(live == kSnapshots, "serve: Snapshot() returned null");
  }

  RunContext* run_;
  const TrainPhase& train_;
  SetupTimes setup_;
  int32_t catalog_ = 0;
  std::string bundle_path_;
  ServingStack stack_;
  std::unique_ptr<serve::PairScorer> scorer_;
  RateSamples low_, high_;
  std::vector<double> knees_;
  std::vector<double> batch_score_p50_, gather_p50_, decode_p50_;
};

class CatalogPhase {
 public:
  explicit CatalogPhase(RunContext* run) : run_(run) {
    hygnn::core::SetNumThreads(1);
    seed_ = run->seed ^ 0xca7a10ULL;
    SetUp(/*keep=*/true);
    initial_ = stack_.store->Snapshot();
    engine_ = std::make_unique<serve::ScreeningEngine>(stack_.model.get(),
                                                       stack_.store.get());
    scorer_ = std::make_unique<serve::PairScorer>(stack_.model.get(),
                                                  stack_.store.get());
    live_max_ = serve::StoreSnapshot::LiveCount();
  }

  void Round(int32_t round) {
    if (round > 0) SetUp(/*keep=*/false);
    const Plan& plan = run_->plan;
    Ledger* ledger = run_->ledger;
    Tracer* tracer = run_->tracer;
    const bool traced = run_->layer != nullptr;
    serve::EmbeddingStore* store = stack_.store.get();
    const uint64_t round_seed = seed_ ^ (static_cast<uint64_t>(round) << 32);
    const auto background =
        static_cast<int64_t>(kChurnQps * plan.churn_seconds_per_round);
    if (traced) obs::MetricsRegistry::Global().ResetValues();
    OpenLoop stream(stack_.server.get(),
                    PoissonSchedule(round_seed ^ 0xb6ULL, kChurnQps, background),
                    MakeRequests(round_seed ^ 0xb7ULL, background, kCatalogStart));
    const double t0 = NowS() + 0.002;
    stream.Start(t0);
    const auto& drugs = corpus_->dataset->drugs();
    for (int32_t k = 0; k < plan.adds_per_round; ++k) {
      WaitUntil(t0 + plan.churn_seconds_per_round * k / plan.adds_per_round);
      const std::string& smiles = drugs[static_cast<size_t>(
          kCatalogStart + static_cast<int32_t>(added_.size()))].smiles;
      const int32_t before = store->num_drugs();
      double start = NowS();
      int32_t id = -1;
      ++ledger->attempted;
      if (!traced) {
        auto added = store->AddDrugSmiles(*corpus_->featurizer, smiles);
        add_ms_.push_back((NowS() - start) * 1e3);
        if (!added.ok()) {
          ++ledger->failed;
          continue;
        }
        id = added.value();
      } else {
        std::vector<int32_t> members;
        {
          ScopedSpan span(tracer, "chem.segment");
          members = Unwrap(corpus_->featurizer->SegmentNewSmiles(smiles), "segment");
        }
        const double mid = NowS();
        {
          ScopedSpan span(tracer, "serve.store.add_drug");
          id = Unwrap(store->AddDrug(members), "AddDrug");
        }
        segment_us_.push_back((mid - start) * 1e6);
        add_only_us_.push_back((NowS() - mid) * 1e6);
        add_ms_.push_back((NowS() - start) * 1e3);
        bytes_copied_.push_back(static_cast<double>(before) *
                                static_cast<double>(store->dim()) * sizeof(float));
      }
      live_max_ = std::max(live_max_, serve::StoreSnapshot::LiveCount());
      added_.push_back(id);
      start = NowS();
      auto screened = engine_->Screen({id, kTopK});
      const double ms = (NowS() - start) * 1e3;
      ++ledger->attempted;
      if (!screened.ok()) {
        ++ledger->failed;
        screens_.emplace_back();
        continue;
      }
      screen_ms_.push_back(ms);
      per_kdrug_us_.push_back(ms * 1e3 / (static_cast<double>(id + 1) / 1000.0));
      screens_.push_back(std::move(screened).value().hits);
    }
    stream.Join();
    ledger->attempted += background;
    ledger->failed += stream.failed;
    churn_.refused += stream.refused;
    // Background scores were served across every swap; rows of drugs
    // already in the catalog never change, so serial scoring now must
    // reproduce each of them byte for byte.
    CheckAgainstSerial(stream, *scorer_, "churn", ledger);
    const auto latency = CompletedLatencyUs(stream.times);
    churn_.latency_us.insert(churn_.latency_us.end(), latency.begin(),
                             latency.end());
    if (traced) {
      build_p50_.push_back(RegistryQuantile("serve.topk_build_us", 0.5));
      score_p50_.push_back(RegistryQuantile("serve.topk_score_us", 0.5));
      rank_p50_.push_back(RegistryQuantile("serve.topk_rank_us", 0.5));
      queue_wait_p50_.push_back(RegistryQuantile("serve.server.queue_wait_us", 0.5));
    }
  }

  void Finish() {
    Metrics* e2e = run_->e2e;
    const auto& churn_us = churn_.latency_us;
    PrintTails("churn", churn_us, churn_.refused);
    (*e2e)["add_drug_p50_ms"] = {Median(add_ms_), "ms"};
    (*e2e)["screen_p50_ms"] = {Median(screen_ms_), "ms"};
    (*e2e)["score_p50_ms.churn"] = {Percentile(churn_us, 50) / 1e3, "ms"};
    (*e2e)["score_p99_ms.churn"] = {
        WindowedPercentile(churn_us, kTailWindow, 99) / 1e3, "ms"};
    if (Metrics* layer = run_->layer; layer != nullptr) {
      (*layer)["chem.segment_us.p50"] = {Median(segment_us_), "us"};
      (*layer)["serve.store.add_drug_us.p50"] = {Median(add_only_us_), "us"};
      double bytes = 0.0;
      for (double b : bytes_copied_) bytes += b;
      (*layer)["serve.store.bytes_copied_per_add"] = {
          bytes / static_cast<double>(std::max<size_t>(1, bytes_copied_.size())), "bytes"};
      (*layer)["serve.screen.build_us.p50"] = {Median(build_p50_), "us"};
      (*layer)["serve.screen.score_us.p50"] = {Median(score_p50_), "us"};
      (*layer)["serve.screen.rank_us.p50"] = {Median(rank_p50_), "us"};
      (*layer)["serve.screen.us_per_kdrug"] = {Median(per_kdrug_us_), "us"};
      (*layer)["serve.server.queue_wait_us.p50.churn"] = {Median(queue_wait_p50_), "us"};
      (*layer)["serve.server.refused.churn"] = {static_cast<double>(churn_.refused),
                                                "count"};
      (*layer)["serve.store.live_snapshots.max"] = {static_cast<double>(live_max_), "count"};
      for (const char* name : {"add_drug_p50_ms", "screen_p50_ms"}) {
        (*layer)[std::string("trace.overhead.") + name] = {
            (*e2e)[name].value / run_->untraced->at(name).value, "ratio"};
      }
    }
    CheckScreens();
    CheckRows();
    stack_.server->Shutdown();
    run_->setup_s.push_back(setup_.Fastest("catalog"));
  }

 private:
  /// Catalog corpus, store rebuild, server start and warm-up; `keep`
  /// stores them.
  void SetUp(bool keep) {
    const int32_t adds = run_->plan.adds_per_round * run_->plan.rounds;
    setup_.Time(run_->tracer, "catalog", [&] {
      auto corpus = std::make_unique<Corpus>(
          BuildCorpus(seed_, kCatalogStart + adds, kCatalogStart, run_->tracer));
      ServingStack candidate;
      // Untrained paper-config weights: serving cost does not depend on
      // the weight values, and training a 1000-drug corpus would swamp
      // the set-up.
      candidate.model = FreshModel(corpus->featurizer->num_substructures(), seed_);
      candidate.store =
          std::make_unique<serve::EmbeddingStore>(candidate.model.get());
      {
        ScopedSpan span(run_->tracer, "serve.store.rebuild");
        Require(candidate.store->Rebuild(corpus->context), "Rebuild");
      }
      {
        ScopedSpan span(run_->tracer, "serve.server.start");
        candidate.server = std::make_unique<serve::Server>(
            candidate.model.get(), candidate.store.get(), ServingOptions());
        Require(candidate.server->Start(), "Server::Start");
        WarmUp(candidate.server.get(), kCatalogStart, seed_);
      }
      if (keep) {
        corpus_ = std::move(corpus);
        stack_ = std::move(candidate);
      }
    });
  }

  /// A seeded sample of screens, plus the last, against brute force at
  /// the catalog size of their time (the client is the only writer, so
  /// the screen of drug q saw drugs 0..q, and rows never change).
  void CheckScreens() {
    Rng rng(seed_ ^ 0x5c7ULL);
    std::vector<size_t> sample;
    for (int32_t s = 0; s < 16; ++s) {
      sample.push_back(static_cast<size_t>(rng.UniformInt(added_.size())));
    }
    sample.push_back(added_.size() - 1);
    for (size_t k : sample) {
      const int32_t query = added_[k];
      serve::ScoreRequest request;
      std::vector<int32_t> candidates;
      for (int32_t d = 0; d < query; ++d) {
        request.pairs.push_back({query, d, 0.0f});
        candidates.push_back(d);
      }
      const auto scores =
          Unwrap(scorer_->ScorePairs(request), "brute ScorePairs").scores;
      const auto top = BruteTopK(candidates, scores, kTopK);
      bool same = top.size() == screens_[k].size();
      for (size_t i = 0; same && i < top.size(); ++i) {
        same = top[i] == screens_[k][i].drug &&
               scores[static_cast<size_t>(top[i])] == screens_[k][i].score;
      }
      run_->ledger->Check(same, "catalog: screen of drug " + std::to_string(query) +
                                    " differs from brute-force top-k");
    }
  }

  /// Added rows against a fresh Rebuild over the hypergraph extended up
  /// to and including that drug (later drugs change earlier rows in a
  /// full encode, so each check uses its own prefix); rows of the
  /// starting catalog unchanged after every swap.
  void CheckRows() {
    const auto final_snapshot = stack_.store->Snapshot();
    const size_t initial_bytes = static_cast<size_t>(kCatalogStart) *
                                 static_cast<size_t>(initial_->dim()) * sizeof(float);
    run_->ledger->Check(
        std::memcmp(initial_->Row(0), final_snapshot->Row(0), initial_bytes) == 0,
        "catalog: rows of the starting catalog changed across swaps");
    std::vector<std::vector<int32_t>> extended = corpus_->members;
    const std::vector<size_t> sample = {0, added_.size() / 2, added_.size() - 1};
    size_t next = 0;
    const auto& drugs = corpus_->dataset->drugs();
    for (size_t k = 0; k < added_.size() && next < sample.size(); ++k) {
      extended.push_back(Unwrap(corpus_->featurizer->SegmentNewSmiles(
                                    drugs[kCatalogStart + k].smiles),
                                "segment"));
      if (k != sample[next]) continue;
      ++next;
      auto hypergraph = graph::BuildDrugHypergraph(
          extended, corpus_->featurizer->num_substructures());
      const auto context = model::HypergraphContext::FromHypergraph(hypergraph);
      serve::EmbeddingStore fresh(stack_.model.get());
      Require(fresh.Rebuild(context), "fresh Rebuild");
      const int32_t id = added_[k];
      run_->ledger->Check(
          std::memcmp(fresh.Row(id), final_snapshot->Row(id),
                      static_cast<size_t>(fresh.dim()) * sizeof(float)) == 0,
          "catalog: added row " + std::to_string(id) +
              " differs from a fresh Rebuild");
    }
  }

  RunContext* run_;
  SetupTimes setup_;
  uint64_t seed_ = 0;
  std::unique_ptr<Corpus> corpus_;
  ServingStack stack_;
  std::shared_ptr<const serve::StoreSnapshot> initial_;
  std::unique_ptr<serve::ScreeningEngine> engine_;
  std::unique_ptr<serve::PairScorer> scorer_;
  std::vector<int32_t> added_;
  std::vector<std::vector<serve::ScreeningHit>> screens_;
  std::vector<double> add_ms_, screen_ms_, per_kdrug_us_;
  RateSamples churn_;
  std::vector<double> segment_us_, add_only_us_, bytes_copied_;
  std::vector<double> build_p50_, score_p50_, rank_p50_, queue_wait_p50_;
  int64_t live_max_ = 0;
};

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int32_t seconds = 20;
  int32_t trace = 0;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--out_dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) &&
         (args->workload == "train" || args->workload == "serve" ||
          args->workload == "catalog") &&
         args->seconds >= 1 && (args->trace == 0 || args->trace == 1);
}

std::string FpContractMode() {
  const std::string flags = PERFBENCH_FLAGS;
  const auto at = flags.find("-ffp-contract=");
  if (at != std::string::npos) {
    return flags.substr(at + 14, flags.find(' ', at) - at - 14);
  }
#if defined(__clang__)
  return "on (clang default)";
#else
  return "fast (GCC default outside ISO C)";
#endif
}

void PrintProvenance(const Args& args) {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  const char* tree = std::getenv("PERFBENCH_SRC_SHA256");
  std::printf("provenance: git_sha=%s src_sha256=%s nproc=%u compiler=\"%s\" "
              "build_type=%s flags=\"%s\" fp_contract=\"%s\"\n",
              sha != nullptr ? sha : "unknown", tree != nullptr ? tree : "unknown",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS, FpContractMode().c_str());
  std::printf("threads: kernel_pool=%d (training; 1 while serving) "
              "server_workers=%d generator=1 waiter=1 client=1\n",
              kKernelThreads, ServingOptions().workers);
  std::printf("run: workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
}

/// One pass over the three phases, interleaved in rounds.
void RunPass(const Args& args, Tracer* tracer, Ledger* ledger, Metrics* e2e,
             Metrics* layer, const Metrics* untraced) {
  RunContext run;
  run.seed = args.seed;
  run.plan = MakePlan(args.workload, args.seconds);
  run.out_dir = args.out_dir;
  run.tracer = tracer;
  run.ledger = ledger;
  run.e2e = e2e;
  run.layer = layer;
  run.untraced = untraced;
  TrainPhase train(&run);
  ServePhase serving(&run, train);
  CatalogPhase catalog(&run);
  for (int32_t round = 0; round < run.plan.rounds; ++round) {
    train.Round(round);
    serving.Round(round);
    catalog.Round(round);
  }
  train.Finish();
  serving.Finish();
  catalog.Finish();
  double setup = 0.0;
  for (double s : run.setup_s) setup += s;
  (*e2e)["setup_s"] = {setup, "s"};
  (*e2e)["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  if (layer != nullptr) {
    // Set-up layers: per phase, the fastest span of the name directly
    // inside that phase's set-up spans; summed over phases.
    const auto& spans = tracer->spans();
    for (const char* name : {"data.generate", "chem.featurize", "graph.context",
                             "serve.bundle.load", "serve.store.rebuild"}) {
      double total = 0.0;
      for (const char* phase : {"setup.train", "setup.serve", "setup.catalog"}) {
        double fastest = std::numeric_limits<double>::infinity();
        for (const auto& span : spans) {
          if (span.name == name && span.parent >= 0 &&
              spans[static_cast<size_t>(span.parent)].name == phase) {
            fastest = std::min(fastest, (span.end_ns - span.start_ns) / 1e6);
          }
        }
        if (fastest < std::numeric_limits<double>::infinity()) total += fastest;
      }
      (*layer)[std::string(name) + "_ms"] = {total, "ms"};
    }
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload train|serve|catalog --seed N "
                 "--seconds S --trace 0|1 [--out_dir DIR]\n");
    return 2;
  }
  if (HighestSupportedPercentile(kTailWindow) < 99.0) {
    std::fprintf(stderr, "fatal: a %lld-request window cannot support a p99\n",
                 static_cast<long long>(kTailWindow));
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  PrintProvenance(args);

  Ledger ledger;
  Metrics e2e;
  Tracer untraced(false);
  RunPass(args, &untraced, &ledger, &e2e, nullptr, nullptr);
  std::printf("end_to_end: %s\n", MetricsJson(e2e).c_str());

  Metrics output = e2e;
  if (args.trace == 1) {
    Tracer tracer(true);
    Metrics traced_e2e, layer;
    obs::SetMetricsEnabled(true);
    RunPass(args, &tracer, &ledger, &traced_e2e, &layer, &e2e);
    obs::SetMetricsEnabled(false);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    ledger.Check(tracer.WriteJsonLines(path), "could not write " + path);
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                path.c_str());
    output = layer;
  }
  for (const auto& [name, metric] : output) {
    ledger.Check(std::isfinite(metric.value), name + " is not a finite number");
  }
  const bool correct = ledger.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(ledger.attempted),
              static_cast<long long>(ledger.failed),
              MetricsJson(output).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
