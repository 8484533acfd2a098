// Checks of the benchmark's own arithmetic on synthetic inputs: the
// percentile rule, the arrival schedule, lateness and latency accounting,
// the knee rule and the reference metrics. Exits 1 on the first failed
// expectation. Run with `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "reference.h"
#include "stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b, double tol) { return std::abs(a - b) <= tol; }

void TestPercentileRule() {
  // Nearest rank over 1..100: p50 = 50, p99 = 99, p100 = 100.
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT(Percentile(values, 50) == 50);
  EXPECT(Percentile(values, 99) == 99);
  EXPECT(Percentile(values, 100) == 100);
  EXPECT(Percentile(values, 0) == 1);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Percentile({}, 50) == 0);
  // Highest percentile with at least ten samples beyond it.
  EXPECT(HighestSupportedPercentile(39) == 0);     // median alone
  EXPECT(HighestSupportedPercentile(99) == 0);     // p90 needs 100
  EXPECT(HighestSupportedPercentile(100) == 90);   // 10 beyond p90
  EXPECT(HighestSupportedPercentile(199) == 90);   // p95 has 9.95
  EXPECT(HighestSupportedPercentile(200) == 95);
  EXPECT(HighestSupportedPercentile(999) == 95);
  EXPECT(HighestSupportedPercentile(1000) == 99);  // the p99 metrics' floor
  EXPECT(HighestSupportedPercentile(9999) == 99);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
}

void TestWindowedPercentile() {
  // Five windows of 100; one holds a stall. The median of the window
  // p99s ignores it, the pooled p99 does not.
  std::vector<double> values;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) values.push_back(w == 2 && i > 50 ? 1000 : i);
  }
  EXPECT(WindowedPercentile(values, 100, 99) == 99);
  EXPECT(Percentile(values, 99) == 1000);
  // A short tail joins the last full window; fewer than one window of
  // values is one window.
  values.push_back(5000);
  EXPECT(WindowedPercentile(values, 100, 99) == 99);
  EXPECT(WindowedPercentile({1, 2, 3}, 100, 50) == 2);
  // Refusals are infinitely late: a window of them misses any limit.
  std::vector<double> refused(100, std::numeric_limits<double>::infinity());
  EXPECT(std::isinf(WindowedPercentile(refused, 100, 99)));
}

void TestSchedule() {
  const auto a = PoissonSchedule(7, 1000.0, 20000);
  const auto b = PoissonSchedule(7, 1000.0, 20000);
  const auto c = PoissonSchedule(8, 1000.0, 20000);
  EXPECT(a == b);  // same seed, same schedule
  EXPECT(a != c);
  bool increasing = a.front() > 0.0;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  EXPECT(increasing);
  // Mean gap 1/rate: 20000 arrivals at 1000/s take ~20 s (sd ~0.14 s).
  EXPECT(Near(a.back(), 20.0, 0.7));
  // Exponential gaps: about e^-1 of them exceed the mean.
  int64_t longer = 0;
  for (size_t i = 1; i < a.size(); ++i) longer += (a[i] - a[i - 1]) > 1e-3;
  EXPECT(Near(static_cast<double>(longer) / 20000.0, std::exp(-1.0), 0.02));
}

void TestLatenessAndLatency() {
  StreamTimes times;
  times.due = {1.000, 1.001, 1.002, 1.003};
  times.sent = {1.000, 1.0015, 1.004, 1.003};  // the generator stalled
  times.done = {1.0005, 1.0025, 1.0045, -1.0};  // the last was refused
  const auto late = LatenessUs(times);
  EXPECT(late.size() == 4);
  EXPECT(Near(late[0], 0.0, 1e-6) && Near(late[1], 500.0, 1e-6));
  EXPECT(Near(late[2], 2000.0, 1e-6) && Near(late[3], 0.0, 1e-6));
  const auto latency = LatencyOrInfUs(times);
  EXPECT(latency.size() == 4);
  EXPECT(Near(latency[0], 500.0, 1e-6));
  // Measured from the due time: the stall is charged to the request.
  EXPECT(Near(latency[1], 1500.0, 1e-6));
  EXPECT(Near(latency[2], 2500.0, 1e-6));
  EXPECT(std::isinf(latency[3]));  // refused: misses any limit
  // A send can never be early.
  times.sent[0] = 0.999;
  EXPECT(LatenessUs(times)[0] == 0.0);
}

void TestKnee() {
  const double limit = 5.0, share = 0.01;
  std::vector<Rung> rungs = {
      {1000, 250, 0, 1.0, 0.5},     // holds
      {2000, 500, 5, 4.9, 0.9},     // holds: 1% refused is allowed
      {4000, 1000, 11, 4.0, 1.0},   // refusals above 1%
      {3000, 750, 0, 5.1, 1.0},     // tail over the limit
      {8000, 2000, 900, std::numeric_limits<double>::infinity(), 9.0},
      {5000, 1250, 0, 4.0, 6.0},    // the last arrivals wait: backlog grows
  };
  EXPECT(RungHolds(rungs[0], limit, share) && RungHolds(rungs[1], limit, share));
  EXPECT(!RungHolds(rungs[2], limit, share));
  EXPECT(!RungHolds(rungs[3], limit, share));
  EXPECT(!RungHolds(rungs[4], limit, share));
  EXPECT(!RungHolds(rungs[5], limit, share));
  EXPECT(KneeRate(rungs, limit, share) == 2000);
  // A holding rung above a missed one still counts: the highest holds.
  rungs.push_back({6000, 1500, 0, 2.0, 1.0});
  EXPECT(KneeRate(rungs, limit, share) == 6000);
  EXPECT(KneeRate({{1000, 0, 0, 0, 0}}, limit, share) == 0);  // nothing offered
  EXPECT(KneeRate({}, limit, share) == 0);
  // Per-round knees: one stalled round (0) and one lucky one drop out.
  EXPECT(TrimmedMean({39000, 0, 42900, 35400, 51900}) == (39000 + 42900 + 35400) / 3.0);
  EXPECT(TrimmedMean({2, 4}) == 3);
  EXPECT(TrimmedMean({}) == 0);
}

void TestReferenceMetrics() {
  // Perfect ranking, reversed ranking, and one tie across classes.
  EXPECT(RankSumRocAuc({0.1f, 0.2f, 0.8f, 0.9f}, {0, 0, 1, 1}) == 1.0);
  EXPECT(RankSumRocAuc({0.9f, 0.8f, 0.2f, 0.1f}, {0, 0, 1, 1}) == 0.0);
  EXPECT(RankSumRocAuc({0.5f, 0.5f}, {0, 1}) == 0.5);
  EXPECT(RankSumRocAuc({0.3f, 0.7f}, {1, 1}) == 0.5);  // one class absent
  // Positives at 0.9, 0.7, 0.1 and negatives at 0.8, 0.6: 3 of the 6
  // positive-negative pairs are ordered correctly.
  EXPECT(Near(RankSumRocAuc({0.9f, 0.8f, 0.7f, 0.6f, 0.1f}, {1, 0, 1, 0, 1}),
              0.5, 1e-12));
  EXPECT(Near(RankSumRocAuc({0.9f, 0.8f, 0.7f, 0.6f}, {1, 1, 0, 1}),
              2.0 / 3.0, 1e-12));
  // Average precision of ranking 1,0,1: (1/1 + 2/3) / 2.
  EXPECT(Near(StepAveragePrecision({0.9f, 0.5f, 0.1f}, {1, 0, 1}),
              (1.0 + 2.0 / 3.0) / 2.0, 1e-12));
  // A tie is one threshold: both enter together at precision 1/2.
  EXPECT(Near(StepAveragePrecision({0.5f, 0.5f}, {1, 0}), 0.5, 1e-12));
  EXPECT(StepAveragePrecision({0.5f}, {0}) == 0.0);
  // Top-k: descending score, ties by ascending id.
  const auto top = BruteTopK({4, 2, 9, 7}, {0.5f, 0.9f, 0.5f, 0.1f}, 3);
  EXPECT((top == std::vector<int32_t>{2, 4, 9}));
  EXPECT(BruteTopK({1, 2}, {0.1f, 0.2f}, 5).size() == 2);
}

void TestReferenceDecoder() {
  // dim 1, hidden 2: h = relu([a, b] W1 + b1), logit = h . w2 + b2.
  ReferenceDecoder ref;
  ref.dim = 1;
  ref.hidden = 2;
  ref.w1 = {1.0f, -1.0f,   // row for a
            2.0f, 0.5f};   // row for b
  ref.b1 = {0.0f, 0.25f};
  ref.w2 = {1.0f, 2.0f};
  ref.b2 = -1.0f;
  const float a = 1.0f, b = 0.5f;
  // z = (1*1 + 0.5*2 + 0, 1*-1 + 0.5*0.5 + 0.25) = (2, -0.5) -> h = (2, 0)
  // logit = 2 - 1 = 1.
  EXPECT(Near(ref.Probability(&a, &b), 1.0 / (1.0 + std::exp(-1.0)), 1e-12));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestWindowedPercentile();
  perfbench::TestSchedule();
  perfbench::TestLatenessAndLatency();
  perfbench::TestKnee();
  perfbench::TestReferenceMetrics();
  perfbench::TestReferenceDecoder();
  if (perfbench::g_failures != 0) {
    std::printf("selftest: %d failure(s)\n", perfbench::g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
