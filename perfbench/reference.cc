#include "reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace perfbench {

double ReferenceDecoder::Probability(const float* a, const float* b) const {
  double logit = b2;
  for (int64_t h = 0; h < hidden; ++h) {
    double z = b1[static_cast<size_t>(h)];
    for (int64_t i = 0; i < dim; ++i) {
      z += static_cast<double>(a[i]) * w1[static_cast<size_t>(i * hidden + h)];
      z += static_cast<double>(b[i]) *
           w1[static_cast<size_t>((dim + i) * hidden + h)];
    }
    if (z > 0.0) logit += z * w2[static_cast<size_t>(h)];
  }
  return 1.0 / (1.0 + std::exp(-logit));
}

double RankSumRocAuc(const std::vector<float>& scores,
                     const std::vector<float>& labels) {
  // Group samples by score; each group's members share the average of
  // the ranks the group spans.
  std::map<float, std::pair<int64_t, int64_t>> groups;  // score -> (n, pos)
  for (size_t i = 0; i < scores.size(); ++i) {
    auto& group = groups[scores[i]];
    ++group.first;
    if (labels[i] > 0.5f) ++group.second;
  }
  double rank_sum = 0.0;
  int64_t below = 0, positives = 0;
  for (const auto& [score, group] : groups) {
    const double average_rank =
        static_cast<double>(below) + (static_cast<double>(group.first) + 1.0) / 2.0;
    rank_sum += average_rank * static_cast<double>(group.second);
    positives += group.second;
    below += group.first;
  }
  const int64_t negatives = below - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  const double p = static_cast<double>(positives);
  return (rank_sum - p * (p + 1.0) / 2.0) /
         (p * static_cast<double>(negatives));
}

double StepAveragePrecision(const std::vector<float>& scores,
                            const std::vector<float>& labels) {
  std::map<float, std::pair<int64_t, int64_t>, std::greater<float>> groups;
  int64_t total_positives = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    auto& group = groups[scores[i]];
    ++group.first;
    if (labels[i] > 0.5f) {
      ++group.second;
      ++total_positives;
    }
  }
  if (total_positives == 0) return 0.0;
  double ap = 0.0;
  int64_t seen = 0, true_positives = 0;
  for (const auto& [score, group] : groups) {
    seen += group.first;
    true_positives += group.second;
    const double precision = static_cast<double>(true_positives) /
                             static_cast<double>(seen);
    ap += precision * static_cast<double>(group.second) /
          static_cast<double>(total_positives);
  }
  return ap;
}

std::vector<int32_t> BruteTopK(const std::vector<int32_t>& candidates,
                               const std::vector<float>& scores, int32_t k) {
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    if (scores[x] != scores[y]) return scores[x] > scores[y];
    return candidates[x] < candidates[y];
  });
  std::vector<int32_t> top;
  for (size_t i = 0; i < order.size() && static_cast<int32_t>(i) < k; ++i) {
    top.push_back(candidates[order[i]]);
  }
  return top;
}

}  // namespace perfbench
