#ifndef HYGNN_PERFBENCH_REFERENCE_H_
#define HYGNN_PERFBENCH_REFERENCE_H_

// Reference computations written apart from the program, used to check
// its outputs: a plain-loop MLP decoder, rank-sum ROC-AUC, step-wise
// average precision and a brute-force top-k.

#include <cstdint>
#include <vector>

namespace perfbench {

/// The HyGNN MLP decoder as plain loops in double precision:
///   p = sigmoid(w2 . relu(W1^T [a; b] + b1) + b2)
/// `w1` is [2*dim, hidden] row-major, `b1` [hidden], `w2` [hidden],
/// `b2` a scalar — the layout of MlpDecoder::Parameters().
struct ReferenceDecoder {
  int64_t dim = 0;
  int64_t hidden = 0;
  std::vector<float> w1, b1, w2;
  float b2 = 0.0f;

  double Probability(const float* a, const float* b) const;
};

/// Largest absolute probability difference the float decoder may show
/// against the double-precision reference. The float path sums 128
/// products per hidden unit and 64 per logit; 1e-5 is far above that
/// rounding and far below any real scoring fault.
inline constexpr double kDecoderTolerance = 1e-5;

/// ROC-AUC from the Mann-Whitney rank-sum: average ranks over ties,
/// (R+ - n+(n+ + 1)/2) / (n+ n-). 0.5 when a class is absent.
double RankSumRocAuc(const std::vector<float>& scores,
                     const std::vector<float>& labels);

/// Average precision with step-wise interpolation: the sum over distinct
/// score thresholds, highest first, of precision * (recall gained).
double StepAveragePrecision(const std::vector<float>& scores,
                            const std::vector<float>& labels);

/// Brute-force top-k: candidate ids ordered by descending score, ties by
/// ascending id, cut to k.
std::vector<int32_t> BruteTopK(const std::vector<int32_t>& candidates,
                               const std::vector<float>& scores, int32_t k);

}  // namespace perfbench

#endif  // HYGNN_PERFBENCH_REFERENCE_H_
