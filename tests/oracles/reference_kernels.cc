// The scalar reference kernels the production (batched) kernels in
// src/transfer/kernels.cc were derived from, kept as a differential-test
// oracle: straightforward loops in the textbook accumulation order. The
// math both families share (EvidenceGivenProjection, KnnVoteCorrect) is
// called from src/, not copied.

#include "tests/oracles/reference_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "matrix/eigen.h"
#include "transfer/kernels.h"

namespace tps {
namespace kernels {

double LeepReference(const Matrix& predictions,
                     const std::vector<int>& labels, size_t num_target) {
  const size_t n = predictions.rows();
  const size_t num_source = predictions.cols();
  // Empirical joint P(y, z).
  Matrix joint(num_target, num_source, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const size_t y = static_cast<size_t>(labels[i]);
    for (size_t z = 0; z < num_source; ++z) {
      joint.At(y, z) += predictions.At(i, z);
    }
  }
  for (size_t y = 0; y < num_target; ++y) {
    for (size_t z = 0; z < num_source; ++z) {
      joint.At(y, z) /= static_cast<double>(n);
    }
  }
  // Marginal P(z) and conditional P(y | z).
  std::vector<double> marginal(num_source, 0.0);
  for (size_t z = 0; z < num_source; ++z) {
    for (size_t y = 0; y < num_target; ++y) marginal[z] += joint.At(y, z);
  }
  Matrix conditional(num_target, num_source, 0.0);
  for (size_t z = 0; z < num_source; ++z) {
    if (marginal[z] <= 0.0) continue;  // Unused source label.
    for (size_t y = 0; y < num_target; ++y) {
      conditional.At(y, z) = joint.At(y, z) / marginal[z];
    }
  }
  // Mean log-likelihood of the expected empirical predictor.
  double total_log_likelihood = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t y = static_cast<size_t>(labels[i]);
    double eep = 0.0;
    for (size_t z = 0; z < num_source; ++z) {
      eep += conditional.At(y, z) * predictions.At(i, z);
    }
    // Guard log(0): an EEP of exactly zero means the label never co-occurs
    // with any predicted source label, which only happens on degenerate
    // inputs; floor it far below any realistic likelihood.
    total_log_likelihood += std::log(std::max(eep, 1e-12));
  }
  return total_log_likelihood / static_cast<double>(n);
}

double NceReference(const Matrix& predictions,
                    const std::vector<int>& labels, size_t num_target) {
  const size_t n = predictions.rows();
  const size_t num_source = predictions.cols();
  // Empirical joint of (y, argmax-z) counts.
  Matrix counts(num_target, num_source, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const int y = labels[i];
    size_t best_z = 0;
    for (size_t z = 1; z < num_source; ++z) {
      if (predictions.At(i, z) > predictions.At(i, best_z)) best_z = z;
    }
    counts.At(static_cast<size_t>(y), best_z) += 1.0;
  }

  // H(Y | Z) = sum_z P(z) * H(Y | Z = z).
  double conditional_entropy = 0.0;
  for (size_t z = 0; z < num_source; ++z) {
    double nz = 0.0;
    for (size_t y = 0; y < num_target; ++y) nz += counts.At(y, z);
    if (nz <= 0.0) continue;
    double h = 0.0;
    for (size_t y = 0; y < num_target; ++y) {
      const double p = counts.At(y, z) / nz;
      if (p > 0.0) h -= p * std::log(p);
    }
    conditional_entropy += (nz / static_cast<double>(n)) * h;
  }
  return -conditional_entropy;
}

StatusOr<double> LogMeReference(const Matrix& features,
                                const std::vector<int>& labels,
                                size_t num_target) {
  const size_t n = features.rows();
  const size_t dims = features.cols();

  // Gram matrix F^T F (D x D) and its spectrum, shared by all classes.
  Matrix gram(dims, dims, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < dims; ++a) {
      const double fa = features.At(i, a);
      if (fa == 0.0) continue;
      for (size_t b = a; b < dims; ++b) {
        gram.At(a, b) += fa * features.At(i, b);
      }
    }
  }
  for (size_t a = 0; a < dims; ++a) {
    for (size_t b = 0; b < a; ++b) gram.At(a, b) = gram.At(b, a);
  }
  TPS_ASSIGN_OR_RETURN(SymmetricEigenResult gram_eigen,
                       SymmetricEigen(gram, /*symmetry_tolerance=*/1e-6));

  double total_evidence = 0.0;
  for (size_t c = 0; c < num_target; ++c) {
    // One-vs-rest target vector.
    std::vector<double> y(n, 0.0);
    double yty = 0.0;
    for (size_t i = 0; i < n; ++i) {
      y[i] = static_cast<size_t>(labels[i]) == c ? 1.0 : 0.0;
      yty += y[i];
    }
    // F^T y.
    std::vector<double> fty(dims, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (y[i] == 0.0) continue;
      for (size_t a = 0; a < dims; ++a) fty[a] += features.At(i, a);
    }
    // Project F^T y onto the Gram eigenbasis: p_j = v_j . (F^T y),
    // column-access dot products.
    std::vector<double> projected(dims, 0.0);
    for (size_t j = 0; j < dims; ++j) {
      double dot = 0.0;
      for (size_t i = 0; i < dims; ++i) {
        dot += gram_eigen.vectors.At(i, j) * fty[i];
      }
      projected[j] = dot;
    }
    total_evidence +=
        EvidenceGivenProjection(n, dims, gram_eigen.values, projected, yty);
  }
  return total_evidence / static_cast<double>(num_target);
}

double KnnReference(const Matrix& features, const std::vector<int>& labels,
                    size_t kk) {
  const size_t n = features.rows();
  size_t correct = 0;
  std::vector<std::pair<double, size_t>> distances(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (j == i) {
        distances[j] = {std::numeric_limits<double>::infinity(), j};
        continue;
      }
      double d2 = 0.0;
      for (size_t c = 0; c < features.cols(); ++c) {
        const double diff = features.At(i, c) - features.At(j, c);
        d2 += diff * diff;
      }
      distances[j] = {d2, j};
    }
    if (KnnVoteCorrect(distances, labels, kk, i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace kernels
}  // namespace tps
