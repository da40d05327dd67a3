#ifndef TPS_TRANSFER_KERNELS_H_
#define TPS_TRANSFER_KERNELS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "matrix/matrix.h"
#include "util/statusor.h"

namespace tps {
namespace kernels {

// The proxy-scoring kernels: SoA, auto-vectorization friendly loops, the
// only kernel family in the library. Each one preserves the exact
// per-output floating-point accumulation order of the scalar loop it was
// derived from (loop interchange only moves *independent* outputs into the
// inner loop). Those scalar loops live on as a test oracle in
// tests/oracles/, and tests/transfer/kernel_equivalence_test.cc pins the
// two BIT-identical with == over randomized shapes, serial and parallel.
//
// Every kernel below assumes the wrapper in leep.cc / nce.cc / logme.cc /
// knn_proxy.cc already validated shapes and label ranges; kernels are pure
// functions of their arguments (thread-safe by construction).

/// LEEP (Nguyen et al., ICML 2020) from row-stochastic predictions
/// (n x Z) and target labels in [0, num_target).
double LeepBatched(const Matrix& predictions, const std::vector<int>& labels,
                   size_t num_target);

/// NCE (Tran et al., ICCV 2019): -H(Y | argmax-Z) from predictions.
double NceBatched(const Matrix& predictions, const std::vector<int>& labels,
                  size_t num_target);

/// LogME (You et al., ICML 2021) from features (n x D). StatusOr because
/// the shared Gram eigendecomposition can fail on pathological input.
StatusOr<double> LogMeBatched(const Matrix& features,
                              const std::vector<int>& labels,
                              size_t num_target);

/// Leave-one-out kNN accuracy from features. `kk` is the already-clamped
/// neighbour count in [1, n - 1].
double KnnBatched(const Matrix& features, const std::vector<int>& labels,
                  size_t kk);

// The math both kernel families share verbatim, exported so the test
// oracle calls the production code instead of a copy of it.

/// The LogME fixed-point iteration over (alpha, beta) given the Gram
/// spectrum and the projection of F^T y onto the eigenbasis; returns the
/// class's evidence per example. The families differ only in how
/// `projected` and the Gram matrix are accumulated.
double EvidenceGivenProjection(size_t n, size_t dims,
                               const std::vector<double>& lambda,
                               const std::vector<double>& projected,
                               double yty);

/// The kNN voting rule for query `i`: k nearest by (distance, index) pair
/// order, majority vote, smallest label wins ties. Partially sorts
/// `distances` in place.
bool KnnVoteCorrect(std::vector<std::pair<double, size_t>>& distances,
                    const std::vector<int>& labels, size_t kk, size_t i);

}  // namespace kernels
}  // namespace tps

#endif  // TPS_TRANSFER_KERNELS_H_
