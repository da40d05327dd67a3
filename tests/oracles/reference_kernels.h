#ifndef TPS_TESTS_ORACLES_REFERENCE_KERNELS_H_
#define TPS_TESTS_ORACLES_REFERENCE_KERNELS_H_

#include <cstddef>
#include <vector>

#include "matrix/matrix.h"
#include "util/statusor.h"

namespace tps {
namespace kernels {

// Test oracle: the scalar loops each production kernel in
// src/transfer/kernels.h was derived from, bit-identical to it by
// contract. Like the production kernels they do not validate: call them
// only on inputs the wrappers (LeepFromPredictions, NceFromPredictions,
// LogMeFromFeatures, KnnLeaveOneOutAccuracy) accept.

/// LEEP from row-stochastic predictions (n x Z); oracle of LeepBatched.
double LeepReference(const Matrix& predictions,
                     const std::vector<int>& labels, size_t num_target);

/// NCE, -H(Y | argmax-Z), from predictions; oracle of NceBatched.
double NceReference(const Matrix& predictions,
                    const std::vector<int>& labels, size_t num_target);

/// LogME from features (n x D); oracle of LogMeBatched, failing where it
/// fails (the Gram eigendecomposition).
StatusOr<double> LogMeReference(const Matrix& features,
                                const std::vector<int>& labels,
                                size_t num_target);

/// Leave-one-out kNN accuracy with the clamped neighbour count `kk`;
/// oracle of KnnBatched.
double KnnReference(const Matrix& features, const std::vector<int>& labels,
                    size_t kk);

}  // namespace kernels
}  // namespace tps

#endif  // TPS_TESTS_ORACLES_REFERENCE_KERNELS_H_
