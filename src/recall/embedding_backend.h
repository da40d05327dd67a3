#ifndef TPS_RECALL_EMBEDDING_BACKEND_H_
#define TPS_RECALL_EMBEDDING_BACKEND_H_

#include <string>

#include "core/coarse_recall.h"
#include "index/ivf_index.h"
#include "recall/recall_embeddings.h"

namespace tps {
namespace recall {

/// Learned two-tower recall: embeds the target with one matrix-vector
/// product (the dataset tower), ranks candidates by dot product with the
/// trained model embeddings, min-max normalizes the dots, and applies the
/// Eq. 2 shape recall_score = acc(m) x normalized_affinity. No proxy
/// forward pass ever runs, so proxies_computed is 0 and the epoch budget
/// is never charged — this is the "no per-representative LEEP inference
/// at serve time" backend.
///
/// Sub-linearity: with an `embedding_index` (an IvfIndex built over the
/// model-embedding vectors), only the posting lists of the
/// RecallOptions::nprobe partitions nearest the query embedding are
/// ranked; the rest of the zoo is never touched. Without an index every
/// model is ranked (still just dot products).
class EmbeddingBackend : public RecallBackend {
 public:
  /// FailedPrecondition without `embeddings`; InvalidArgument when
  /// `embedding_index` (optional) does not cover them. Both are borrowed
  /// and must outlive the backend.
  static StatusOr<EmbeddingBackend> Create(const RecallEmbeddings* embeddings,
                                           const IvfIndex* embedding_index);

  const std::string& name() const override { return name_; }

  StatusOr<RecallResult> Recall(const Dataset& target,
                                const RecallOptions& options,
                                EpochBudget* budget,
                                ThreadPool* pool = nullptr,
                                MetricsRegistry* metrics = nullptr,
                                SelectionTrace* trace = nullptr,
                                const CancelToken* cancel =
                                    nullptr) const override;

 private:
  EmbeddingBackend(const RecallEmbeddings* embeddings,
                   const IvfIndex* embedding_index)
      : embeddings_(embeddings), embedding_index_(embedding_index) {}

  std::string name_ = "embedding";
  const RecallEmbeddings* embeddings_;
  const IvfIndex* embedding_index_;
};

}  // namespace recall
}  // namespace tps

#endif  // TPS_RECALL_EMBEDDING_BACKEND_H_
