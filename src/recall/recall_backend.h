#ifndef TPS_RECALL_RECALL_BACKEND_H_
#define TPS_RECALL_RECALL_BACKEND_H_

#include <optional>
#include <string>
#include <vector>

#include "core/coarse_recall.h"
#include "index/ivf_index.h"
#include "recall/embedding_backend.h"
#include "recall/hybrid_backend.h"
#include "recall/recall_embeddings.h"

namespace tps {
namespace recall {

/// Everything a snapshot's backends rank with. `representative` is
/// required: it is the snapshot's own CoarseRecall
/// (TwoPhaseSelector::recall()), served as-is under "representative" and
/// borrowed by the hybrid, so a snapshot scores its representatives
/// through one object and builds at most one brute-force index.
/// `embeddings` (and optionally `embedding_index`, an IVF built over the
/// model-embedding vectors) enable the embedding and hybrid backends. All
/// pointers are borrowed and must outlive the set.
struct RecallBackendContext {
  const CoarseRecall* representative = nullptr;
  const RecallEmbeddings* embeddings = nullptr;
  const IvfIndex* embedding_index = nullptr;
};

/// The per-snapshot backend bundle: builds every backend the context can
/// support at construction time, so request routing is a lock-free name
/// lookup with no per-request allocation. The embedding and hybrid
/// backends are absent without trained embeddings and resolve to
/// FailedPrecondition. Never moved or copied: the hybrid points at the
/// set's own embedding backend.
class RecallBackendSet {
 public:
  explicit RecallBackendSet(const RecallBackendContext& context);

  RecallBackendSet(const RecallBackendSet&) = delete;
  RecallBackendSet& operator=(const RecallBackendSet&) = delete;

  /// Resolves a request's backend name. NotFound for names that are no
  /// backend, FailedPrecondition for backends this artifact set cannot
  /// serve.
  StatusOr<const RecallBackend*> Find(const std::string& name) const;

  /// Names available under this artifact set, sorted.
  std::vector<std::string> available() const;

 private:
  const CoarseRecall* representative_;
  std::optional<EmbeddingBackend> embedding_;
  std::optional<HybridBackend> hybrid_;
};

}  // namespace recall
}  // namespace tps

#endif  // TPS_RECALL_RECALL_BACKEND_H_
