#include "recall/recall_backend.h"

#include <utility>

#include "util/logging.h"

namespace tps {
namespace recall {

RecallBackendSet::RecallBackendSet(const RecallBackendContext& context)
    : representative_(context.representative) {
  TPS_CHECK(representative_ != nullptr);
  StatusOr<EmbeddingBackend> embedding =
      EmbeddingBackend::Create(context.embeddings, context.embedding_index);
  // Without usable embeddings the set serves the representative backend
  // alone rather than failing the whole artifact load.
  if (!embedding.ok()) return;
  embedding_.emplace(std::move(embedding).value());
  hybrid_.emplace(representative_, &*embedding_);
}

StatusOr<const RecallBackend*> RecallBackendSet::Find(
    const std::string& name) const {
  if (name == representative_->name()) return representative_;
  if (name == "embedding" || name == "hybrid") {
    if (!embedding_.has_value()) {
      return Status::FailedPrecondition(
          "recall backend \"" + name +
          "\" is not available for these artifacts (train embeddings first)");
    }
    if (name == "embedding") return &*embedding_;
    return &*hybrid_;
  }
  return Status::NotFound("unknown recall backend: " + name);
}

std::vector<std::string> RecallBackendSet::available() const {
  if (!embedding_.has_value()) return {representative_->name()};
  return {embedding_->name(), hybrid_->name(), representative_->name()};
}

}  // namespace recall
}  // namespace tps
