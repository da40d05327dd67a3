#include "transfer/proxy_scorer.h"


#include "transfer/knn_proxy.h"
#include "transfer/leep.h"
#include "transfer/logme.h"
#include "transfer/nce.h"

namespace tps {

StatusOr<std::vector<double>> ProxyScorer::ScoreBatch(
    const std::vector<const PretrainedModel*>& models,
    const Dataset& target) const {
  std::vector<double> scores;
  scores.reserve(models.size());
  for (const PretrainedModel* model : models) {
    TPS_ASSIGN_OR_RETURN(double score, Score(*model, target));
    scores.push_back(score);
  }
  return scores;
}

StatusOr<std::vector<double>> ScoreStacked(
    const std::vector<const PretrainedModel*>& models, const Dataset& target,
    bool softmax,
    const std::function<StatusOr<double>(const Matrix&,
                                         const std::vector<int>&)>& score) {
  size_t valid = 0;
  while (valid < models.size() &&
         models[valid]->domain() == target.spec().domain) {
    ++valid;
  }
  const std::vector<const PretrainedModel*> prefix(models.begin(),
                                                   models.begin() + valid);
  TPS_ASSIGN_OR_RETURN(
      std::vector<Matrix> outputs,
      softmax ? PretrainedModel::PredictDistributionsBatch(prefix, target)
              : PretrainedModel::ExtractFeaturesBatch(prefix, target));
  const std::vector<int> labels = TargetLabels(target);
  std::vector<double> scores;
  scores.reserve(models.size());
  for (const Matrix& output : outputs) {
    TPS_ASSIGN_OR_RETURN(double value, score(output, labels));
    scores.push_back(value);
  }
  if (valid < models.size()) {
    return models[valid]->ExtractFeatures(target).status();
  }
  return scores;
}

StatusOr<std::unique_ptr<ProxyScorer>> MakeProxyScorer(
    const std::string& name) {
  if (name == "leep") {
    return std::unique_ptr<ProxyScorer>(new LeepScorer());
  }
  if (name == "nce") {
    return std::unique_ptr<ProxyScorer>(new NceScorer());
  }
  if (name == "logme") {
    return std::unique_ptr<ProxyScorer>(new LogMeScorer());
  }
  if (name == "knn") {
    return std::unique_ptr<ProxyScorer>(new KnnScorer(/*k=*/5));
  }
  return Status::InvalidArgument("unknown proxy scorer: " + name);
}

std::vector<int> TargetLabels(const Dataset& target) {
  std::vector<int> labels(target.size());
  for (size_t i = 0; i < target.size(); ++i) {
    labels[i] = target.examples()[i].label;
  }
  return labels;
}

}  // namespace tps
