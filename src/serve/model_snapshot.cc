#include "serve/model_snapshot.h"

#include <utility>

namespace contender::serve {

ModelSnapshot::ModelSnapshot(ContenderPredictor predictor, uint64_t version)
    : predictor_(std::move(predictor)), version_(version) {}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::Create(
    ContenderPredictor predictor, uint64_t version) {
  // Not make_shared: the constructor is private, and a plain `new` keeps
  // the control block separate so a stray weak_ptr cannot pin the (large)
  // predictor after the last strong reference dies.
  return std::shared_ptr<const ModelSnapshot>(
      new ModelSnapshot(std::move(predictor), version));
}

}  // namespace contender::serve
