// k-fold cross-validation index splitting (paper §2 uses k = 5, §3 k = 6).

#ifndef CONTENDER_ML_KFOLD_H_
#define CONTENDER_ML_KFOLD_H_

#include <cstddef>
#include <vector>

#include "util/random.h"

namespace contender {

/// One train/test partition of example indices.
struct FoldSplit {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Shuffles 0..n-1 and splits into k folds of near-equal size; fold i's
/// members form split i's test set and the remainder its training set.
/// k is clamped to [1, n]; n == 0 yields no splits.
std::vector<FoldSplit> KFoldSplits(size_t n, int k, Rng* rng);

}  // namespace contender

#endif  // CONTENDER_ML_KFOLD_H_
