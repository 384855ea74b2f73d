#include "ml/kfold.h"

#include <algorithm>

namespace contender {

std::vector<FoldSplit> KFoldSplits(size_t n, int k, Rng* rng) {
  if (n == 0) return {};
  const size_t folds =
      std::min<size_t>(std::max(k, 1), n);
  std::vector<int> perm = rng->Permutation(static_cast<int>(n));

  std::vector<std::vector<size_t>> fold_members(folds);
  for (size_t i = 0; i < n; ++i) {
    fold_members[i % folds].push_back(static_cast<size_t>(perm[i]));
  }

  std::vector<FoldSplit> splits(folds);
  for (size_t f = 0; f < folds; ++f) {
    splits[f].test = fold_members[f];
    for (size_t g = 0; g < folds; ++g) {
      if (g == f) continue;
      splits[f].train.insert(splits[f].train.end(), fold_members[g].begin(),
                             fold_members[g].end());
    }
    std::sort(splits[f].train.begin(), splits[f].train.end());
    std::sort(splits[f].test.begin(), splits[f].test.end());
  }
  return splits;
}

}  // namespace contender
