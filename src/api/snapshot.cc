#include "api/snapshot.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace greca {

Snapshot::Snapshot(std::uint64_t generation,
                   std::shared_ptr<const RatingsOverlay> ratings,
                   std::vector<PredictionRow> predictions,
                   std::shared_ptr<const PreferenceIndex> index)
    : generation_(generation),
      ratings_(std::move(ratings)),
      predictions_(std::move(predictions)),
      index_(std::move(index)) {
  assert(ratings_ != nullptr);
  assert(std::ranges::none_of(predictions_, [](const PredictionRow& row) {
    return row == nullptr;
  }));
  assert(index_ != nullptr);
}

}  // namespace greca
