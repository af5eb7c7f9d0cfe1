#include "floorplan/pack_engine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wp::fplan {

const char* pack_engine_name(PackEngine engine) {
  switch (engine) {
    case PackEngine::kNaive: return "naive";
    case PackEngine::kBatched: return "batched";
  }
  return "?";
}

namespace detail {

void MaxFenwick::reset(std::size_t size) {
  if (tree_.size() < size + 1) {
    tree_.assign(size + 1, 0.0);
    epoch_.assign(size + 1, 0);
    current_epoch_ = 0;
  }
  ++current_epoch_;
  trail_.clear();
}

void MaxFenwick::update(std::size_t index, double value) {
  for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1)) {
    if (epoch_[i] != current_epoch_) {
      epoch_[i] = current_epoch_;
      tree_[i] = value;
    } else {
      tree_[i] = std::max(tree_[i], value);
    }
  }
}

void MaxFenwick::update_logged(std::size_t index, double value) {
  for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1)) {
    if (epoch_[i] != current_epoch_) {
      trail_.push_back({i, epoch_[i], tree_[i]});
      epoch_[i] = current_epoch_;
      tree_[i] = value;
    } else if (value > tree_[i]) {
      trail_.push_back({i, epoch_[i], tree_[i]});
      tree_[i] = value;
    }
  }
}

void MaxFenwick::rewind(std::size_t mark) {
  WP_REQUIRE(mark <= trail_.size(), "rewind mark is ahead of the trail");
  while (trail_.size() > mark) {
    const TrailEntry& entry = trail_.back();
    epoch_[entry.node] = entry.epoch;
    tree_[entry.node] = entry.value;
    trail_.pop_back();
  }
}

double MaxFenwick::prefix_max(std::size_t count) const {
  double best = 0.0;
  for (std::size_t i = count; i > 0; i -= i & (~i + 1))
    if (epoch_[i] == current_epoch_) best = std::max(best, tree_[i]);
  return best;
}

}  // namespace detail

}  // namespace wp::fplan
