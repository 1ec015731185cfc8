#include "clustering/power_view.hpp"

namespace powerlens::clustering {

PowerView::PowerView(std::vector<PowerBlock> blocks, std::size_t num_layers)
    : blocks_(std::move(blocks)), num_layers_(num_layers) {
  if (blocks_.empty()) {
    throw std::invalid_argument("PowerView: no blocks");
  }
  std::size_t expected = 0;
  for (const PowerBlock& b : blocks_) {
    if (b.begin != expected || b.end <= b.begin) {
      throw std::invalid_argument(
          "PowerView: blocks must be contiguous, non-overlapping, and "
          "non-empty");
    }
    expected = b.end;
  }
  if (expected != num_layers_) {
    throw std::invalid_argument("PowerView: blocks must cover every layer");
  }
}

std::size_t PowerView::block_of(std::size_t layer) const {
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].contains(layer)) return i;
  }
  throw std::out_of_range("PowerView::block_of: layer outside view");
}

std::string PowerView::to_string() const {
  std::string s = "PowerView{";
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    if (i > 0) s += ' ';
    s += '[';
    s += std::to_string(blocks_[i].begin);
    s += ',';
    s += std::to_string(blocks_[i].end);
    s += ')';
  }
  s += "}";
  return s;
}

}  // namespace powerlens::clustering
