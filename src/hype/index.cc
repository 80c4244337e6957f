#include "hype/index.h"

#include <algorithm>

namespace smoqe::hype {

namespace {

struct SetHasher {
  size_t operator()(const std::vector<uint64_t>& v) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (uint64_t w : v) {
      h ^= std::hash<uint64_t>()(w);
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

}  // namespace

SubtreeLabelIndex SubtreeLabelIndex::Build(const xml::DocPlane& plane,
                                           Mode mode, int threshold) {
  SubtreeLabelIndex index;
  index.mode_ = mode;
  const int32_t n = plane.size();
  for (int32_t pos = 0; pos < n; ++pos) {
    index.num_labels_ = std::max(index.num_labels_, plane.label(pos) + 1);
  }
  index.words_ = std::max(1, (index.num_labels_ + 63) / 64);
  const int words = index.words_;

  // Bottom-up: parents precede children in preorder, so a reverse scan sees
  // every child before its parent.
  std::vector<uint64_t> sets(static_cast<size_t>(n) * words, 0);
  for (int32_t pos = n - 1; pos > 0; --pos) {
    uint64_t* parent = &sets[static_cast<size_t>(plane.parent(pos)) * words];
    const uint64_t* own = &sets[static_cast<size_t>(pos) * words];
    const LabelId l = plane.label(pos);
    parent[l / 64] |= uint64_t{1} << (l % 64);
    for (int w = 0; w < words; ++w) parent[w] |= own[w];
  }

  std::unordered_map<std::vector<uint64_t>, int32_t, SetHasher> interned;
  auto intern = [&](int32_t pos) {
    const auto first = sets.begin() + static_cast<ptrdiff_t>(pos) * words;
    std::vector<uint64_t> s(first, first + words);
    auto it = interned.find(s);
    if (it != interned.end()) return it->second;
    int32_t id = static_cast<int32_t>(interned.size());
    index.set_pool_.insert(index.set_pool_.end(), s.begin(), s.end());
    interned.emplace(std::move(s), id);
    return id;
  };

  if (mode == Mode::kFull) {
    index.per_pos_.resize(n);
    for (int32_t pos = 0; pos < n; ++pos) index.per_pos_[pos] = intern(pos);
  } else {
    index.has_entry_.assign((n + 63) / 64, 0);
    for (int32_t pos = 0; pos < n; ++pos) {
      if (pos == 0 || plane.extent(pos) >= threshold) {
        index.sparse_.emplace(pos, intern(pos));
        index.has_entry_[pos / 64] |= uint64_t{1} << (pos % 64);
      }
    }
  }
  return index;
}

size_t SubtreeLabelIndex::MemoryBytes() const {
  size_t bytes = set_pool_.size() * sizeof(uint64_t);
  bytes += per_pos_.size() * sizeof(int32_t);
  bytes += has_entry_.size() * sizeof(uint64_t);
  // unordered_map overhead approximated as key+value+pointer per entry.
  bytes += sparse_.size() * (sizeof(int32_t) + sizeof(int32_t) + sizeof(void*));
  return bytes;
}

}  // namespace smoqe::hype
