#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace blendhouse::vecindex {

/// Dense set of graph node ids for best-first walks (hnswlib's
/// VisitedList): one epoch tag per node id, where "visited" means "tagged
/// with the current epoch". Reset() starts a new walk by bumping the epoch,
/// so a walk costs no allocation and no clearing; only when the 16-bit
/// epoch wraps is the array zeroed, once every 65,535 walks.
///
/// Ownership rule (DESIGN.md §8): a one-shot walk that finishes before it
/// returns borrows its thread's set through ThreadVisitedSet(); a resumable
/// walk (a SearchIterator) owns its own, because other walks may run on the
/// same thread between its Next() calls. Ids must be < the Reset() bound;
/// Load validates every stored id against the node count for that reason.
class VisitedSet {
 public:
  /// Empties the set and makes ids [0, n) insertable.
  void Reset(size_t n) {
    if (tags_.size() < n) tags_.resize(n, 0);
    if (++epoch_ == 0) {
      std::fill(tags_.begin(), tags_.end(), uint16_t{0});
      epoch_ = 1;
    }
  }

  /// Adds `id`; true when it was not in the set yet.
  bool Insert(uint32_t id) {
    BH_DCHECK(id < tags_.size());
    if (tags_[id] == epoch_) return false;
    tags_[id] = epoch_;
    return true;
  }

  bool Contains(uint32_t id) const {
    BH_DCHECK(id < tags_.size());
    return tags_[id] == epoch_;
  }

 private:
  std::vector<uint16_t> tags_;
  uint16_t epoch_ = 0;
};

/// The calling thread's scratch set for one-shot walks. `slot` separates
/// the sets one walk holds at once (DiskANN tracks seen and expanded).
inline VisitedSet& ThreadVisitedSet(size_t slot = 0) {
  thread_local VisitedSet sets[2];
  BH_DCHECK(slot < 2);
  return sets[slot];
}

}  // namespace blendhouse::vecindex
