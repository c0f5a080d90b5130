#include "vecindex/hnsw_index.h"

#include <memory>

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/assert.h"
#include "common/io.h"
#include "vecindex/distance.h"
#include "vecindex/scan_counters.h"
#include "vecindex/visited_set.h"

namespace blendhouse::vecindex {

namespace {
/// splitmix64 — cheap deterministic per-index RNG for level sampling.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

HnswIndex::HnswIndex(size_t dim, Metric metric, HnswOptions options)
    : dim_(dim),
      metric_(metric),
      options_(options),
      level_mult_(1.0 / std::log(static_cast<double>(
                            std::max<size_t>(2, options.M)))),
      rng_state_(options.seed),
      dist_(ResolveDistance(metric)) {
  BH_ASSERT_MSG(!(options_.scalar_quantized && reduced_precision()),
                "hnsw: scalar_quantized and precision are mutually exclusive");
  if (reduced_precision()) store_.Configure(options_.precision, dim_, metric_);
}

size_t HnswIndex::MemoryUsage() const {
  size_t bytes = data_.size() * sizeof(float) + codes_.size() +
                 ids_.size() * sizeof(IdType) + levels_.size() +
                 store_.MemoryBytes();
  for (const auto& node : links_) {
    for (const auto& lvl : node) bytes += lvl.size() * sizeof(uint32_t);
    bytes += node.size() * sizeof(std::vector<uint32_t>);
  }
  return bytes;
}

common::Status HnswIndex::Train(const float* data, size_t n) {
  if (reduced_precision()) {
    store_.Train(data, n);  // fixes the int8 scale; no-op for fp16/bf16
    return common::Status::Ok();
  }
  if (!options_.scalar_quantized) return common::Status::Ok();
  return sq_.Train(data, n, dim_);
}

float HnswIndex::DistToItem(const float* query, uint32_t pos) const {
  if (reduced_precision()) {
    // Asymmetric reduced-precision kernel: the fp32 query meets the packed
    // code directly — per-hop work, so no batching tier here.
    return store_.DistanceToRow(query, pos);
  }
  // Per-hop fp32 (or fused-SQ8, which decodes into an fp32 accumulation —
  // same tier for ledger purposes) distance; the reduced-precision branch
  // above is charged inside PrecisionStore.
  scanstats::AddFp32(1);
  if (options_.scalar_quantized) {
    const uint8_t* code = codes_.data() + size_t{pos} * dim_;
    switch (metric_) {
      case Metric::kL2:
        return sq_.L2SqrToCode(query, code);
      case Metric::kInnerProduct:
        return -sq_.DotToCode(query, code);
      case Metric::kCosine:
        return sq_.CosineToCode(query, code,
                                std::sqrt(SquaredNorm(query, dim_)));
    }
  }
  return dist_(query, data_.data() + size_t{pos} * dim_, dim_);
}

size_t HnswIndex::RandomLevel() {
  double u = (static_cast<double>(NextRand(&rng_state_) >> 11) + 1.0) /
             9007199254740993.0;  // (0, 1]
  return static_cast<size_t>(-std::log(u) * level_mult_);
}

uint32_t HnswIndex::GreedyDescend(const float* query, uint32_t entry,
                                  size_t from_level,
                                  size_t target_level) const {
  uint32_t cur = entry;
  float cur_d = DistToItem(query, cur);
  for (size_t level = from_level; level > target_level; --level) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t nb : LinksAt(cur, level)) {
        float d = DistToItem(query, nb);
        if (d < cur_d) {
          cur_d = d;
          cur = nb;
          improved = true;
        }
      }
    }
  }
  return cur;
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query,
                                             uint32_t entry, size_t ef,
                                             size_t level) const {
  // Min-heap of nodes to expand, max-heap of current best ef results.
  std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>>
      candidates;
  std::priority_queue<Neighbor> best;
  VisitedSet& visited = ThreadVisitedSet();
  visited.Reset(ids_.size());

  float entry_d = DistToItem(query, entry);
  candidates.push({static_cast<IdType>(entry), entry_d});
  best.push({static_cast<IdType>(entry), entry_d});
  visited.Insert(entry);

  while (!candidates.empty()) {
    Neighbor cur = candidates.top();
    if (best.size() >= ef && cur.distance > best.top().distance) break;
    candidates.pop();
    const std::vector<uint32_t>& links =
        LinksAt(static_cast<uint32_t>(cur.id), level);
    // Pull the whole neighborhood toward the cache before the distance loop;
    // graph order is random so every expansion is a potential miss.
    for (uint32_t nb : links) PrefetchItem(nb);
    for (uint32_t nb : links) {
      if (!visited.Insert(nb)) continue;
      float d = DistToItem(query, nb);
      if (best.size() < ef || d < best.top().distance) {
        candidates.push({static_cast<IdType>(nb), d});
        best.push({static_cast<IdType>(nb), d});
        if (best.size() > ef) best.pop();
      }
    }
  }

  std::vector<Neighbor> out(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    out[i] = best.top();
    best.pop();
  }
  return out;
}

const float* HnswIndex::ItemVector(uint32_t pos,
                                   std::vector<float>* buf) const {
  if (reduced_precision()) {
    buf->resize(dim_);
    store_.Decode(pos, buf->data());
    return buf->data();
  }
  if (!options_.scalar_quantized) return data_.data() + size_t{pos} * dim_;
  buf->resize(dim_);
  sq_.Decode(codes_.data() + size_t{pos} * dim_, buf->data());
  return buf->data();
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(
    const float* vec, std::vector<Neighbor>& candidates, size_t m) const {
  (void)vec;
  std::sort(candidates.begin(), candidates.end());
  // Malkov's heuristic: keep a candidate only if it is closer to the new
  // node than to every already-selected neighbor — edges stay diverse.
  std::vector<uint32_t> selected;
  std::vector<float> decode_buf;
  for (const Neighbor& c : candidates) {
    if (selected.size() >= m) break;
    const float* c_vec =
        ItemVector(static_cast<uint32_t>(c.id), &decode_buf);
    bool keep = true;
    for (uint32_t s : selected) {
      if (DistToItem(c_vec, s) < c.distance) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(static_cast<uint32_t>(c.id));
  }
  // Backfill with closest remaining if the heuristic was too aggressive.
  for (const Neighbor& c : candidates) {
    if (selected.size() >= m) break;
    uint32_t id = static_cast<uint32_t>(c.id);
    if (std::find(selected.begin(), selected.end(), id) == selected.end())
      selected.push_back(id);
  }
  return selected;
}

void HnswIndex::InsertOne(const float* vec, IdType external_id) {
  uint32_t node = static_cast<uint32_t>(ids_.size());
  ids_.push_back(external_id);
  if (reduced_precision()) {
    store_.Append(vec, 1);  // codes only — no fp32 copy
  } else if (options_.scalar_quantized) {
    codes_.resize(codes_.size() + dim_);
    sq_.Encode(vec, codes_.data() + size_t{node} * dim_);
  } else {
    data_.insert(data_.end(), vec, vec + dim_);
  }

  size_t level = RandomLevel();
  levels_.push_back(static_cast<uint8_t>(std::min<size_t>(level, 255)));
  links_.emplace_back(level + 1);

  if (max_level_ < 0) {
    entry_point_ = node;
    max_level_ = static_cast<int>(level);
    return;
  }

  uint32_t cur = entry_point_;
  if (static_cast<int>(level) < max_level_)
    cur = GreedyDescend(vec, cur, static_cast<size_t>(max_level_), level);

  size_t top = std::min<size_t>(level, static_cast<size_t>(max_level_));
  for (size_t lvl = top + 1; lvl-- > 0;) {
    std::vector<Neighbor> candidates =
        SearchLayer(vec, cur, options_.ef_construction, lvl);
    std::vector<uint32_t> neighbors =
        SelectNeighbors(vec, candidates, options_.M);
    links_[node][lvl] = neighbors;
    for (uint32_t nb : neighbors) {
      std::vector<uint32_t>& back = links_[nb][lvl];
      back.push_back(node);
      if (back.size() > MaxLinks(lvl)) {
        // Re-select the neighbor's edges to stay within the degree bound.
        std::vector<Neighbor> nb_cands;
        nb_cands.reserve(back.size());
        std::vector<float> buf;
        const float* nb_vec = ItemVector(nb, &buf);
        for (uint32_t cand : back)
          nb_cands.push_back(
              {static_cast<IdType>(cand), DistToItem(nb_vec, cand)});
        links_[nb][lvl] = SelectNeighbors(nb_vec, nb_cands, MaxLinks(lvl));
      }
    }
    if (!candidates.empty())
      cur = static_cast<uint32_t>(candidates.front().id);
  }

  if (static_cast<int>(level) > max_level_) {
    max_level_ = static_cast<int>(level);
    entry_point_ = node;
  }
}

common::Status HnswIndex::AddWithIds(const float* data, const IdType* ids,
                                     size_t n) {
  if (options_.scalar_quantized && !sq_.trained())
    BH_RETURN_IF_ERROR(sq_.Train(data, n, dim_));
  if (reduced_precision() && !store_.calibrated()) store_.Train(data, n);
  size_t expected = ids_.size() + n;
  ids_.reserve(expected);
  links_.reserve(expected);
  if (!options_.scalar_quantized && !reduced_precision())
    data_.reserve(expected * dim_);
  for (size_t i = 0; i < n; ++i) InsertOne(data + i * dim_, ids[i]);
  return common::Status::Ok();
}

common::Result<std::vector<Neighbor>> HnswIndex::SearchWithFilter(
    const float* query, const SearchParams& params) const {
  if (params.k <= 0)
    return common::Status::InvalidArgument("hnsw: k must be positive");
  if (ids_.empty()) return std::vector<Neighbor>{};

  size_t k = static_cast<size_t>(params.k);
  size_t ef = std::max<size_t>(static_cast<size_t>(params.ef_search), k);
  // With a filter, widen the beam so enough passing rows survive collection.
  // Density-aware: the sparser the filter, the more collected nodes fail it,
  // so ef grows inversely with the pass rate (bounded to 8x the base
  // widening; an empty filter short-circuits the graph walk entirely).
  if (params.filter != nullptr) {
    const size_t selected = params.filter->Count();
    if (selected == 0) return std::vector<Neighbor>{};
    const size_t base = std::max(ef * 2, k * 4);
    const double density = std::min(
        1.0, static_cast<double>(selected) / static_cast<double>(ids_.size()));
    const size_t widened = static_cast<size_t>(
        std::ceil(static_cast<double>(k) / density)) * 2;
    ef = std::min(std::max(base, widened), base * 8);
    ef = std::min(ef, ids_.size());
    ef = std::max<size_t>(ef, 1);
  }
  uint32_t entry = GreedyDescend(query, entry_point_,
                                 static_cast<size_t>(max_level_), 0);
  std::vector<Neighbor> found = SearchLayer(query, entry, ef, 0);

  std::vector<Neighbor> out;
  out.reserve(k);
  for (const Neighbor& n : found) {
    IdType ext = ids_[static_cast<uint32_t>(n.id)];
    if (params.filter != nullptr &&
        !params.filter->Test(static_cast<size_t>(ext)))
      continue;
    out.push_back({ext, n.distance});
    if (out.size() >= k) break;
  }
  return out;
}

// --------------------------------------------------------------------------
// Native incremental iterator: resumable best-first expansion over level 0.
// --------------------------------------------------------------------------

class HnswSearchIterator : public SearchIterator {
 public:
  HnswSearchIterator(const HnswIndex* index, const float* query,
                     SearchParams params)
      : index_(index),
        query_(query, query + index->Dim()),
        params_(params) {
    if (index_->Size() == 0) return;
    visited_.Reset(index_->Size());
    uint32_t entry = index_->GreedyDescend(
        query_.data(), index_->entry_point_,
        static_cast<size_t>(index_->max_level_), 0);
    float d = index_->DistToItem(query_.data(), entry);
    frontier_.push({static_cast<IdType>(entry), d});
    Visit(entry);
    // Explore at least ef nodes before the first yield: pure best-first from
    // a single entry misses neighbors that hide behind slightly-farther hops
    // (the same reason beam search uses ef > k).
    size_t warmup = std::max<size_t>(
        static_cast<size_t>(std::max(params.ef_search, params.k)), 1);
    while (ready_.size() + 0 < warmup && !frontier_.empty()) Settle();
  }

  std::vector<Neighbor> Next(size_t batch_size) override {
    std::vector<Neighbor> out;
    while (out.size() < batch_size) {
      // Keep settle order exact: only yield a settled node once no frontier
      // candidate could still beat it.
      while (!frontier_.empty() &&
             (ready_.empty() ||
              frontier_.top().distance < ready_.top().distance))
        Settle();
      if (ready_.empty()) break;
      Neighbor cur = ready_.top();
      ready_.pop();
      uint32_t node = static_cast<uint32_t>(cur.id);
      IdType ext = index_->ids_[node];
      if (params_.filter != nullptr &&
          !params_.filter->Test(static_cast<size_t>(ext)))
        continue;
      out.push_back({ext, cur.distance});
    }
    // Yields pop from a min-heap but are only approximately ordered:
    // expanding a settled node can surface a closer neighbor later in the
    // same batch. Re-sort so the batch honors the sorted-batch contract.
    std::sort(out.begin(), out.end());
    BH_DCHECK(IsSortedBatch(out));
    if (!out.empty()) ++batches_;
    return out;
  }

  size_t VisitedCount() const override { return visited_count_; }
  Stats GetStats() const override {
    return {visited_count_, batches_, /*recompute_rounds=*/0};
  }

 private:
  bool Visit(uint32_t node) {
    if (!visited_.Insert(node)) return false;
    ++visited_count_;
    return true;
  }

  /// Pops the closest frontier node, expands it, and parks it in ready_.
  void Settle() {
    Neighbor cur = frontier_.top();
    frontier_.pop();
    uint32_t node = static_cast<uint32_t>(cur.id);
    const std::vector<uint32_t>& links = index_->LinksAt(node, 0);
    for (uint32_t nb : links) index_->PrefetchItem(nb);
    for (uint32_t nb : links) {
      if (!Visit(nb)) continue;
      frontier_.push(
          {static_cast<IdType>(nb), index_->DistToItem(query_.data(), nb)});
    }
    ready_.push(cur);
  }

  const HnswIndex* index_;
  std::vector<float> query_;
  SearchParams params_;
  // Min-heap ordered by distance: pop = next (approximately) closest node.
  std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>>
      frontier_;
  // Settled nodes not yet returned, in distance order.
  std::priority_queue<Neighbor, std::vector<Neighbor>, std::greater<>>
      ready_;
  // Owned, not the thread's set: other walks run on this thread between
  // Next() calls.
  VisitedSet visited_;
  size_t visited_count_ = 0;
  size_t batches_ = 0;
};

common::Result<std::unique_ptr<SearchIterator>> HnswIndex::MakeIterator(
    const float* query, const SearchParams& params) const {
  return std::unique_ptr<SearchIterator>(
      std::make_unique<HnswSearchIterator>(this, query, params));
}

// --------------------------------------------------------------------------
// Serialization
// --------------------------------------------------------------------------

common::Status HnswIndex::Save(std::string* out) const {
  common::BinaryWriter w(out);
  w.WriteString(Type());
  w.Write<uint64_t>(dim_);
  w.Write<uint32_t>(static_cast<uint32_t>(metric_));
  w.Write<uint64_t>(options_.M);
  w.Write<uint64_t>(options_.ef_construction);
  w.Write<uint8_t>(options_.scalar_quantized ? 1 : 0);
  w.Write<uint8_t>(static_cast<uint8_t>(options_.precision));
  w.Write<uint32_t>(entry_point_);
  w.Write<int32_t>(max_level_);
  w.WriteVector(ids_);
  w.WriteVector(levels_);
  if (reduced_precision()) {
    store_.Serialize(&w);
  } else if (options_.scalar_quantized) {
    sq_.Serialize(&w);
    w.WriteVector(codes_);
  } else {
    w.WriteVector(data_);
  }
  w.Write<uint64_t>(links_.size());
  for (const auto& node : links_) {
    w.Write<uint32_t>(static_cast<uint32_t>(node.size()));
    for (const auto& lvl : node) w.WriteVector(lvl);
  }
  return common::Status::Ok();
}

common::Status HnswIndex::Load(std::string_view in) {
  // Graph walks index a dense visited array by node id (visited_set.h), so
  // every id, level and size read here is checked before any walk runs.
  common::BinaryReader r(in);
  std::string type;
  BH_RETURN_IF_ERROR(r.ReadString(&type));
  uint64_t dim = 0, m = 0, efc = 0;
  uint32_t metric = 0;
  uint8_t sq_flag = 0;
  uint8_t precision = 0;
  BH_RETURN_IF_ERROR(r.Read(&dim));
  BH_RETURN_IF_ERROR(r.Read(&metric));
  BH_RETURN_IF_ERROR(r.Read(&m));
  BH_RETURN_IF_ERROR(r.Read(&efc));
  BH_RETURN_IF_ERROR(r.Read(&sq_flag));
  BH_RETURN_IF_ERROR(r.Read(&precision));
  if (precision > static_cast<uint8_t>(Precision::kInt8))
    return common::Status::Corruption("hnsw: bad precision tag");
  if (metric > static_cast<uint32_t>(Metric::kCosine))
    return common::Status::Corruption("hnsw: bad metric tag");
  if (dim == 0) return common::Status::Corruption("hnsw: zero dim");
  dim_ = dim;
  metric_ = static_cast<Metric>(metric);
  dist_ = ResolveDistance(metric_);
  options_.M = m;
  options_.ef_construction = efc;
  options_.scalar_quantized = sq_flag != 0;
  options_.precision = static_cast<Precision>(precision);
  if (options_.scalar_quantized && reduced_precision())
    return common::Status::Corruption("hnsw: conflicting quantization tags");
  if (type != Type()) return common::Status::Corruption("hnsw: type mismatch");
  BH_RETURN_IF_ERROR(r.Read(&entry_point_));
  BH_RETURN_IF_ERROR(r.Read(&max_level_));
  BH_RETURN_IF_ERROR(r.ReadVector(&ids_));
  BH_RETURN_IF_ERROR(r.ReadVector(&levels_));
  const size_t n = ids_.size();
  if (levels_.size() != n)
    return common::Status::Corruption("hnsw: level count mismatch");
  int top = -1;
  for (uint8_t level : levels_) top = std::max<int>(top, level);
  if (max_level_ != top)
    return common::Status::Corruption("hnsw: max level disagrees with levels");
  if (n > 0 && (entry_point_ >= n || levels_[entry_point_] != top))
    return common::Status::Corruption("hnsw: bad entry point");
  // Divides rather than multiplies: n * dim can wrap on a corrupt dim.
  auto holds_n_vectors = [&](size_t values) {
    return values % dim_ == 0 && values / dim_ == n;
  };
  if (reduced_precision()) {
    BH_RETURN_IF_ERROR(store_.Deserialize(&r));
    if (store_.precision() != options_.precision || store_.dim() != dim_ ||
        store_.size() != n)
      return common::Status::Corruption("hnsw: store mismatch");
  } else if (options_.scalar_quantized) {
    BH_RETURN_IF_ERROR(sq_.Deserialize(&r));
    BH_RETURN_IF_ERROR(r.ReadVector(&codes_));
    if (sq_.dim() != dim_ || !holds_n_vectors(codes_.size()))
      return common::Status::Corruption("hnsw: code size mismatch");
  } else {
    BH_RETURN_IF_ERROR(r.ReadVector(&data_));
    if (!holds_n_vectors(data_.size()))
      return common::Status::Corruption("hnsw: vector size mismatch");
    // A NaN or infinite coordinate makes distances unordered, and the
    // heaps and sorts of a walk need a strict weak order.
    for (float v : data_)
      if (!std::isfinite(v))
        return common::Status::Corruption("hnsw: non-finite vector");
  }
  uint64_t num_nodes = 0;
  BH_RETURN_IF_ERROR(r.Read(&num_nodes));
  if (num_nodes != n)
    return common::Status::Corruption("hnsw: node count mismatch");
  links_.assign(n, {});
  for (size_t node = 0; node < n; ++node) {
    uint32_t num_levels = 0;
    BH_RETURN_IF_ERROR(r.Read(&num_levels));
    if (num_levels != levels_[node] + 1u)
      return common::Status::Corruption("hnsw: node level count mismatch");
    links_[node].resize(num_levels);
    for (size_t level = 0; level < num_levels; ++level) {
      std::vector<uint32_t>& lvl = links_[node][level];
      BH_RETURN_IF_ERROR(r.ReadVector(&lvl));
      if (lvl.size() > MaxLinks(level))
        return common::Status::Corruption("hnsw: degree above bound");
      // A neighbor on `level` must exist and itself reach `level`.
      for (uint32_t nb : lvl)
        if (nb >= n || levels_[nb] < level)
          return common::Status::Corruption("hnsw: bad neighbor id");
    }
  }
  return common::Status::Ok();
}

}  // namespace blendhouse::vecindex
