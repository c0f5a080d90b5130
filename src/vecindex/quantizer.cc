#include "vecindex/quantizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"
#include "vecindex/distance.h"
#include "vecindex/scan_counters.h"

namespace blendhouse::vecindex {

common::Status ScalarQuantizer::Train(const float* data, size_t n,
                                      size_t dim) {
  if (n == 0 || dim == 0)
    return common::Status::InvalidArgument("sq: empty training set");
  dim_ = dim;
  vmin_.assign(dim, std::numeric_limits<float>::max());
  std::vector<float> vmax(dim, std::numeric_limits<float>::lowest());
  for (size_t i = 0; i < n; ++i) {
    const float* v = data + i * dim;
    for (size_t d = 0; d < dim; ++d) {
      vmin_[d] = std::min(vmin_[d], v[d]);
      vmax[d] = std::max(vmax[d], v[d]);
    }
  }
  vscale_.resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    float range = vmax[d] - vmin_[d];
    vscale_[d] = range > 1e-12f ? range / 255.0f : 1e-12f;
  }
  return common::Status::Ok();
}

void ScalarQuantizer::Encode(const float* v, uint8_t* code) const {
  for (size_t d = 0; d < dim_; ++d) {
    float q = (v[d] - vmin_[d]) / vscale_[d];
    q = std::clamp(q, 0.0f, 255.0f);
    // Clamp the rounded value too: at the float boundary (and for NaN,
    // which passes through clamp unchanged) lround can land outside
    // [0, 255] and the bare uint8_t cast would wrap.
    code[d] = static_cast<uint8_t>(std::clamp(std::lround(q), 0L, 255L));
  }
}

void ScalarQuantizer::Decode(const uint8_t* code, float* v) const {
  for (size_t d = 0; d < dim_; ++d)
    v[d] = vmin_[d] + static_cast<float>(code[d]) * vscale_[d];
}

float ScalarQuantizer::L2SqrToCode(const float* query,
                                   const uint8_t* code) const {
  return kernels::Get().sq8_l2sqr(query, code, vmin_.data(), vscale_.data(),
                                  dim_);
}

float ScalarQuantizer::DotToCode(const float* query,
                                 const uint8_t* code) const {
  return kernels::Get().sq8_inner_product(query, code, vmin_.data(),
                                          vscale_.data(), dim_);
}

float ScalarQuantizer::CosineToCode(const float* query, const uint8_t* code,
                                    float query_norm) const {
  float dot = 0.0f, norm_sqr = 0.0f;
  kernels::Get().sq8_dot_norm(query, code, vmin_.data(), vscale_.data(), dim_,
                              &dot, &norm_sqr);
  return CosineFromDot(dot, query_norm, std::sqrt(norm_sqr));
}

void ScalarQuantizer::Serialize(common::BinaryWriter* w) const {
  w->Write<uint64_t>(dim_);
  w->WriteVector(vmin_);
  w->WriteVector(vscale_);
}

common::Status ScalarQuantizer::Deserialize(common::BinaryReader* r) {
  uint64_t dim = 0;
  BH_RETURN_IF_ERROR(r->Read(&dim));
  dim_ = dim;
  BH_RETURN_IF_ERROR(r->ReadVector(&vmin_));
  BH_RETURN_IF_ERROR(r->ReadVector(&vscale_));
  if (vmin_.size() != dim_ || vscale_.size() != dim_)
    return common::Status::Corruption("sq: dim mismatch");
  return common::Status::Ok();
}

// ---- PrecisionStore --------------------------------------------------------

void PrecisionStore::Configure(Precision precision, size_t dim,
                               Metric metric) {
  BH_ASSERT_MSG(precision != Precision::kFp32,
                "PrecisionStore only holds reduced formats");
  precision_ = precision;
  metric_ = metric;
  dim_ = dim;
  size_ = 0;
  scale_ = 0.0f;
  half_.clear();
  i8_.clear();
  norms_.clear();
}

bool PrecisionStore::calibrated() const {
  return precision_ != Precision::kInt8 || scale_ > 0.0f;
}

void PrecisionStore::Train(const float* data, size_t n) {
  if (precision_ != Precision::kInt8 || calibrated() || n == 0) return;
  float maxabs = 0.0f;
  for (size_t i = 0; i < n * dim_; ++i) {
    float a = std::fabs(data[i]);
    // NaN compares false and is skipped; a NaN-only sample stays
    // uncalibrated and the next batch trains instead.
    if (a > maxabs && std::isfinite(a)) maxabs = a;
  }
  if (maxabs > 0.0f) scale_ = maxabs / 127.0f;
}

void PrecisionStore::EncodeRow(const float* v, size_t row) {
  switch (precision_) {
    case Precision::kFp16: {
      uint16_t* dst = half_.data() + row * dim_;
      for (size_t d = 0; d < dim_; ++d) dst[d] = kernels::FloatToFp16(v[d]);
      break;
    }
    case Precision::kBf16: {
      uint16_t* dst = half_.data() + row * dim_;
      for (size_t d = 0; d < dim_; ++d) dst[d] = kernels::FloatToBf16(v[d]);
      break;
    }
    case Precision::kInt8: {
      int8_t* dst = i8_.data() + row * dim_;
      float inv = 1.0f / scale_;
      for (size_t d = 0; d < dim_; ++d) {
        float q = v[d] * inv;
        q = std::clamp(q, -127.0f, 127.0f);
        dst[d] = static_cast<int8_t>(
            std::clamp(std::lround(q), -127L, 127L));
      }
      break;
    }
    case Precision::kFp32:
      break;
  }
  if (metric_ == Metric::kCosine) {
    float sq = 0.0f;
    switch (precision_) {
      case Precision::kInt8: {
        const int8_t* c = i8_.data() + row * dim_;
        int64_t acc = 0;
        for (size_t d = 0; d < dim_; ++d)
          acc += static_cast<int32_t>(c[d]) * static_cast<int32_t>(c[d]);
        sq = scale_ * scale_ * static_cast<float>(acc);
        break;
      }
      case Precision::kFp16: {
        const uint16_t* c = half_.data() + row * dim_;
        for (size_t d = 0; d < dim_; ++d) {
          float x = kernels::Fp16ToFloat(c[d]);
          sq += x * x;
        }
        break;
      }
      case Precision::kBf16: {
        const uint16_t* c = half_.data() + row * dim_;
        for (size_t d = 0; d < dim_; ++d) {
          float x = kernels::Bf16ToFloat(c[d]);
          sq += x * x;
        }
        break;
      }
      case Precision::kFp32:
        break;
    }
    norms_[row] = std::sqrt(sq);
  }
}

void PrecisionStore::Append(const float* data, size_t n) {
  if (n == 0) return;
  if (!calibrated()) Train(data, n);
  size_t first = size_;
  size_ += n;
  if (precision_ == Precision::kInt8) {
    i8_.resize(size_ * dim_);
  } else {
    half_.resize(size_ * dim_);
  }
  if (metric_ == Metric::kCosine) norms_.resize(size_);
  for (size_t i = 0; i < n; ++i) EncodeRow(data + i * dim_, first + i);
}

void PrecisionStore::PrepareQuery(const float* query, QueryCtx* ctx) const {
  ctx->query = query;
  ctx->q8.clear();
  ctx->l2_factor = 1.0f;
  ctx->dot_factor = 1.0f;
  ctx->query_norm = metric_ == Metric::kCosine
                        ? std::sqrt(SquaredNorm(query, dim_))
                        : 0.0f;
  if (precision_ != Precision::kInt8) return;
  float qscale = scale_;  // L2 shares the store grid
  if (metric_ != Metric::kL2) {
    float maxabs = 0.0f;
    for (size_t d = 0; d < dim_; ++d) {
      float a = std::fabs(query[d]);
      if (a > maxabs && std::isfinite(a)) maxabs = a;
    }
    qscale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  }
  if (qscale <= 0.0f) qscale = 1.0f;  // uncalibrated store (empty index)
  ctx->q8.resize(dim_);
  float inv = 1.0f / qscale;
  for (size_t d = 0; d < dim_; ++d) {
    float q = std::clamp(query[d] * inv, -127.0f, 127.0f);
    ctx->q8[d] =
        static_cast<int8_t>(std::clamp(std::lround(q), -127L, 127L));
  }
  ctx->l2_factor = scale_ * scale_;
  ctx->dot_factor = qscale * scale_;
}

void PrecisionStore::BatchDistanceCodes(const QueryCtx& ctx,
                                        const void* codes,
                                        const float* norms, size_t n,
                                        float* out) const {
  BH_ASSERT(n <= kMaxBatch);
  scanstats::Add(precision_, n);
  const kernels::KernelTable& kt = kernels::Get();
  if (precision_ == Precision::kInt8) {
    const int8_t* base = static_cast<const int8_t*>(codes);
    int32_t ibuf[kMaxBatch];
    switch (metric_) {
      case Metric::kL2:
        kt.batch_i8_l2sqr(ctx.q8.data(), base, n, dim_, ibuf);
        for (size_t i = 0; i < n; ++i)
          out[i] = ctx.l2_factor * static_cast<float>(ibuf[i]);
        break;
      case Metric::kInnerProduct:
        kt.batch_i8_dot(ctx.q8.data(), base, n, dim_, ibuf);
        for (size_t i = 0; i < n; ++i)
          out[i] = -ctx.dot_factor * static_cast<float>(ibuf[i]);
        break;
      case Metric::kCosine:
        kt.batch_i8_dot(ctx.q8.data(), base, n, dim_, ibuf);
        for (size_t i = 0; i < n; ++i)
          out[i] =
              CosineFromDot(ctx.dot_factor * static_cast<float>(ibuf[i]),
                            ctx.query_norm, norms[i]);
        break;
    }
    return;
  }
  const uint16_t* base = static_cast<const uint16_t*>(codes);
  const bool fp16 = precision_ == Precision::kFp16;
  switch (metric_) {
    case Metric::kL2:
      (fp16 ? kt.batch_fp16_l2sqr : kt.batch_bf16_l2sqr)(ctx.query, base, n,
                                                         dim_, out);
      break;
    case Metric::kInnerProduct:
      (fp16 ? kt.batch_fp16_inner_product
            : kt.batch_bf16_inner_product)(ctx.query, base, n, dim_, out);
      for (size_t i = 0; i < n; ++i) out[i] = -out[i];
      break;
    case Metric::kCosine:
      (fp16 ? kt.batch_fp16_inner_product
            : kt.batch_bf16_inner_product)(ctx.query, base, n, dim_, out);
      for (size_t i = 0; i < n; ++i)
        out[i] = CosineFromDot(out[i], ctx.query_norm, norms[i]);
      break;
  }
}

void PrecisionStore::BatchDistance(const QueryCtx& ctx, size_t first,
                                   size_t n, float* out) const {
  const float* norms =
      metric_ == Metric::kCosine ? norms_.data() + first : nullptr;
  BatchDistanceCodes(ctx, RowPtr(first), norms, n, out);
}

float PrecisionStore::Distance1(const QueryCtx& ctx, size_t row) const {
  scanstats::Add(precision_, 1);
  const kernels::KernelTable& kt = kernels::Get();
  if (precision_ == Precision::kInt8) {
    const int8_t* code = i8_.data() + row * dim_;
    switch (metric_) {
      case Metric::kL2:
        return kt.i8_asym_l2sqr(ctx.query, code, scale_, dim_);
      case Metric::kInnerProduct:
        return -kt.i8_asym_dot(ctx.query, code, scale_, dim_);
      case Metric::kCosine:
        return CosineFromDot(kt.i8_asym_dot(ctx.query, code, scale_, dim_),
                             ctx.query_norm, norms_[row]);
    }
    return 0.0f;
  }
  const uint16_t* code = half_.data() + row * dim_;
  const bool fp16 = precision_ == Precision::kFp16;
  switch (metric_) {
    case Metric::kL2:
      return (fp16 ? kt.fp16_l2sqr : kt.bf16_l2sqr)(ctx.query, code, dim_);
    case Metric::kInnerProduct:
      return -(fp16 ? kt.fp16_inner_product : kt.bf16_inner_product)(
          ctx.query, code, dim_);
    case Metric::kCosine:
      return CosineFromDot(
          (fp16 ? kt.fp16_inner_product : kt.bf16_inner_product)(ctx.query,
                                                                 code, dim_),
          ctx.query_norm, norms_[row]);
  }
  return 0.0f;
}

float PrecisionStore::DistanceToRow(const float* query, size_t row) const {
  QueryCtx ctx;
  ctx.query = query;
  if (metric_ == Metric::kCosine)
    ctx.query_norm = std::sqrt(SquaredNorm(query, dim_));
  return Distance1(ctx, row);
}

const void* PrecisionStore::RowPtr(size_t row) const {
  if (precision_ == Precision::kInt8) return i8_.data() + row * dim_;
  return half_.data() + row * dim_;
}

void PrecisionStore::Decode(size_t row, float* out) const {
  switch (precision_) {
    case Precision::kFp16: {
      const uint16_t* c = half_.data() + row * dim_;
      for (size_t d = 0; d < dim_; ++d) out[d] = kernels::Fp16ToFloat(c[d]);
      break;
    }
    case Precision::kBf16: {
      const uint16_t* c = half_.data() + row * dim_;
      for (size_t d = 0; d < dim_; ++d) out[d] = kernels::Bf16ToFloat(c[d]);
      break;
    }
    case Precision::kInt8: {
      const int8_t* c = i8_.data() + row * dim_;
      for (size_t d = 0; d < dim_; ++d)
        out[d] = scale_ * static_cast<float>(c[d]);
      break;
    }
    case Precision::kFp32:
      break;
  }
}

size_t PrecisionStore::MemoryBytes() const {
  return half_.capacity() * sizeof(uint16_t) + i8_.capacity() +
         norms_.capacity() * sizeof(float);
}

void PrecisionStore::Serialize(common::BinaryWriter* w) const {
  w->Write<uint8_t>(static_cast<uint8_t>(precision_));
  w->Write<uint8_t>(static_cast<uint8_t>(metric_));
  w->Write<uint64_t>(dim_);
  w->Write<uint64_t>(size_);
  w->Write<float>(scale_);
  w->WriteVector(half_);
  w->WriteVector(i8_);
  w->WriteVector(norms_);
}

common::Status PrecisionStore::Deserialize(common::BinaryReader* r) {
  uint8_t precision = 0, metric = 0;
  uint64_t dim = 0, size = 0;
  BH_RETURN_IF_ERROR(r->Read(&precision));
  BH_RETURN_IF_ERROR(r->Read(&metric));
  BH_RETURN_IF_ERROR(r->Read(&dim));
  BH_RETURN_IF_ERROR(r->Read(&size));
  BH_RETURN_IF_ERROR(r->Read(&scale_));
  if (precision > static_cast<uint8_t>(Precision::kInt8) ||
      precision == static_cast<uint8_t>(Precision::kFp32))
    return common::Status::Corruption("precision store: bad precision tag");
  if (metric > static_cast<uint8_t>(Metric::kCosine))
    return common::Status::Corruption("precision store: bad metric tag");
  precision_ = static_cast<Precision>(precision);
  metric_ = static_cast<Metric>(metric);
  dim_ = dim;
  size_ = size;
  BH_RETURN_IF_ERROR(r->ReadVector(&half_));
  BH_RETURN_IF_ERROR(r->ReadVector(&i8_));
  BH_RETURN_IF_ERROR(r->ReadVector(&norms_));
  size_t codes = precision_ == Precision::kInt8 ? i8_.size() : half_.size();
  if (codes != size_ * dim_)
    return common::Status::Corruption("precision store: code size mismatch");
  if (metric_ == Metric::kCosine && norms_.size() != size_)
    return common::Status::Corruption("precision store: norm size mismatch");
  return common::Status::Ok();
}

}  // namespace blendhouse::vecindex
