// Tensor shapes for the DNN IR.
//
// Convolutional tensors are NCHW. Transformer token tensors (B, tokens, dim)
// are stored as N=B, C=dim, H=tokens, W=1 so a single shape type serves both
// model families.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace powerlens::dnn {

struct TensorShape {
  std::int64_t n = 1;  // batch
  std::int64_t c = 0;  // channels / embedding dim
  std::int64_t h = 0;  // height / token count
  std::int64_t w = 0;  // width / 1 for token tensors

  constexpr std::int64_t elements() const noexcept { return n * c * h * w; }
  constexpr std::int64_t elements_per_sample() const noexcept {
    return c * h * w;
  }

  constexpr bool valid() const noexcept {
    return n > 0 && c > 0 && h > 0 && w > 0;
  }

  constexpr bool operator==(const TensorShape&) const noexcept = default;

  // Appends in place: GCC 12 misreports the chained operator+ temporaries
  // as an overlapping memcpy (-Wrestrict).
  std::string to_string() const {
    std::string s = "(";
    for (std::int64_t d : {n, c, h, w}) {
      if (s.size() > 1) s += ", ";
      s += std::to_string(d);
    }
    s += ')';
    return s;
  }
};

// Output spatial size of a conv/pool window: floor((in + 2p - k) / s) + 1.
// Throws std::invalid_argument if the window does not fit.
constexpr std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                                    std::int64_t stride, std::int64_t pad) {
  const std::int64_t numer = in + 2 * pad - kernel;
  if (numer < 0 || stride <= 0) {
    throw std::invalid_argument("conv_out_dim: window does not fit input");
  }
  return numer / stride + 1;
}

}  // namespace powerlens::dnn
