// Iteration-space segments for the rperf portability layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace rperf::port {

using Index_type = std::int64_t;

/// Contiguous half-open index range [begin, end).
class RangeSegment {
 public:
  constexpr RangeSegment(Index_type begin, Index_type end)
      : begin_(begin), end_(end < begin ? begin : end) {}

  [[nodiscard]] constexpr Index_type begin() const { return begin_; }
  [[nodiscard]] constexpr Index_type end() const { return end_; }
  [[nodiscard]] constexpr Index_type size() const { return end_ - begin_; }

 private:
  Index_type begin_;
  Index_type end_;
};

/// Strided half-open index range: begin, begin+stride, ... < end.
class RangeStrideSegment {
 public:
  RangeStrideSegment(Index_type begin, Index_type end, Index_type stride)
      : begin_(begin), end_(end), stride_(stride) {
    if (stride <= 0) {
      throw std::invalid_argument("RangeStrideSegment: stride must be > 0");
    }
    if (end_ < begin_) end_ = begin_;
  }

  [[nodiscard]] Index_type begin() const { return begin_; }
  [[nodiscard]] Index_type end() const { return end_; }
  [[nodiscard]] Index_type stride() const { return stride_; }
  [[nodiscard]] Index_type size() const {
    return (end_ - begin_ + stride_ - 1) / stride_;
  }

 private:
  Index_type begin_;
  Index_type end_;
  Index_type stride_;
};

/// Explicit list of indices, in iteration order (may repeat, any order).
/// Built from a vector, the segment owns its indices (copies share them).
/// Built from a pointer and a count, it is a view of storage the caller
/// keeps alive, like RAJA's unowned list segments: constructing one copies
/// and allocates nothing, so a kernel may build it inside its timed loop.
class ListSegment {
 public:
  ListSegment() = default;
  explicit ListSegment(std::vector<Index_type> indices)
      : owned_(std::make_shared<const std::vector<Index_type>>(
            std::move(indices))),
        data_(owned_->data()),
        size_(static_cast<Index_type>(owned_->size())) {}
  ListSegment(const Index_type* data, std::size_t count)
      : data_(data), size_(static_cast<Index_type>(count)) {}

  [[nodiscard]] Index_type size() const { return size_; }
  [[nodiscard]] const Index_type* data() const { return data_; }
  [[nodiscard]] Index_type operator[](Index_type i) const { return data_[i]; }

 private:
  std::shared_ptr<const std::vector<Index_type>> owned_;
  const Index_type* data_ = nullptr;
  Index_type size_ = 0;
};

}  // namespace rperf::port
