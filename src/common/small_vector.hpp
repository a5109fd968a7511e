// small_vector.hpp — a stack whose first N elements live inside the object.
//
// For per-document scratch: the tokenizer's open elements and attributes
// and the emitter's open tags. Nearly every document fits in the inline
// capacity, so building a tokenizer or an emitter allocates nothing; a
// deeper or wider document spills to the heap and carries on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

namespace wsx::common {

/// Elements must be trivially copyable: a spill copies them bytewise.
/// Neither copyable nor movable, because data() may point into the object.
template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  SmallVector() = default;
  SmallVector(const SmallVector&) = delete;
  SmallVector& operator=(const SmallVector&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == capacity_) grow();
    data_[size_++] = value;
  }
  void pop_back() { --size_; }
  void clear() { size_ = 0; }

 private:
  void grow() {
    std::unique_ptr<T[]> heap(new T[capacity_ * 2]);
    std::copy(data_, data_ + size_, heap.get());
    heap_ = std::move(heap);
    data_ = heap_.get();
    capacity_ *= 2;
  }

  // Raw bytes, so a new vector does not initialise N elements it may
  // never use. A byte array implicitly creates the T[N] that data_ points
  // into; T is trivially copyable, so that array needs no constructor.
  alignas(T) std::byte inline_[N * sizeof(T)];
  std::unique_ptr<T[]> heap_;
  T* data_ = std::launder(reinterpret_cast<T*>(inline_));
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace wsx::common
