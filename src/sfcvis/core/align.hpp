// Cache-line constant and the aligned buffer grid storage lives in.
#pragma once

#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sfcvis::core {

/// Cache-line size assumed throughout the library (both paper platforms —
/// Ivy Bridge and KNC — use 64-byte lines, as does the memsim default).
inline constexpr std::size_t kCacheLineBytes = 64;

/// Owning cache-line-aligned storage — the allocation backend of Grid3D.
/// Every element, layout padding included, is value-initialized (zeroed
/// for floats) on the allocating thread.
template <class T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  /// Throws std::bad_alloc when count * sizeof(T) does not fit in size_t
  /// or the allocation fails.
  explicit AlignedBuffer(std::size_t count) { allocate(count); }

  AlignedBuffer(const AlignedBuffer& other) {
    allocate(other.size_);
    if (size_ != 0) {
      std::memcpy(static_cast<void*>(data_), static_cast<const void*>(other.data_),
                  size_ * sizeof(T));
    }
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      AlignedBuffer tmp(other);
      *this = std::move(tmp);
    }
    return *this;
  }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedBuffer holds grid scalars (no per-element destruction)");

  void allocate(std::size_t count) {
    if (count == 0) {
      return;
    }
    // Without this check count * sizeof(T) wraps to a small allocation that
    // the value-initialization below would overrun.
    if (count > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    data_ = static_cast<T*>(
        ::operator new(count * sizeof(T), std::align_val_t{kCacheLineBytes}));
    size_ = count;
    std::uninitialized_value_construct_n(data_, count);
  }

  void release() noexcept {
    if (data_ != nullptr) {
      ::operator delete(static_cast<void*>(data_), std::align_val_t{kCacheLineBytes});
      data_ = nullptr;
      size_ = 0;
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace sfcvis::core
