// arena.hpp — a bump allocator for parse-scoped scratch memory.
//
// The streaming XML tokenizer (xml/pull.*) hands out std::string_view
// tokens that alias the input buffer; the only bytes it ever has to own
// are entity-decoded text and attribute values. Those are many small
// allocations with one common lifetime (the parse), which is exactly the
// arena shape: bump a pointer inside geometrically growing blocks, free
// everything at once.
//
// Not thread-safe by design — every tokenizer owns its own arena, so the
// campaign worker pools get per-thread arenas for free.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace wsx::common {

class Arena {
 public:
  /// First block size; later blocks double until kMaxBlockBytes.
  static constexpr std::size_t kFirstBlockBytes = 1024;
  static constexpr std::size_t kMaxBlockBytes = 256 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialised character scratch of `bytes` capacity (entity decoding
  /// writes into this, then shrinks the view to what it produced). The
  /// pointer stays valid until the arena is destroyed — growing the arena
  /// never moves earlier allocations (new blocks are chained, not
  /// reallocated).
  char* char_buffer(std::size_t bytes) {
    if (blocks_.empty() || used_ + bytes > blocks_.back().size) grow(bytes);
    char* out = blocks_.back().data.get() + used_;
    used_ += bytes;
    return out;
  }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  void grow(std::size_t at_least) {
    std::size_t next = blocks_.empty() ? kFirstBlockBytes
                                       : std::min(blocks_.back().size * 2, kMaxBlockBytes);
    if (next < at_least) next = at_least;
    blocks_.push_back({std::unique_ptr<char[]>(new char[next]), next});
    used_ = 0;
  }

  std::vector<Block> blocks_;
  std::size_t used_ = 0;  ///< bump offset inside the current block
};

}  // namespace wsx::common
