#ifndef DOTPROV_COMMON_ARENA_H_
#define DOTPROV_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace dot {

/// Bump allocator for search-node state (DESIGN.md §13): one arena per
/// branch-and-bound shard (and one per epoch-DP solve) holds every
/// allocation the walker makes, and Reset() reclaims them all in O(1)
/// between subtree tasks. Blocks are chained on demand and the largest
/// survives Reset, so a steady-state walker allocates from one warm block
/// and never touches malloc again.
///
/// Only trivially-destructible payloads: Reset() runs no destructors.
/// Single-threaded, like the walkers it backs.
class Arena {
 public:
  /// `initial_block_bytes` sizes the first block (grown geometrically when
  /// exhausted). The default covers a full TPC-H branch-and-bound shard
  /// (a 2,192-byte peak) twice over. A solve builds up to 64 shard arenas,
  /// and 64-KiB first blocks made every solve allocate and zero 4 MiB;
  /// freed at once, they also sent the heap through a trim and regrow per
  /// solve, which made htap-advisor op times hinge on unrelated struct
  /// sizes.
  explicit Arena(std::size_t initial_block_bytes = 1 << 12);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `bytes` of storage aligned to `align` (a power of two). Never null;
  /// zero-byte requests return a valid unique pointer.
  void* Allocate(std::size_t bytes, std::size_t align);

  /// Uninitialized storage for `count` elements of trivially-destructible T.
  template <typename T>
  T* AllocateArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::Reset runs no destructors");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Reclaims every allocation; retains the largest block so a reused
  /// arena reaches a steady state with zero malloc traffic.
  void Reset();

  /// Cumulative bytes handed out across the arena's lifetime (survives
  /// Reset) — the provenance counter's raw material.
  std::uint64_t bytes_allocated() const { return bytes_allocated_; }

  /// High-water mark of live bytes at any point since construction.
  std::uint64_t bytes_peak() const { return bytes_peak_; }

  /// Number of Reset() calls.
  std::uint64_t resets() const { return resets_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  /// Makes `bytes` available, growing geometrically.
  void AddBlock(std::size_t bytes);

  std::vector<Block> blocks_;
  char* ptr_ = nullptr;  ///< bump pointer into blocks_.back()
  char* end_ = nullptr;
  std::size_t initial_block_bytes_;
  std::uint64_t live_bytes_ = 0;  ///< bytes handed out since last Reset
  std::uint64_t bytes_allocated_ = 0;
  std::uint64_t bytes_peak_ = 0;
  std::uint64_t resets_ = 0;
};

}  // namespace dot

#endif  // DOTPROV_COMMON_ARENA_H_
