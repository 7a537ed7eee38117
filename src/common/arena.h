// Slab/bump arena for the vectorized execution hot path.
//
// The batch kernels (src/query/batch.h) want per-morsel scratch and
// per-query state that costs zero operator-new calls in steady state:
// the arena allocates big chunks from the heap once, hands out aligned
// bump-pointer slices, and Reset() rewinds to the start while RETAINING
// every chunk — the next morsel (or the next query on a warm worker)
// reuses the same memory with no heap traffic at all. This is the
// SlabAllocator idiom (rippled's SlabAllocator.h): pay the allocator
// once, then run allocation-free as fast as the hardware allows.
//
// Not thread-safe: arenas are strictly per-worker (the parallel engine
// gives every vCPU its own pair — see WorkerPool::ScratchArena /
// StateArena) so there is nothing to share and nothing to lock.
//
// Under AddressSanitizer the arena poisons every byte it has not handed
// out: a fresh chunk is poisoned whole, Allocate unpoisons exactly the
// slice it returns, and Reset poisons every chunk again. A kernel that
// reads past its batch arrays into a chunk's slack is then reported,
// though the bytes are the arena's own.

#ifndef DBM_COMMON_ARENA_H_
#define DBM_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DBM_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DBM_ARENA_ASAN 1
#endif
#endif
#ifdef DBM_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define DBM_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define DBM_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define DBM_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define DBM_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace dbm {

class Arena {
 public:
  explicit Arena(size_t chunk_bytes = 256 * 1024)
      : chunk_bytes_(chunk_bytes == 0 ? 4096 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() { Release(); }

  /// Allocates the first chunk now, so the first Allocate that fits in
  /// it makes no operator-new call (a worker pool primes its arenas when
  /// it is built). No-op once the arena holds a chunk.
  void Prime() {
    if (chunks_.empty()) AddChunk(chunk_bytes_);
  }

  /// Returns `bytes` of storage aligned to `align` (power of two).
  /// Never fails; grows the arena when the retained chunks are full —
  /// the only path that touches operator new.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    while (cur_ < chunks_.size()) {
      Chunk& c = chunks_[cur_];
      size_t aligned = (offset_ + (align - 1)) & ~(align - 1);
      if (aligned + bytes <= c.size) {
        offset_ = aligned + bytes;
        used_high_water_ = std::max(used_high_water_, TotalUsed());
        DBM_ARENA_UNPOISON(c.data.get() + aligned, bytes);
        return c.data.get() + aligned;
      }
      // This chunk is exhausted for a request this size; move on. The
      // skipped tail is reclaimed at the next Reset().
      ++cur_;
      offset_ = 0;
    }
    AddChunk(bytes > chunk_bytes_ ? bytes : chunk_bytes_);
    cur_ = chunks_.size() - 1;
    offset_ = bytes;
    used_high_water_ = std::max(used_high_water_, TotalUsed());
    DBM_ARENA_UNPOISON(chunks_.back().data.get(), bytes);
    return chunks_.back().data.get();
  }

  /// Typed array of `n` elements (uninitialised). T must not need a
  /// destructor — the arena never runs any.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Copies a string payload into the arena; the view stays valid until
  /// Reset(). Empty input returns an empty view without allocating.
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) return {};
    char* p = static_cast<char*>(Allocate(s.size(), 1));
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  /// Rewinds to empty while retaining every chunk. All outstanding
  /// pointers become dangling-by-contract; the memory is reused.
  void Reset() {
    for (Chunk& c : chunks_) DBM_ARENA_POISON(c.data.get(), c.size);
    cur_ = 0;
    offset_ = 0;
    ++resets_;
  }

  /// Releases every chunk back to the heap (tests / teardown).
  void Release() {
    // The heap may reuse these bytes for anything: unpoison first.
    for (Chunk& c : chunks_) DBM_ARENA_UNPOISON(c.data.get(), c.size);
    chunks_.clear();
    cur_ = 0;
    offset_ = 0;
  }

  /// Heap bytes held by the arena (capacity, not live use).
  size_t reserved_bytes() const {
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  size_t chunk_count() const { return chunks_.size(); }
  uint64_t resets() const { return resets_; }
  size_t high_water_bytes() const { return used_high_water_; }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  void AddChunk(size_t size) {
    chunks_.push_back(Chunk{std::unique_ptr<char[]>(new char[size]), size});
    DBM_ARENA_POISON(chunks_.back().data.get(), size);
  }

  size_t TotalUsed() const {
    size_t used = offset_;
    for (size_t i = 0; i < cur_ && i < chunks_.size(); ++i) {
      used += chunks_[i].size;
    }
    return used;
  }

  const size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t cur_ = 0;     // chunk currently bumping
  size_t offset_ = 0;  // bump offset within chunks_[cur_]
  uint64_t resets_ = 0;
  size_t used_high_water_ = 0;
};

/// A growable array of trivially copyable elements living entirely in an
/// arena. Growth allocates a doubled block from the arena and memcpys —
/// the abandoned block is reclaimed wholesale at the arena's Reset().
/// After the arena resets, the vec must be re-Init()ed before use.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  void Init(Arena* arena) {
    arena_ = arena;
    data_ = nullptr;
    size_ = 0;
    cap_ = 0;
  }

  void PushBack(const T& v) {
    if (size_ == cap_) Grow(size_ + 1);
    data_[size_++] = v;
  }

  void Reserve(size_t n) {
    if (n > cap_) Grow(n);
  }

  /// Sets the size to `n`; elements past the old size are uninitialised.
  void Resize(size_t n) {
    Reserve(n);
    size_ = n;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  /// Forgets the contents but keeps the current arena block.
  void Clear() { size_ = 0; }

 private:
  void Grow(size_t need) {
    size_t ncap = cap_ == 0 ? 64 : cap_ * 2;
    while (ncap < need) ncap *= 2;
    T* nd = arena_->AllocateArray<T>(ncap);
    if (size_ > 0) std::memcpy(nd, data_, size_ * sizeof(T));
    data_ = nd;
    cap_ = ncap;
  }

  Arena* arena_ = nullptr;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t cap_ = 0;
};

}  // namespace dbm

#endif  // DBM_COMMON_ARENA_H_
