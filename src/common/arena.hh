/**
 * @file
 * Lifetime-scoped arena allocation for per-run simulator state.
 *
 * A simulated core's restorable state (ROB, front-end queue, LSQ
 * ring, issue-window order array, predictor tables, cache metadata,
 * rename maps, workload lookahead) lives exactly as long as the core
 * itself, and every element type is trivially copyable.  An Arena is
 * a bump allocator matching that lifetime: containers carve
 * contiguous blocks out of large chunks, nothing is freed
 * individually, and the whole region is released when the owning
 * core is destroyed.  The payoff is twofold: hot per-cycle loops
 * walk dense, co-located buffers, and the snapshot binary codec can
 * serialize each container at ~memcpy speed because state is already
 * a small set of contiguous trivially-copyable buffers.
 *
 * ArenaVector is the growable/assignable container (element
 * addresses are NOT stable across growth); ArenaRing is a
 * fixed-capacity circular buffer with stable element addresses, used
 * where other structures hold pointers into the container (the ROB
 * and fetch queue are referenced by the issue window and the
 * issued-pending completion list).
 */

#ifndef FLYWHEEL_COMMON_ARENA_HH
#define FLYWHEEL_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "common/log.hh"

namespace flywheel {

/** Chunked bump allocator; memory is released only on destruction. */
class Arena
{
  public:
    static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

    explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
        : chunkBytes_(chunk_bytes)
    {
    }

    ~Arena()
    {
        Chunk *c = head_;
        while (c) {
            Chunk *next = c->next;
            ::operator delete(static_cast<void *>(c));
            c = next;
        }
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Carve @p bytes with @p align from the current chunk. */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        FW_ASSERT(align != 0 && (align & (align - 1)) == 0,
                  "arena alignment must be a power of two");
        if (bytes == 0)
            bytes = 1;
        std::uintptr_t base =
            head_ ? reinterpret_cast<std::uintptr_t>(head_ + 1) +
                        head_->used
                  : 0;
        std::uintptr_t aligned = (base + align - 1) & ~(align - 1);
        std::size_t need = bytes + (aligned - base);
        if (!head_ || head_->used + need > head_->size) {
            grow(bytes + align);
            base = reinterpret_cast<std::uintptr_t>(head_ + 1);
            aligned = (base + align - 1) & ~(align - 1);
            need = bytes + (aligned - base);
        }
        head_->used += need;
        return reinterpret_cast<void *>(aligned);
    }

    /** Typed array allocation (uninitialized storage). */
    template <typename T>
    T *
    allocArray(std::size_t n)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "arena containers hold trivially copyable types");
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

  private:
    struct Chunk
    {
        Chunk *next;
        std::size_t size;  ///< payload bytes following the header
        std::size_t used;
    };

    void
    grow(std::size_t at_least)
    {
        std::size_t payload = chunkBytes_;
        while (payload < at_least)
            payload *= 2;
        void *mem = ::operator new(sizeof(Chunk) + payload);
        Chunk *c = static_cast<Chunk *>(mem);
        c->next = head_;
        c->size = payload;
        c->used = 0;
        head_ = c;
    }

    Chunk *head_ = nullptr;
    std::size_t chunkBytes_;
};

/**
 * Growable contiguous array carved from an Arena.  vector-like API
 * over trivially-copyable elements; growth re-carves and memcpys
 * (the old block is abandoned to the arena), so element addresses
 * are NOT stable across push_back/resize/reserve.  reserve(n) sets
 * capacity to exactly n when growing (mirroring reserve-from-empty
 * std::vector behaviour the issue-window compaction timing depends
 * on); a push_back at capacity doubles.
 */
template <typename T>
class ArenaVector
{
    static_assert(std::is_trivially_copyable<T>::value,
                  "ArenaVector requires trivially copyable T");

  public:
    explicit ArenaVector(Arena &arena) : arena_(&arena) {}

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }
    bool empty() const { return size_ == 0; }

    T *data() { return data_; }
    const T *data() const { return data_; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    T &
    at(std::size_t i)
    {
        FW_ASSERT(i < size_, "ArenaVector index %zu out of %zu", i,
                  size_);
        return data_[i];
    }

    const T &
    at(std::size_t i) const
    {
        FW_ASSERT(i < size_, "ArenaVector index %zu out of %zu", i,
                  size_);
        return data_[i];
    }

    T &front() { return data_[0]; }
    T &back() { return data_[size_ - 1]; }
    const T &front() const { return data_[0]; }
    const T &back() const { return data_[size_ - 1]; }

    void clear() { size_ = 0; }

    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            regrow(n);
    }

    void
    resize(std::size_t n)
    {
        if (n > cap_)
            regrow(growthFor(n));
        if (n > size_) {
            if constexpr (std::is_trivially_default_constructible_v<T>)
                std::memset(data_ + size_, 0,
                            (n - size_) * sizeof(T));
            else
                for (std::size_t i = size_; i < n; ++i)
                    data_[i] = T();
        }
        size_ = n;
    }

    void
    resize(std::size_t n, const T &fill)
    {
        if (n > cap_)
            regrow(growthFor(n));
        for (std::size_t i = size_; i < n; ++i)
            data_[i] = fill;
        size_ = n;
    }

    void
    assign(std::size_t n, const T &fill)
    {
        size_ = 0;
        resize(n, fill);
    }

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            regrow(cap_ ? cap_ * 2 : 8);
        data_[size_++] = v;
    }

    void
    pop_back()
    {
        FW_ASSERT(size_ > 0, "pop_back on empty ArenaVector");
        --size_;
    }

    /** Drop the first @p n elements, shifting the rest down. */
    void
    eraseFront(std::size_t n)
    {
        FW_ASSERT(n <= size_, "eraseFront(%zu) of %zu", n, size_);
        std::memmove(data_, data_ + n, (size_ - n) * sizeof(T));
        size_ -= n;
    }

  private:
    std::size_t
    growthFor(std::size_t need) const
    {
        std::size_t cap = cap_ ? cap_ : 8;
        while (cap < need)
            cap *= 2;
        return cap;
    }

    void
    regrow(std::size_t new_cap)
    {
        T *next = arena_->allocArray<T>(new_cap);
        if (size_)
            std::memcpy(next, data_, size_ * sizeof(T));
        data_ = next;
        cap_ = new_cap;
    }

    Arena *arena_;
    T *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

/**
 * Fixed-capacity circular buffer carved from an Arena: deque-like
 * push_back/pop_front/pop_back over a single contiguous block.
 * Capacity is set at construction and never changes, so element
 * addresses are stable for the element's residency (a slot is only
 * rewritten after its element is popped — the same reuse contract a
 * deque gives the ROB's pointer holders).
 */
template <typename T>
class ArenaRing
{
    static_assert(std::is_trivially_copyable<T>::value,
                  "ArenaRing requires trivially copyable T");

  public:
    ArenaRing(Arena &arena, std::size_t capacity)
        : data_(arena.allocArray<T>(capacity)), cap_(capacity)
    {
        FW_ASSERT(capacity > 0, "ArenaRing needs capacity > 0");
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return data_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return data_[wrap(head_ + i)];
    }

    T &
    at(std::size_t i)
    {
        FW_ASSERT(i < size_, "ArenaRing index %zu out of %zu", i,
                  size_);
        return (*this)[i];
    }

    const T &
    at(std::size_t i) const
    {
        FW_ASSERT(i < size_, "ArenaRing index %zu out of %zu", i,
                  size_);
        return (*this)[i];
    }

    T &front() { return data_[head_]; }
    const T &front() const { return data_[head_]; }
    T &back() { return data_[wrap(head_ + size_ - 1)]; }
    const T &back() const { return data_[wrap(head_ + size_ - 1)]; }

    void
    push_back(const T &v)
    {
        FW_ASSERT(size_ < cap_, "ArenaRing overflow (capacity %zu)",
                  cap_);
        data_[wrap(head_ + size_)] = v;
        ++size_;
    }

    /** Append a value-initialized element and return it. */
    T &
    emplace_back()
    {
        FW_ASSERT(size_ < cap_, "ArenaRing overflow (capacity %zu)",
                  cap_);
        T &slot = data_[wrap(head_ + size_)];
        slot = T();
        ++size_;
        return slot;
    }

    void
    pop_front()
    {
        FW_ASSERT(size_ > 0, "pop_front on empty ArenaRing");
        head_ = wrap(head_ + 1);
        --size_;
    }

    void
    pop_back()
    {
        FW_ASSERT(size_ > 0, "pop_back on empty ArenaRing");
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Forward iterator in logical (oldest-first) order. */
    template <typename Ring, typename Ref>
    class Iter
    {
      public:
        Iter(Ring *ring, std::size_t i) : ring_(ring), i_(i) {}
        Ref operator*() const { return (*ring_)[i_]; }
        auto operator->() const { return &(*ring_)[i_]; }
        Iter &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const Iter &o) const { return i_ == o.i_; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        Ring *ring_;
        std::size_t i_;
    };

    using iterator = Iter<ArenaRing, T &>;
    using const_iterator = Iter<const ArenaRing, const T &>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, size_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= cap_ ? i - cap_ : i;
    }

    T *data_;
    std::size_t cap_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace flywheel

#endif // FLYWHEEL_COMMON_ARENA_HH
