#ifndef POSTBLOCK_SIM_INPLACE_CALLBACK_H_
#define POSTBLOCK_SIM_INPLACE_CALLBACK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace postblock::sim {

/// Fixed-size chunk recycler backing the rare oversized-capture path of
/// InplaceFunction. The simulator is single-threaded, so one slab per
/// thread doubles as "per simulator"; chunks are returned to a free list
/// instead of the heap, making even the fallback path allocation-free in
/// steady state. Captures larger than kChunkBytes (none in this repo)
/// fall through to plain operator new.
class CallbackSlab {
 public:
  static constexpr std::size_t kChunkBytes = 256;
  static constexpr std::size_t kMaxFree = 1024;  // cap on cached chunks

  struct Stats {
    std::uint64_t chunk_allocs = 0;   // chunks obtained from the heap
    std::uint64_t chunk_reuses = 0;   // chunks served from the free list
    std::uint64_t oversize_allocs = 0;  // captures too big even for a chunk
  };

  static void* Allocate(std::size_t bytes) {
    Slab& s = Instance();
    if (bytes <= kChunkBytes) {
      if (!s.free_list.empty()) {
        void* p = s.free_list.back();
        s.free_list.pop_back();
        ++s.stats.chunk_reuses;
        return p;
      }
      ++s.stats.chunk_allocs;
      return ::operator new(kChunkBytes);
    }
    ++s.stats.oversize_allocs;
    return ::operator new(bytes);
  }

  static void Deallocate(void* p, std::size_t bytes) {
    Slab& s = Instance();
    if (bytes <= kChunkBytes && s.free_list.size() < kMaxFree) {
      s.free_list.push_back(p);
      return;
    }
    ::operator delete(p);
  }

  static const Stats& stats() { return Instance().stats; }
  static void ResetStats() { Instance().stats = Stats{}; }

 private:
  struct Slab {
    std::vector<void*> free_list;
    Stats stats;
    ~Slab() {
      for (void* p : free_list) ::operator delete(p);
    }
  };
  static Slab& Instance() {
    thread_local Slab slab;
    return slab;
  }
};

/// Move-only callable with signature `Sig` and inline storage for small
/// captures — the one callback type of the simulator, from the event
/// queue (InplaceCallback) through the SSD device path (controller, FTL
/// and write-buffer continuations) up to the block layer's IoCallback.
/// Callables whose captures fit kInlineBytes live inside the object (no
/// heap traffic per call site); larger ones are boxed in a CallbackSlab
/// chunk. Hot-path lambdas capture at most a few pointers/words — per-op
/// state lives in a pool owned by the layer that issues the op — and
/// are guarded with `static_assert(Fn::fits<decltype(cb)>())`.
///
/// Like std::function, operator() is const-callable and the target may
/// be invoked more than once (the merge scheduler fans one device
/// completion out to every absorbed request's callback).
template <typename Sig>
class InplaceFunction;

template <typename R, typename... Args>
class InplaceFunction<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  template <typename F>
  static constexpr bool fits() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t);
  }

  InplaceFunction() = default;
  InplaceFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_base_of_v<InplaceFunction, std::decay_t<F>> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      void* p = CallbackSlab::Allocate(sizeof(D));
      ::new (p) D(std::forward<F>(f));
      ::new (static_cast<void*>(buf_)) void*(p);
      ops_ = &kBoxedOps<D>;
    }
  }

  InplaceFunction(InplaceFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      Relocate(other);
      other.ops_ = nullptr;
    }
  }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        Relocate(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InplaceFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True when the callable lives in the inline buffer (no slab chunk).
  bool stored_inline() const { return ops_ != nullptr && ops_->is_inline; }

  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(buf_),
                        std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    void (*relocate)(void* dst, void* src);  // move-construct + destroy src
    void (*destroy)(void* self);
    bool is_inline;
    /// Relocatable by memcpy of the buffer: trivially copyable inline
    /// captures, and every boxed callable (only the box pointer moves).
    bool trivial_relocate;
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Moves the callable out of `other`'s buffer. Hot-path captures are
  /// plain pointer/integer bundles, so a fixed-size memcpy (a couple of
  /// vector moves) usually replaces the indirect relocate call — the
  /// timing wheel relocates each entry on every cascade, so this is on
  /// the per-event path.
  void Relocate(InplaceFunction& other) {
    if (ops_->trivial_relocate) {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      // invoke
      [](void* self, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(self)))(
            std::forward<Args>(args)...);
      },
      // relocate
      [](void* dst, void* src) {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      // destroy
      [](void* self) { std::launder(reinterpret_cast<D*>(self))->~D(); },
      /*is_inline=*/true,
      /*trivial_relocate=*/std::is_trivially_copyable_v<D>,
  };

  template <typename D>
  static constexpr Ops kBoxedOps = {
      // invoke
      [](void* self, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(self)))(
            std::forward<Args>(args)...);
      },
      // relocate: the box pointer moves; the boxed object stays put.
      [](void* dst, void* src) {
        ::new (dst) void*(*std::launder(reinterpret_cast<void**>(src)));
      },
      // destroy
      [](void* self) {
        D* p = *std::launder(reinterpret_cast<D**>(self));
        p->~D();
        CallbackSlab::Deallocate(p, sizeof(D));
      },
      /*is_inline=*/false,
      /*trivial_relocate=*/true,
  };

  /// Zero-initialized so the fixed-size relocation memcpy never reads
  /// indeterminate bytes; overlapping stores are elided by the compiler
  /// when a callable is placement-newed over the buffer. The buffer
  /// comes first so a derived type's small fields (IoCallback's routing
  /// context) pack into the tail padding after ops_.
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes] = {};
  const Ops* ops_ = nullptr;
};

/// The event queue's `void()` callback.
using InplaceCallback = InplaceFunction<void()>;

}  // namespace postblock::sim

#endif  // POSTBLOCK_SIM_INPLACE_CALLBACK_H_
