// UniqueFunction<R(Args...)>: the one callback type of the simulator — a
// move-only type-erased callable (the shape of C++23's
// std::move_only_function), so that simulation events and async
// completions can capture move-only state (Buffers, Results) without
// shared_ptr indirection, and so that a callback is never copied by
// accident.
//
// Small-buffer optimized: callables up to kInlineSize bytes live inline
// (no heap allocation on the simulator's event hot path); larger captures
// fall back to a heap box. Dispatch is a static ops table (call/relocate/
// destroy) instead of a virtual base, so the inline case costs one
// indirect call and zero allocations.

#ifndef DPDPU_COMMON_FUNCTION_H_
#define DPDPU_COMMON_FUNCTION_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dpdpu {

template <typename Signature>
class UniqueFunction;

/// Type-erased move-only callable with signature R(Args...). Default- or
/// nullptr-constructed instances are empty (false); calling an empty one
/// is undefined, so optional callbacks are invoked as `if (cb) cb(...)`.
template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Inline storage: sized so a capture of several pointers/integers
  /// (the typical simulation event lambda) fits without allocating;
  /// sizeof(UniqueFunction) stays at one cache line.
  static constexpr size_t kInlineSize = 56;
  static constexpr size_t kInlineAlign = alignof(std::max_align_t);

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(runtime/explicit)
    using D = std::decay_t<F>;
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { MoveFrom(other); }
  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->call(storage_, std::forward<Args>(args)...);
  }

  /// True when the held callable lives in inline storage (test hook for
  /// the SBO size contract; empty functions report false).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    R (*call)(void*, Args&&...);
    // Move-constructs the payload from `from` into `to`, then destroys
    // the payload at `from` (heap boxes just relocate the pointer).
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D* Inline(void* s) {
    return std::launder(reinterpret_cast<D*>(s));
  }
  template <typename D>
  static D*& Boxed(void* s) {
    return *std::launder(reinterpret_cast<D**>(s));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... args) -> R {
        // The cast discards a value a void signature does not return.
        return static_cast<R>((*Inline<D>(s))(std::forward<Args>(args)...));
      },
      [](void* from, void* to) noexcept {
        D* f = Inline<D>(from);
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* s) { Inline<D>(s)->~D(); },
      /*inline_storage=*/true,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s, Args&&... args) -> R {
        return static_cast<R>((*Boxed<D>(s))(std::forward<Args>(args)...));
      },
      [](void* from, void* to) noexcept {
        ::new (to) D*(Boxed<D>(from));
      },
      [](void* s) { delete Boxed<D>(s); },
      /*inline_storage=*/false,
  };

  void MoveFrom(UniqueFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace dpdpu

#endif  // DPDPU_COMMON_FUNCTION_H_
