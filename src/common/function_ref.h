// FunctionRef: a non-owning reference to a callable.
//
// std::function owns (and may heap-allocate) its target; a FunctionRef
// only points at one, so passing a lambda through it costs two words and
// no allocation. Use it for callbacks that are invoked during the call
// they are passed to and never stored — per-page and per-record visitors
// on hot scan paths.

#ifndef DBM_COMMON_FUNCTION_REF_H_
#define DBM_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace dbm {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Binds `fn`, which must outlive every call through this reference.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& fn)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace dbm

#endif  // DBM_COMMON_FUNCTION_REF_H_
