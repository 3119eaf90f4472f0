// Non-owning reference to a callable: an object pointer plus a
// trampoline, two pointers wide, never allocating. The pool's entry
// points take one (ThreadPool::run, run_beside, StorageBatch::run_epochs),
// so a task lambda may capture as many references as it likes.
//
// A FunctionRef does not extend the life of what it refers to: bind it to
// a parameter, call it while that call lasts, and never store it past the
// call. Callables that must be kept (SweepHooks) stay std::function.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace cim::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Implicit, so a lambda binds where a FunctionRef parameter is passed.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& fn) noexcept
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_(&call<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  // A function template rather than a captureless lambda: GCC 12
  // -fanalyzer reports the lambda's static thunk as calling operator()
  // on a null `this` (-Wanalyzer-null-argument).
  template <typename F>
  static R call(void* object, Args... args) {
    return (*static_cast<F*>(object))(std::forward<Args>(args)...);
  }

  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace cim::util
