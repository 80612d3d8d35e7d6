// Clang thread-safety annotations + annotated mutex wrappers.
//
// The annotation macros expand to Clang's capability-analysis attributes
// when the compiler supports them (clang with -Wthread-safety, which the
// clang CI legs enable together with -Werror — docs/static-analysis.md)
// and to nothing elsewhere, so gcc builds are unaffected. Every class with
// cross-thread mutable state must declare which mutex guards which member
// (ANU_GUARDED_BY) and which capabilities its private helpers assume
// (ANU_REQUIRES); CONTRIBUTING.md makes this a review rule.
//
// The Mutex / MutexLock wrappers exist because the analysis cannot see
// through std::mutex / std::unique_lock: only types annotated with
// ANU_CAPABILITY / ANU_SCOPED_CAPABILITY participate. They compile to
// exactly the std primitives they wrap.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ANU_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ANU_THREAD_ANNOTATION
#define ANU_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Declares that a member is protected by the given capability (mutex).
#define ANU_GUARDED_BY(x) ANU_THREAD_ANNOTATION(guarded_by(x))
/// Declares that the *pointee* of a pointer member is protected.
#define ANU_PT_GUARDED_BY(x) ANU_THREAD_ANNOTATION(pt_guarded_by(x))
/// The function may only be called while holding the capability.
#define ANU_REQUIRES(...) \
  ANU_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// The function may only be called while NOT holding the capability.
#define ANU_EXCLUDES(...) ANU_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// The function acquires the capability and holds it on return.
#define ANU_ACQUIRE(...) \
  ANU_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// The function releases the capability.
#define ANU_RELEASE(...) \
  ANU_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// The function acquires the capability iff it returns `ret`.
#define ANU_TRY_ACQUIRE(ret, ...) \
  ANU_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))
/// Marks a type as a capability ("mutex" in diagnostics).
#define ANU_CAPABILITY(name) ANU_THREAD_ANNOTATION(capability(name))
/// Marks an RAII type whose lifetime equals the hold of a capability.
#define ANU_SCOPED_CAPABILITY ANU_THREAD_ANNOTATION(scoped_lockable)
/// Escape hatch: suppresses the analysis for one function. Every use must
/// carry a comment justifying why the analysis cannot see the invariant.
#define ANU_NO_THREAD_SAFETY_ANALYSIS \
  ANU_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace anu {

/// std::mutex with a capability annotation so ANU_GUARDED_BY members and
/// ANU_REQUIRES contracts are checkable. Prefer MutexLock over manual
/// lock()/unlock() pairs.
class ANU_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ANU_ACQUIRE() { mu_.lock(); }
  void unlock() ANU_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() ANU_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

  /// The wrapped std::mutex, for MutexLock. Holding it via this handle is
  /// invisible to the analysis — use MutexLock instead.
  [[nodiscard]] std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII lock on an anu::Mutex, visible to the analysis as holding the
/// capability for its whole scope.
class ANU_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ANU_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() ANU_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

}  // namespace anu
