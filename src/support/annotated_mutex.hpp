// Clang thread-safety-analysis aware mutex wrappers (PR 9).
//
// Every mutex in the repo is a vebo::Mutex, every lock scope a
// vebo::MutexLock, and every lock-guarded member carries GUARDED_BY — so
// `clang++ -Wthread-safety -Werror` turns the ROADMAP's prose lock
// discipline ("collectors snapshot under the component's own locks",
// "every ledger transition happens in one stats-mutex critical section")
// into compile errors. Under GCC, or any compiler without the capability
// attributes, every macro below expands to nothing and the wrappers
// compile down to the std types they hold: zero code, zero data, zero
// cost in the release build (the bench_obs_overhead budget covers this).
//
// There is no analysis carve-out: no function opts out of the check,
// and this header defines no macro to do so — a future exception has to
// add one here, in plain sight, with its justification at the site.
// Lock-free structures (atomics, the per-thread span rings) have no
// capability to annotate in the first place.
//
// vebo_lint.py rule `raw-mutex` keeps new code honest: the std mutex and
// lock tokens may appear in this header only.
#pragma once

#include <mutex>

// ------------------------------------------------ annotation macros
// The standard capability-attribute macro set (the clang documentation's
// mutex.h), gated so non-clang compilers see plain declarations.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define VEBO_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef VEBO_THREAD_ANNOTATION
#define VEBO_THREAD_ANNOTATION(x)  // not clang: annotations vanish
#endif

#define CAPABILITY(x) VEBO_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY VEBO_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) VEBO_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) VEBO_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) \
  VEBO_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  VEBO_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  VEBO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) VEBO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) VEBO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  VEBO_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  VEBO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) VEBO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) VEBO_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) VEBO_THREAD_ANNOTATION(lock_returned(x))

namespace vebo {

// ------------------------------------------------- annotated mutexes

/// std::mutex with the `mutex` capability: members it guards say
/// GUARDED_BY(m_), helpers that assume it say REQUIRES(m_), public entry
/// points that take it say EXCLUDES(m_).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped mutex, for the guards below only — user code never
  /// locks it directly (vebo_lint's raw-mutex rule).
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

// --------------------------------------------------- scoped lock guards

/// RAII exclusive lock over a Mutex. Holds a std::unique_lock so
/// condition variables can wait on it: `cv.wait(lk.native_lock(), pred)`
/// — the analysis treats the capability as held across the wait, which
/// is exactly the caller's view (the predicate runs under the lock).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) ACQUIRE(m) : lk_(m.native()) {}
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Early release / re-acquire for unlock-work-relock shapes
  /// (EnginePool::lease binds the engine outside the pool lock).
  void unlock() RELEASE() { lk_.unlock(); }
  void lock() ACQUIRE() { lk_.lock(); }

  /// For condition_variable::wait only.
  std::unique_lock<std::mutex>& native_lock() { return lk_; }

 private:
  std::unique_lock<std::mutex> lk_;
};

}  // namespace vebo
