// Clang thread-safety-analysis aware mutex wrappers (PR 9).
//
// Every mutex in the repo is a vebo::Mutex (or vebo::SharedMutex), every
// lock scope a vebo::MutexLock / vebo::SharedLock, and every lock-guarded
// member carries GUARDED_BY — so `clang++ -Wthread-safety -Werror` turns
// the ROADMAP's prose lock discipline ("collectors snapshot under the
// component's own locks", "every ledger transition happens in one
// stats-mutex critical section") into compile errors. Under GCC, or any
// compiler without the capability attributes, every macro below expands
// to nothing and the wrappers compile down to the std types they hold:
// zero code, zero data, zero cost in the release build (the
// bench_obs_overhead budget covers this).
//
// The only sanctioned escapes are:
//  * NO_THREAD_SAFETY_ANALYSIS on the documented double-checked-locking
//    fast path (Engine::dense_chunks) and the quiescence-contract writer
//    (Engine::rebind) — each carries a one-line justification at the
//    site;
//  * lock-free structures (atomics, the per-thread span rings), which
//    have no capability to annotate in the first place.
//
// vebo_lint.py rule `raw-mutex` keeps new code honest: the std mutex and
// lock tokens may appear in this header only.
#pragma once

#include <mutex>
#include <shared_mutex>

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
#define REQUIRES_SHARED(...) \
  VEBO_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) VEBO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  VEBO_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) VEBO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  VEBO_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  VEBO_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  VEBO_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  VEBO_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) VEBO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) VEBO_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  VEBO_THREAD_ANNOTATION(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) VEBO_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  VEBO_THREAD_ANNOTATION(no_thread_safety_analysis)

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

/// std::shared_mutex with the capability split into exclusive/shared.
class CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }
  void lock_shared() ACQUIRE_SHARED() { m_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { m_.unlock_shared(); }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    return m_.try_lock_shared();
  }

  std::shared_mutex& native() { return m_; }

 private:
  std::shared_mutex m_;
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

/// RAII exclusive lock over a SharedMutex (writer side).
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& m) ACQUIRE(m) : m_(m) { m_.lock(); }
  ~WriterLock() RELEASE() { m_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& m_;
};

/// RAII shared lock over a SharedMutex (reader side).
class SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& m) ACQUIRE_SHARED(m) : m_(m) {
    m_.lock_shared();
  }
  ~SharedLock() RELEASE() { m_.unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& m_;
};

}  // namespace vebo
