#pragma once

#include <condition_variable>
#include <mutex>

/// @file thread_annotations.hpp
/// Compile-time lock discipline (DESIGN.md §14): Clang Thread Safety
/// Analysis capability macros plus annotated wrappers over the std
/// synchronization primitives. Under clang with `-Wthread-safety
/// -Wthread-safety-beta -Werror` (wired in by the top-level CMakeLists
/// whenever the compiler is clang), the locking protocol these macros
/// document becomes machine-checked: touching a `HE_GUARDED_BY` member
/// without its mutex, calling an `HE_REQUIRES` helper lock-free,
/// returning with a mutex still held, or acquiring two mutexes against
/// the declared hierarchy are all COMPILE ERRORS, not sanitizer
/// findings. Under GCC every macro expands to nothing and the wrappers
/// are zero-cost shims over std::mutex / std::condition_variable.
///
/// Usage rules (enforced by tools/lint/hyperear_lint.py, rule
/// `concurrency`):
///   - src/runtime and src/obs never name std::mutex / std::lock_guard /
///     std::unique_lock / std::condition_variable directly — they use
///     `he::Mutex`, `he::MutexLock`, `he::CondVar` so every lock site is
///     visible to the analysis.
///   - every `he::Mutex` MEMBER in those layers declares its place in the
///     lock hierarchy with `HE_LOCK_LEVEL(<level>)`; the checked-in
///     manifest tools/lint/lock_order.txt is the canonical ordering and
///     the linter cross-validates the two (rule `lockorder`). Function
///     locals (e.g. the batch join state in Engine::localize_all)
///     are leaves outside the hierarchy and carry no level.
///   - `HE_NO_THREAD_SAFETY_ANALYSIS("<why>")` is the only escape hatch
///     and the reason string is mandatory and non-empty.
///
/// Condition-variable waits are spelled as explicit loops
/// (`while (!pred) cv.wait(lock);`) rather than the predicate overload:
/// a predicate lambda is analyzed as a separate function that does not
/// hold the capability, so guarded reads inside it would (correctly!)
/// fail the analysis.

// ---------------------------------------------------------------------------
// Attribute macros. Clang-only; GCC sees empty expansions.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define HE_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define HE_THREAD_ANNOTATION_ATTRIBUTE(x)
#endif

/// Marks a type as a lockable capability (diagnostic name `x`).
#define HE_CAPABILITY(x) HE_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define HE_SCOPED_CAPABILITY HE_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define HE_GUARDED_BY(x) HE_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer member whose POINTEE is protected by `x` (the pointer itself
/// is not).
#define HE_PT_GUARDED_BY(x) HE_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Declares hierarchy edges between capabilities: this one must be
/// acquired before / after the listed ones. Checked by
/// -Wthread-safety-beta; the repo encodes its global ordering through
/// the `lock_order` level tokens below rather than ad-hoc pairs.
#define HE_ACQUIRED_BEFORE(...) \
  HE_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define HE_ACQUIRED_AFTER(...) \
  HE_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Function that must be called WITH the listed capabilities held.
#define HE_REQUIRES(...) \
  HE_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function that acquires / releases the listed capabilities itself.
#define HE_ACQUIRE(...) \
  HE_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define HE_RELEASE(...) \
  HE_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function that attempts acquisition; first argument is the return
/// value meaning success.
#define HE_TRY_ACQUIRE(...) \
  HE_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Function that must be called WITHOUT the listed capabilities held
/// (it acquires them itself — calling it while holding deadlocks).
#define HE_EXCLUDES(...) \
  HE_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for code the analysis
/// cannot follow, e.g. acquisition on another thread).
#define HE_ASSERT_CAPABILITY(x) \
  HE_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Function returning a reference to the capability `x`.
#define HE_RETURN_CAPABILITY(x) HE_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Suppress the analysis for one function. The reason string is
/// MANDATORY and must be non-empty — `hyperear_lint.py` rejects a bare
/// suppression, exactly like the suppression-with-reason lint policy. Use only
/// where the protocol is sound but inexpressible (e.g. ownership handed
/// between threads through a non-capability channel).
#define HE_NO_THREAD_SAFETY_ANALYSIS(reason) \
  HE_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace hyperear {

// ---------------------------------------------------------------------------
// Lock hierarchy (DESIGN.md §14, manifest: tools/lint/lock_order.txt).
//
// The runtime's global lock order, outermost first:
//
//   server    runtime::Server::mutex_            (admission queue)
//   streaming runtime::Engine::sessions_mutex_   (live-session map)
//   session   runtime::Engine::Entry::mutex      (per-session inbox)
//   engine    runtime::WorkspacePool::mutex_,
//             runtime::ContextCache::Shard::mutex (per-worker state, plans)
//   pool      runtime::ThreadPool::mutex_        (task queue)
//   registry  obs::MetricsRegistry::mutex_,
//             obs::Tracer::mutex_                (telemetry collection)
//
// Each level is separated from the next by an inert boundary token (a
// capability object that is never locked at runtime). A mutex at level L
// declares HE_ACQUIRED_AFTER(boundary above L) and HE_ACQUIRED_BEFORE
// (boundary below L) via HE_LOCK_LEVEL(L), which places every level-L
// mutex strictly between the tokens; clang's acquired_before/after
// graph is transitive through the token declarations, so acquiring a
// pool-level mutex while holding a registry-level one is a compile
// error even though the two never name each other. Mutexes sharing a
// level are mutually unordered and must never nest (none do today —
// the two `engine` locks are taken sequentially, never together).
// ---------------------------------------------------------------------------

namespace lock_order {

/// Inert hierarchy token: a capability that exists only so annotations
/// can reference a level boundary. Never locked.
class HE_CAPABILITY("lock_level") LockLevel {
 public:
  LockLevel() = default;
  LockLevel(const LockLevel&) = delete;
  LockLevel& operator=(const LockLevel&) = delete;
};

/// Boundary tokens, one below each level that has a successor. The
/// HE_ACQUIRED_AFTER chain here IS the level order; hyperear_lint.py
/// cross-validates it against tools/lint/lock_order.txt.
inline LockLevel below_server;
inline LockLevel below_streaming HE_ACQUIRED_AFTER(below_server);
inline LockLevel below_session HE_ACQUIRED_AFTER(below_streaming);
inline LockLevel below_engine HE_ACQUIRED_AFTER(below_session);
inline LockLevel below_pool HE_ACQUIRED_AFTER(below_engine);

}  // namespace lock_order

/// Place a mutex member at a named level of the lock hierarchy:
///   mutable he::Mutex mutex_ HE_LOCK_LEVEL(pool);
/// Every he::Mutex member in src/runtime + src/obs must carry one (the
/// linter checks), and the (level, file, member) triple must match a row
/// of tools/lint/lock_order.txt.
#define HE_LOCK_LEVEL(level) HE_LOCK_LEVEL_##level

#define HE_LOCK_LEVEL_server \
  HE_ACQUIRED_BEFORE(::hyperear::lock_order::below_server)
#define HE_LOCK_LEVEL_streaming                             \
  HE_ACQUIRED_AFTER(::hyperear::lock_order::below_server)   \
  HE_ACQUIRED_BEFORE(::hyperear::lock_order::below_streaming)
#define HE_LOCK_LEVEL_session                                \
  HE_ACQUIRED_AFTER(::hyperear::lock_order::below_streaming) \
  HE_ACQUIRED_BEFORE(::hyperear::lock_order::below_session)
#define HE_LOCK_LEVEL_engine                               \
  HE_ACQUIRED_AFTER(::hyperear::lock_order::below_session) \
  HE_ACQUIRED_BEFORE(::hyperear::lock_order::below_engine)
#define HE_LOCK_LEVEL_pool                                \
  HE_ACQUIRED_AFTER(::hyperear::lock_order::below_engine) \
  HE_ACQUIRED_BEFORE(::hyperear::lock_order::below_pool)
#define HE_LOCK_LEVEL_registry \
  HE_ACQUIRED_AFTER(::hyperear::lock_order::below_pool)

// ---------------------------------------------------------------------------
// Annotated wrappers.
// ---------------------------------------------------------------------------

class CondVar;

/// std::mutex with the `capability` annotation, so the analysis can
/// track what it guards. Same cost, same semantics.
class HE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HE_ACQUIRE() { m_.lock(); }
  void unlock() HE_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() HE_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// Scoped lock over a he::Mutex — the annotated replacement for both
/// std::lock_guard and the cv-wait uses of std::unique_lock (CondVar
/// waits through it). Not movable: a lease on a capability has exactly
/// one scope.
class HE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) HE_ACQUIRE(mutex) : mutex_(&mutex) {
    mutex_->lock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  MutexLock(MutexLock&&) = delete;
  MutexLock& operator=(MutexLock&&) = delete;
  ~MutexLock() HE_RELEASE() { mutex_->unlock(); }

 private:
  friend class CondVar;
  Mutex* mutex_;
};

/// std::condition_variable bound to the annotated wrappers. `wait`
/// takes the scoped lock (proof the caller holds the mutex) and
/// atomically releases/reacquires it around the sleep, exactly like
/// std::condition_variable::wait on the underlying unique_lock. There
/// is deliberately no predicate overload — spell the loop out (see the
/// file comment).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller must hold `lock` (enforced structurally: a MutexLock IS a
  /// held lock). The capability is released during the sleep and held
  /// again on return — invisible to the analysis, which only needs the
  /// before/after states to match, and they do.
  void wait(MutexLock& lock) {
    std::unique_lock<std::mutex> native(lock.mutex_->m_, std::adopt_lock);
    cv_.wait(native);
    // The MutexLock still owns the re-acquired mutex; keep the
    // unique_lock from double-unlocking on scope exit.
    native.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hyperear

/// The wrappers read as `he::Mutex` / `he::MutexLock` / `he::CondVar`
/// everywhere (including inside nested hyperear:: namespaces, where the
/// alias keeps the annotated types visually distinct from std ones).
namespace he = ::hyperear;
