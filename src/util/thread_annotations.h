#ifndef LMKG_UTIL_THREAD_ANNOTATIONS_H_
#define LMKG_UTIL_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis attributes (-Wthread-safety), the
/// LMKG-prefixed spelling of the standard Abseil/Clang macro set. On
/// Clang they turn the repo's documented lock protocol into
/// compile-time-checked facts: which mutex guards which field
/// (LMKG_GUARDED_BY), which methods must — or must not — be entered with
/// a lock held (LMKG_REQUIRES / LMKG_EXCLUDES), and which functions
/// acquire or release a capability (LMKG_ACQUIRE / LMKG_RELEASE /
/// LMKG_TRY_ACQUIRE). Violations fail the build (-Werror); see
/// tests/thread_safety_compile for the negative-compile pins. On
/// non-Clang compilers every macro expands to nothing, so GCC builds are
/// unaffected.
///
/// The annotated capability types live in util/mutex.h (util::Mutex,
/// util::MutexLock, util::CondVar); this header is attribute spellings
/// only, safe to include anywhere.
///
/// Escapes: LMKG_NO_THREAD_SAFETY_ANALYSIS disables the analysis for one
/// function. Every use MUST carry a written rationale at the use site
/// explaining why the protocol holds but cannot be expressed (see the
/// README "Static analysis" section); scripts/lint_repo.py inventories
/// the escapes.

#if defined(__clang__)
#define LMKG_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define LMKG_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op off Clang
#endif

/// Type attribute: the class is a lockable capability (a mutex).
#define LMKG_CAPABILITY(x) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Type attribute: RAII object that acquires a capability in its
/// constructor and releases it in its destructor (std::lock_guard shape).
#define LMKG_SCOPED_CAPABILITY \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Field attribute: reads and writes require holding `x`.
#define LMKG_GUARDED_BY(x) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer-field attribute: dereferencing requires holding `x` (the
/// pointer itself may be read freely).
#define LMKG_PT_GUARDED_BY(x) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Function attribute: callers must hold the listed capabilities.
#define LMKG_REQUIRES(...) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function attribute: callers must NOT hold the listed capabilities
/// (non-reentrancy / lock-ordering documentation the analysis enforces).
#define LMKG_EXCLUDES(...) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function attributes: the function acquires/releases the capabilities
/// (its own object when the list is empty — the Mutex/MutexLock methods).
#define LMKG_ACQUIRE(...) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define LMKG_RELEASE(...) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function attribute: acquires the capability iff the function returns
/// `result` (util::Mutex::TryLock returns true on success).
#define LMKG_TRY_ACQUIRE(...) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Statement attribute: asserts (without acquiring) that the calling
/// thread holds the capability — the bridge for contracts the analysis
/// cannot see, like "only the shard worker calls this" (the MPSC ring's
/// consumer role).
#define LMKG_ASSERT_CAPABILITY(x) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Function attribute: returns a reference to the named capability.
#define LMKG_RETURN_CAPABILITY(x) \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables the analysis for one function. EVERY use must
/// carry a comment justifying why the locking protocol holds anyway.
#define LMKG_NO_THREAD_SAFETY_ANALYSIS \
  LMKG_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif  // LMKG_UTIL_THREAD_ANNOTATIONS_H_
