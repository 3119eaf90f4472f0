// Thread-safety and determinism annotations — one macro vocabulary, two
// consumers.
//
//  1. Clang's -Wthread-safety analysis: under __clang__ with
//     CIMANNEAL_THREAD_SAFETY_ANALYSIS defined, the CIM_* macros expand
//     to the corresponding thread-safety attributes, so the compiler
//     proves lock discipline (a guarded member touched without its mutex
//     is a warning). The opt-in define exists because libstdc++'s
//     std::mutex carries no capability attribute — enabling the
//     attributes against an unannotated standard library only produces
//     -Wthread-safety-attributes noise, so the default clang build stays
//     clean and a libc++ build (which annotates std::mutex when
//     _LIBCPP_ENABLE_THREAD_SAFETY_ANNOTATIONS is set) opts in.
//  2. cimlint's lock-discipline pack (tools/cimlint/rules_locks.py):
//     the macro *invocations* are machine-checkable markers in the
//     source text regardless of what they expand to, so the project lint
//     enforces the same contract on the gcc-only container where clang
//     never runs: every std::mutex member must declare what it guards
//     (at least one CIM_GUARDED_BY(mutex) member in the class), and
//     CIM_GUARDED_BY/CIM_REQUIRES/CIM_EXCLUDES must name a real mutex
//     member of the enclosing class.
//
// CIM_DETERMINISM_ROOT is the determinism-taint counterpart: it expands
// to nothing under every compiler and marks a function definition as a
// hot-loop root for cimlint's cross-TU determinism-taint analysis
// (tools/cimlint/rules_determinism.py) — any call path from a marked
// root to a non-deterministic source (wall-clock read, thread-id,
// unordered-container iteration, un-seeded RNG, address-as-value
// hashing) is a build failure with the witness call chain in the
// finding. Place it at the *definition*, before the return type:
//
//   CIM_DETERMINISM_ROOT
//   LevelStats LevelSolver::run(HardwareActivity& hw, ...) { ... }
//
// Annotation placement (same positions clang expects):
//   bool stop_ CIM_GUARDED_BY(mu_) = false;             // data member
//   Sink& local_sink() CIM_EXCLUDES(mu_);               // declaration
#pragma once

#if defined(__clang__) && defined(CIMANNEAL_THREAD_SAFETY_ANALYSIS)
#define CIM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CIM_THREAD_ANNOTATION_(x)
#endif

/// Data member is protected by the given mutex member: hold it to read
/// or write. Every std::mutex member must appear in at least one
/// CIM_GUARDED_BY in its class (cimlint: lock-mutex-unannotated).
#define CIM_GUARDED_BY(x) CIM_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given mutex.
#define CIM_PT_GUARDED_BY(x) CIM_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the listed mutexes to be held by the caller.
#define CIM_REQUIRES(...) \
  CIM_THREAD_ANNOTATION_(exclusive_locks_required(__VA_ARGS__))

/// Function must be called *without* the listed mutexes held (it takes
/// them itself); guards against self-deadlock at the API boundary.
#define CIM_EXCLUDES(...) CIM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Escape hatch for functions whose locking is deliberately outside the
/// analysis (e.g. lock-free fast paths double-checked under a mutex).
#define CIM_NO_THREAD_SAFETY_ANALYSIS \
  CIM_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Determinism-taint root marker (cimlint rules_determinism.py). Expands
/// to nothing; the token itself marks the function definition as a
/// hot-loop root whose entire call cone must stay free of
/// non-deterministic sources.
#define CIM_DETERMINISM_ROOT
