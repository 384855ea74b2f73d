// Named, seeded fail points for deterministic fault injection.
//
// A fail point is a registered site in library code where a test (or a
// chaos run) can force a failure. Sites are identified by a dotted name
// ("serve.refit.fit"), registered eagerly at static-initialization time by
// the .cc that hosts them, and evaluated through FailPoint::ShouldFail().
// Disarmed evaluation is one relaxed atomic load — effectively free on the
// serving hot path — and disarmed is the default, so production behavior
// is bit-identical to a build without fail points.
//
// Arming modes:
//   * Probability(p) — each evaluation fires independently with chance p.
//     The decision for the k-th evaluation is a pure hash of (site seed,
//     k), NOT a draw from shared mutable RNG state, so the fired subset is
//     a deterministic function of the root seed alone.
//   * NthHit(n)      — exactly the n-th evaluation after arming fires,
//     then the site disarms itself.
//   * Once           — NthHit(1).
//
// Per-site seeds derive from one root seed (FNV-1a of the site name mixed
// into the root), so a whole chaos run is reproduced by a single number.
// The root seed initializes from the CONTENDER_CHAOS_SEED environment
// variable when set (see README) and can be reset programmatically; either
// way, re-arming a site restarts its evaluation count, which is what makes
// two identically-armed runs fire identically.

#ifndef CONTENDER_UTIL_FAILPOINT_H_
#define CONTENDER_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace contender {

/// How an armed site decides to fire (see file comment).
enum class FailPointMode { kOff = 0, kProbability, kNthHit, kOnce };

/// One registered injection site. Instances are owned by the registry and
/// live for the process lifetime; call sites hold a reference.
class FailPoint {
 public:
  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  /// True when the call site should inject its failure. Disarmed cost: one
  /// relaxed atomic load.
  bool ShouldFail() {
    if (mode_.load(std::memory_order_acquire) ==
        static_cast<int>(FailPointMode::kOff)) {
      return false;
    }
    return EvaluateArmed();
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] FailPointMode mode() const {
    return static_cast<FailPointMode>(mode_.load(std::memory_order_acquire));
  }
  /// Evaluations since the site was last armed.
  [[nodiscard]] uint64_t hits() const;
  /// Evaluations that fired since the site was last armed.
  [[nodiscard]] uint64_t fires() const;

 private:
  friend class FailPointRegistry;
  FailPoint(std::string name, uint64_t site_seed);

  bool EvaluateArmed() EXCLUDES(mutex_);
  void Arm(uint64_t root_seed, FailPointMode mode, double probability,
           uint64_t nth) EXCLUDES(mutex_);
  /// Re-derives seed_ from `root_seed` and zeroes the counters. The
  /// registry calls this with only the site lock taken (never while
  /// holding its own lock — the tree's lock order has no nesting edges;
  /// see DESIGN.md §13).
  void Reseed(uint64_t root_seed) EXCLUDES(mutex_);

  const std::string name_;
  /// FailPointMode as int; the disarmed fast path reads only this.
  std::atomic<int> mode_{0};

  mutable Mutex mutex_;
  double probability_ GUARDED_BY(mutex_) = 0.0;
  uint64_t nth_ GUARDED_BY(mutex_) = 0;
  /// Derived from (registry root seed, name_).
  uint64_t seed_ GUARDED_BY(mutex_) = 0;
  uint64_t hits_ GUARDED_BY(mutex_) = 0;
  uint64_t fires_ GUARDED_BY(mutex_) = 0;
};

/// Process-wide registry of fail-point sites. All members are thread-safe.
class FailPointRegistry {
 public:
  static FailPointRegistry& Global();

  /// Returns the site named `name`, registering it on first use. The
  /// reference stays valid for the process lifetime.
  FailPoint& Site(const std::string& name);

  /// Arms `name` (registering it if needed) in the given mode. Arming
  /// resets the site's hit/fire counters and re-derives its seed from the
  /// current root seed, so identically-armed runs fire identically.
  void ArmProbability(const std::string& name, double probability);
  void ArmNthHit(const std::string& name, uint64_t n);
  void ArmOnce(const std::string& name);

  void Disarm(const std::string& name);
  void DisarmAll();

  /// Resets the root seed and re-derives every armed site's seed and
  /// counters. Chaos runs call this (or set CONTENDER_CHAOS_SEED) before
  /// arming to make the whole run reproducible from one number.
  void SetRootSeed(uint64_t seed);
  [[nodiscard]] uint64_t root_seed() const;

  /// Names of every registered site (sorted), optionally restricted to a
  /// dotted-name prefix such as "serve." or "sched.".
  [[nodiscard]] std::vector<std::string> SiteNames(
      const std::string& prefix = "") const;

 private:
  FailPointRegistry();  // seeds from CONTENDER_CHAOS_SEED when present

  FailPoint* Find(const std::string& name) REQUIRES(mutex_);

  mutable Mutex mutex_;
  uint64_t root_seed_ GUARDED_BY(mutex_) = 0;
  /// Sites are append-only and never destroyed; the vector (not the
  /// pointees) is guarded. Site locks are taken only after mutex_ is
  /// released — the lock order has no nesting edges (DESIGN.md §13).
  std::vector<std::unique_ptr<FailPoint>> sites_ GUARDED_BY(mutex_);
};

/// Registers (at static-initialization time when used at namespace scope)
/// and names a fail-point site. Usage, in the hosting .cc:
///
///   namespace {
///   auto& kFitFailPoint = CONTENDER_DEFINE_FAILPOINT("serve.refit.fit");
///   }  // namespace
///   ...
///   if (kFitFailPoint.ShouldFail()) return Status::Internal("injected");
#define CONTENDER_DEFINE_FAILPOINT(site_name) \
  ::contender::FailPointRegistry::Global().Site(site_name)

}  // namespace contender

#endif  // CONTENDER_UTIL_FAILPOINT_H_
