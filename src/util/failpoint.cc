#include "util/failpoint.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace contender {

namespace {

// SplitMix64 finalizer: a high-quality stateless mix of one 64-bit value.
// Used both to derive per-site seeds and to decide probability-mode fires
// as a pure function of (site seed, hit index).
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t DeriveSiteSeed(uint64_t root, const std::string& name) {
  return Mix64(root ^ Fnv1a(name));
}

}  // namespace

FailPoint::FailPoint(std::string name, uint64_t site_seed)
    : name_(std::move(name)), seed_(site_seed) {}

bool FailPoint::EvaluateArmed() {
  MutexLock lock(&mutex_);
  const auto mode = static_cast<FailPointMode>(
      mode_.load(std::memory_order_relaxed));
  if (mode == FailPointMode::kOff) return false;  // raced with Disarm
  const uint64_t index = hits_++;
  bool fire = false;
  switch (mode) {
    case FailPointMode::kProbability: {
      // Pure function of (seed, index): the set of firing hit indices is
      // fixed by the seed, independent of evaluation timing or threads.
      const double u =
          static_cast<double>(Mix64(seed_ ^ index) >> 11) * 0x1.0p-53;
      fire = u < probability_;
      break;
    }
    case FailPointMode::kNthHit:
    case FailPointMode::kOnce:
      fire = (index + 1 == nth_);
      if (fire) {
        // One-shot semantics: the site disarms itself after firing.
        mode_.store(static_cast<int>(FailPointMode::kOff),
                    std::memory_order_release);
      }
      break;
    case FailPointMode::kOff:
      break;
  }
  if (fire) ++fires_;
  return fire;
}

uint64_t FailPoint::hits() const {
  MutexLock lock(&mutex_);
  return hits_;
}

uint64_t FailPoint::fires() const {
  MutexLock lock(&mutex_);
  return fires_;
}

void FailPoint::Reseed(uint64_t root_seed) {
  MutexLock lock(&mutex_);
  seed_ = DeriveSiteSeed(root_seed, name_);
  hits_ = 0;
  fires_ = 0;
}

FailPointRegistry& FailPointRegistry::Global() {
  static FailPointRegistry* registry = new FailPointRegistry();
  return *registry;
}

FailPointRegistry::FailPointRegistry() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once inside the Global()
  // function-local static's initialization, before any worker spawns.
  if (const char* env = std::getenv("CONTENDER_CHAOS_SEED")) {
    root_seed_ = std::strtoull(env, nullptr, 0);
  }
}

FailPoint* FailPointRegistry::Find(const std::string& name) {
  for (const auto& site : sites_) {
    if (site->name() == name) return site.get();
  }
  return nullptr;
}

FailPoint& FailPointRegistry::Site(const std::string& name) {
  MutexLock lock(&mutex_);
  if (FailPoint* existing = Find(name)) return *existing;
  // The seed is derived here so the site constructor is complete before
  // publication and no site lock is ever taken under the registry lock
  // (the tree's lock order stays nesting-free; DESIGN.md §13).
  sites_.push_back(std::unique_ptr<FailPoint>(
      new FailPoint(name, DeriveSiteSeed(root_seed_, name))));
  return *sites_.back();
}

void FailPoint::Arm(uint64_t root_seed, FailPointMode mode,
                    double probability, uint64_t nth) {
  // Reset counters, re-derive the seed, then publish the mode last so a
  // concurrent ShouldFail sees consistent state.
  MutexLock lock(&mutex_);
  probability_ = probability;
  nth_ = nth;
  hits_ = 0;
  fires_ = 0;
  seed_ = DeriveSiteSeed(root_seed, name_);
  mode_.store(static_cast<int>(mode), std::memory_order_release);
}

void FailPointRegistry::ArmProbability(const std::string& name,
                                       double probability) {
  CONTENDER_CHECK(probability >= 0.0 && probability <= 1.0)
      << "FailPointRegistry: probability must be in [0, 1], got "
      << probability;
  Site(name).Arm(root_seed(), FailPointMode::kProbability, probability, 0);
}

void FailPointRegistry::ArmNthHit(const std::string& name, uint64_t n) {
  CONTENDER_CHECK(n >= 1) << "FailPointRegistry: NthHit requires n >= 1";
  Site(name).Arm(root_seed(), FailPointMode::kNthHit, 0.0, n);
}

void FailPointRegistry::ArmOnce(const std::string& name) {
  Site(name).Arm(root_seed(), FailPointMode::kOnce, 0.0, 1);
}

void FailPointRegistry::Disarm(const std::string& name) {
  MutexLock lock(&mutex_);
  if (FailPoint* site = Find(name)) {
    site->mode_.store(static_cast<int>(FailPointMode::kOff),
                      std::memory_order_release);
  }
}

void FailPointRegistry::DisarmAll() {
  MutexLock lock(&mutex_);
  for (const auto& site : sites_) {
    site->mode_.store(static_cast<int>(FailPointMode::kOff),
                      std::memory_order_release);
  }
}

void FailPointRegistry::SetRootSeed(uint64_t seed) {
  // Snapshot the live sites under the registry lock, then reseed each
  // with only its own lock taken: site locks never nest under the
  // registry lock. Sites registered concurrently (after the snapshot)
  // already derive their seed from the new root inside Site().
  std::vector<FailPoint*> sites;
  {
    MutexLock lock(&mutex_);
    root_seed_ = seed;
    sites.reserve(sites_.size());
    for (const auto& site : sites_) sites.push_back(site.get());
  }
  for (FailPoint* site : sites) site->Reseed(seed);
}

uint64_t FailPointRegistry::root_seed() const {
  MutexLock lock(&mutex_);
  return root_seed_;
}

std::vector<std::string> FailPointRegistry::SiteNames(
    const std::string& prefix) const {
  std::vector<std::string> names;
  {
    MutexLock lock(&mutex_);
    for (const auto& site : sites_) {
      if (site->name().rfind(prefix, 0) == 0) names.push_back(site->name());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace contender
