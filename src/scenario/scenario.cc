#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.h"

namespace contender::scenario {

namespace {

/// Merged-stream order: arrival, then tenant, then the tenant-local draw
/// index — fully deterministic even when two tenants draw the same
/// instant.
struct Draw {
  sched::Request request;  // request_id unset until the final pass
  int tenant_seq = 0;
};

bool DrawBefore(const Draw& a, const Draw& b) {
  if (a.request.arrival_time != b.request.arrival_time) {
    return a.request.arrival_time < b.request.arrival_time;
  }
  if (a.request.tenant_id != b.request.tenant_id) {
    return a.request.tenant_id < b.request.tenant_id;
  }
  return a.tenant_seq < b.tenant_seq;
}

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffULL;
    hash *= 0x100000001b3ULL;  // FNV-1a 64-bit prime
  }
  return hash;
}

uint64_t FnvMixDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvMix(hash, bits);
}

}  // namespace

uint64_t TraceDigest(const std::vector<sched::Request>& requests) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  for (const sched::Request& r : requests) {
    hash = FnvMix(hash, static_cast<uint64_t>(r.request_id));
    hash = FnvMix(hash, static_cast<uint64_t>(r.template_index));
    hash = FnvMix(hash, static_cast<uint64_t>(r.tenant_id));
    hash = FnvMixDouble(hash, r.arrival_time.value());
    hash = FnvMix(hash, r.deadline.has_value() ? 1u : 0u);
    if (r.deadline.has_value()) {
      hash = FnvMixDouble(hash, r.deadline->value());
    }
  }
  return hash;
}

double Scenario::TenantRateSkew(const ScenarioParams& params) const {
  return params.skew;
}

StatusOr<ScenarioTrace> Scenario::GenerateTrace(
    const std::vector<units::Seconds>& reference_latencies,
    const ScenarioParams& params) const {
  return Generate(reference_latencies, params, /*fleet_mode=*/false);
}

StatusOr<ScenarioTrace> Scenario::GenerateFleetTrace(
    const std::vector<units::Seconds>& reference_latencies,
    const ScenarioParams& params) const {
  return Generate(reference_latencies, params, /*fleet_mode=*/true);
}

StatusOr<ScenarioTrace> Scenario::Generate(
    const std::vector<units::Seconds>& reference_latencies,
    const ScenarioParams& params, bool fleet_mode) const {
  const std::string who = name();
  if (reference_latencies.empty()) {
    return Status::InvalidArgument(who + ": need at least one template");
  }
  if (params.num_requests < 0) {
    return Status::InvalidArgument(who + ": num_requests must be >= 0");
  }
  // These values arrive from command-line flags, so NaN must fail every
  // check. An infinite gap would stamp infinite arrivals and never let
  // the thinning or MMPP samplers terminate; an infinite slack would
  // stamp infinite deadlines.
  const double mean_gap = params.mean_interarrival.value();
  if (!std::isfinite(mean_gap) || mean_gap <= 0.0) {
    return Status::InvalidArgument(
        who + ": mean_interarrival must be positive and finite");
  }
  if (!(params.deadline_probability >= 0.0 &&
        params.deadline_probability <= 1.0)) {
    return Status::InvalidArgument(
        who + ": deadline_probability outside [0, 1]");
  }
  if (!std::isfinite(params.min_slack) || !std::isfinite(params.max_slack)) {
    return Status::InvalidArgument(who + ": slack bounds must be finite");
  }
  if (params.min_slack < 0.0) {
    return Status::InvalidArgument(
        who + ": min_slack must be >= 0 (deadline before arrival)");
  }
  if (params.max_slack < params.min_slack) {
    return Status::InvalidArgument(who + ": max_slack below min_slack");
  }
  const int num_templates = static_cast<int>(reference_latencies.size());
  if (fleet_mode) {
    if (params.num_tenants < 1) {
      return Status::InvalidArgument(who + ": num_tenants must be >= 1");
    }
    if (!(TenantRateSkew(params) >= 0.0)) {  // NaN also fails
      return Status::InvalidArgument(who + ": skew must be >= 0");
    }
    if (params.templates_per_tenant < 0 ||
        params.templates_per_tenant > num_templates) {
      return Status::InvalidArgument(
          who + ": templates_per_tenant outside [0, templates]");
    }
  }

  ScenarioTrace trace;
  std::vector<TenantPlan> plans;
  std::vector<uint64_t> tenant_seeds;

  if (!fleet_mode) {
    // Single-node mode: one tenant over the whole workload, seeded
    // directly (no root.Next() derivation) and starting at t = 0.
    TenantPlan plan;
    plan.tenant_id = 0;
    plan.rate_share = 1.0;
    plan.num_requests = params.num_requests;
    plan.templates.resize(static_cast<size_t>(num_templates));
    for (int t = 0; t < num_templates; ++t) {
      plan.templates[static_cast<size_t>(t)] = t;
    }
    plan.mean_gap = params.mean_interarrival;
    plan.gap_before_first = false;
    plans.push_back(std::move(plan));
    tenant_seeds.push_back(params.seed);
  } else {
    const double skew = TenantRateSkew(params);
    plans.resize(static_cast<size_t>(params.num_tenants));

    // Zipf-like rate shares: share(i) ∝ 1/(i+1)^skew, with
    // largest-remainder apportionment of num_requests over the shares.
    double weight_sum = 0.0;
    for (int i = 0; i < params.num_tenants; ++i) {
      weight_sum += std::pow(static_cast<double>(i + 1), -skew);
    }
    std::vector<double> exact(static_cast<size_t>(params.num_tenants));
    std::vector<int> counts(static_cast<size_t>(params.num_tenants));
    int assigned = 0;
    for (int i = 0; i < params.num_tenants; ++i) {
      const double share =
          std::pow(static_cast<double>(i + 1), -skew) / weight_sum;
      exact[static_cast<size_t>(i)] = share * params.num_requests;
      counts[static_cast<size_t>(i)] =
          static_cast<int>(std::floor(exact[static_cast<size_t>(i)]));
      assigned += counts[static_cast<size_t>(i)];
      plans[static_cast<size_t>(i)].tenant_id = i;
      plans[static_cast<size_t>(i)].rate_share = share;
    }
    // Remainder by descending fractional part (ties to the lower tenant
    // id).
    std::vector<int> order(static_cast<size_t>(params.num_tenants));
    for (int i = 0; i < params.num_tenants; ++i) {
      order[static_cast<size_t>(i)] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      const double fa = exact[static_cast<size_t>(a)] -
                        std::floor(exact[static_cast<size_t>(a)]);
      const double fb = exact[static_cast<size_t>(b)] -
                        std::floor(exact[static_cast<size_t>(b)]);
      return fa > fb;
    });
    for (int r = 0; r < params.num_requests - assigned; ++r) {
      ++counts[static_cast<size_t>(
          order[static_cast<size_t>(r % params.num_tenants)])];
    }

    // Rotating contiguous template windows so adjacent tenants overlap.
    const int block = params.templates_per_tenant == 0
                          ? num_templates
                          : params.templates_per_tenant;
    for (int i = 0; i < params.num_tenants; ++i) {
      TenantPlan& plan = plans[static_cast<size_t>(i)];
      plan.num_requests = counts[static_cast<size_t>(i)];
      const int start = params.templates_per_tenant == 0
                            ? 0
                            : (i * std::max(1, block / 2)) % num_templates;
      for (int k = 0; k < block; ++k) {
        plan.templates.push_back((start + k) % num_templates);
      }
      std::sort(plan.templates.begin(), plan.templates.end());
      plan.templates.erase(
          std::unique(plan.templates.begin(), plan.templates.end()),
          plan.templates.end());
      // The merged stream has the requested aggregate mean gap when every
      // tenant contributes at its rate share.
      plan.mean_gap = params.mean_interarrival * (1.0 / plan.rate_share);
      plan.gap_before_first = true;
    }

    // Pre-derive every tenant's seed in tenant order before any stream is
    // drawn (the PR 1 idiom: no interleaved Rng state).
    Rng root(params.seed);
    tenant_seeds.reserve(static_cast<size_t>(params.num_tenants));
    for (int i = 0; i < params.num_tenants; ++i) {
      tenant_seeds.push_back(root.Next());
    }
  }

  std::vector<Draw> draws;
  draws.reserve(static_cast<size_t>(params.num_requests));
  for (size_t i = 0; i < plans.size(); ++i) {
    const TenantPlan& plan = plans[i];
    trace.tenants.push_back(TenantTraffic{plan.tenant_id, plan.rate_share,
                                          plan.num_requests,
                                          plan.templates});
    if (plan.num_requests == 0) continue;
    Rng rng(tenant_seeds[i]);
    std::vector<sched::Request> stream;
    stream.reserve(static_cast<size_t>(plan.num_requests));
    FillTenantStream(reference_latencies, params, plan, &rng, &stream,
                     &trace.stats);
    CONTENDER_CHECK(static_cast<int>(stream.size()) == plan.num_requests)
        << name() << ": tenant " << plan.tenant_id << " emitted "
        << stream.size() << " of " << plan.num_requests << " requests";
    for (size_t k = 0; k < stream.size(); ++k) {
      Draw d;
      d.request = stream[k];
      d.request.tenant_id = plan.tenant_id;
      d.tenant_seq = static_cast<int>(k);
      draws.push_back(std::move(d));
    }
  }
  std::stable_sort(draws.begin(), draws.end(), DrawBefore);

  trace.requests.reserve(draws.size());
  for (size_t id = 0; id < draws.size(); ++id) {
    draws[id].request.request_id = static_cast<int>(id);
    trace.requests.push_back(draws[id].request);
  }
  return trace;
}

}  // namespace contender::scenario
