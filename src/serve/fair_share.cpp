#include "serve/fair_share.hpp"

#include <algorithm>
#include <stdexcept>

namespace resex::serve {

FairShareScheduler::FairShareScheduler(const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("FairShareScheduler: no tenants");
  tenants_.reserve(weights.size());
  for (const double weight : weights) {
    if (!(weight > 0.0))
      throw std::invalid_argument("FairShareScheduler: tenant weight must be > 0");
    tenants_.push_back(TenantNode{.weight = weight});
  }
}

void FairShareScheduler::onEnqueue(TenantId t) {
  TenantNode& tenant = tenants_.at(t);
  // Activation catch-up: an idle tenant rejoins at the scheduler clock,
  // never behind it — sleeping banks no credit.
  if (tenant.pending == 0) tenant.vtime = std::max(tenant.vtime, clock_);
  ++tenant.pending;
  ++totalPending_;
}

std::optional<TenantId> FairShareScheduler::pickNext() const {
  if (totalPending_ == 0) return std::nullopt;
  std::size_t best = tenants_.size();
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    if (tenants_[t].pending == 0) continue;
    if (best == tenants_.size() || tenants_[t].vtime < tenants_[best].vtime)
      best = t;
  }
  return static_cast<TenantId>(best);
}

void FairShareScheduler::onDequeue(TenantId t) {
  TenantNode& tenant = tenants_.at(t);
  if (tenant.pending == 0)
    throw std::logic_error("FairShareScheduler: dequeue from idle tenant");
  // SFQ: the clock advances to the *start tag* of the service being granted.
  clock_ = std::max(clock_, tenant.vtime);
  tenant.vtime += 1.0 / tenant.weight;
  --tenant.pending;
  --totalPending_;
}

std::optional<TenantId> FairShareScheduler::takeNext() {
  const std::optional<TenantId> next = pickNext();
  if (next) onDequeue(*next);
  return next;
}

}  // namespace resex::serve
