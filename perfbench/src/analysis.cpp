#include "analysis.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const auto n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double windowedQuantile(const std::vector<double>& values, double q, std::size_t windows) {
  if (windows == 0 || values.size() < windows) return quantile(values, q);
  std::vector<double> perWindow;
  const std::size_t n = values.size();
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(w * n / windows);
    const auto end = values.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / windows);
    perWindow.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return quantile(std::move(perWindow), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string canonicalBytes(resex::net::QueryResponse response) {
  response.cacheHit = false;
  std::string out;
  resex::net::encodeResultFrame(0, response, out);
  return out;
}

Outcome classify(const resex::net::Reply& reply, std::string_view expectedCanonical) {
  if (reply.type != resex::net::FrameType::kResult) return Outcome::kRejected;
  const resex::net::QueryResponse& r = reply.response;
  if (r.rejected || r.cancelled) return Outcome::kRejected;
  if (!r.complete) return Outcome::kDegraded;
  return canonicalBytes(r) == expectedCanonical ? Outcome::kOk : Outcome::kWrong;
}

std::uint64_t OutcomeCounts::total() const {
  std::uint64_t sum = 0;
  for (const auto c : count) sum += c;
  return sum;
}

std::uint64_t OutcomeCounts::failed() const {
  return of(Outcome::kDegraded) + of(Outcome::kRejected) + of(Outcome::kLost);
}

OutcomeCounts& OutcomeCounts::operator+=(const OutcomeCounts& other) {
  for (std::size_t i = 0; i < kOutcomeCount; ++i) count[i] += other.count[i];
  return *this;
}

double Ladder::rate(int rung) const {
  return baseQps * std::exp2(static_cast<double>(rung) / stepsPerDoubling);
}

std::pair<double, double> quarterMedians(const std::vector<double>& latencyUs) {
  const std::size_t n = latencyUs.size();
  if (n < 4) {
    const double all = quantile(latencyUs, 0.5);
    return {all, all};
  }
  const std::size_t q = n / 4;
  std::vector<double> early(latencyUs.begin(), latencyUs.begin() + static_cast<std::ptrdiff_t>(q));
  std::vector<double> late(latencyUs.end() - static_cast<std::ptrdiff_t>(q), latencyUs.end());
  return {quantile(std::move(early), 0.5), quantile(std::move(late), 0.5)};
}

void judgeRung(RungResult& r, const KneeLimits& limits) {
  const double total = static_cast<double>(r.outcomes.total());
  const double failedShare =
      total > 0.0 ? static_cast<double>(r.outcomes.failed()) / total : 1.0;
  r.pass = false;
  if (total == 0.0) {
    r.why = "no arrivals";
  } else if (r.outcomes.of(Outcome::kWrong) > 0) {
    r.why = "wrong responses";
  } else if (failedShare > limits.maxFailedShare) {
    r.why = "failed share";
  } else if (!(r.p99Us <= limits.p99LimitUs)) {
    r.why = "p99";
  } else if (r.lastQuarterP50Us >
             limits.backlogRatio * r.firstQuarterP50Us + limits.backlogSlackUs) {
    r.why = "backlog";
  } else if (r.sendLateP50Us > limits.maxSendLateP50Us) {
    r.why = "generator behind";
  } else {
    r.pass = true;
    r.why.clear();
  }
}

const RungResult* KneeResult::best() const {
  for (const RungResult& r : rungs)
    if (r.rung == bestRung && r.pass) return &r;  // the attempt that passed
  return nullptr;
}

KneeResult findKnee(const Ladder& ladder,
                    const std::function<RungResult(int rung)>& probe) {
  KneeResult result;
  std::set<int> failed;
  const int coarse = std::max(1, ladder.stepsPerDoubling);
  for (const int step : {coarse, std::max(1, coarse / 4), 1}) {
    int next = result.bestRung < 0 ? 0 : result.bestRung + step;
    while (next <= ladder.maxRung && !failed.count(next)) {
      bool pass = false;
      for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
        RungResult r = probe(next);
        r.rung = next;
        pass = r.pass;
        result.rungs.push_back(std::move(r));
      }
      if (!pass) {
        failed.insert(next);
        break;
      }
      result.bestRung = next;
      next += step;
    }
    if (result.bestRung < 0) break;  // the ladder's floor already fails
  }
  return result;
}

double littleWaitUs(double meanDepth, double arrivalsPerSecond) {
  if (arrivalsPerSecond <= 0.0) return 0.0;
  return meanDepth / arrivalsPerSecond * 1e6;
}

}  // namespace perfbench
