// perfbench's own tests: the quantile function, the knee finder on
// synthetic latency series (flat, saturating, noisy), the backlog test,
// the response classifier on crafted frames, Little's-law queue wait, and
// the ordering of a run's metrics into the manifest's lists.
// Run with `python3 perfbench/run.py --selftest`; exits nonzero on any
// failed check.

#include <cmath>
#include <cstdio>
#include <limits>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis.hpp"
#include "metrics.hpp"
#include "net/frame.hpp"
#include "util/rng.hpp"

using namespace perfbench;

namespace {

int g_failed = 0;
int g_checks = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failed;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void testQuantile() {
  check(quantile({}, 0.5) == 0.0, "quantile of nothing is 0");
  check(quantile({7.0}, 0.99) == 7.0, "quantile of one value");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  check(quantile(v, 0.5) == 50.0, "nearest-rank median of 1..100 is 50");
  check(quantile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  check(quantile(v, 1.0) == 100.0, "p100 is the max");
  check(quantile(v, 0.0) == 1.0, "p0 is the min");
  check(v.front() == 100.0, "quantile leaves its input untouched");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> withFailures(98, 10.0);
  withFailures.push_back(inf);
  withFailures.push_back(inf);
  check(std::isinf(quantile(withFailures, 0.99)), "two failures of 100 break p99");
  check(quantile(withFailures, 0.98) == 10.0, "but not p98");
  check(near(mean({1.0, 2.0, 3.0}), 2.0), "mean");

  // Windowed quantile: one stalled slice of five does not move the result.
  std::vector<double> stalled(500, 100.0);
  for (std::size_t i = 200; i < 300; ++i) stalled[i] = 50'000.0;
  check(windowedQuantile(stalled, 0.99, 5) == 100.0, "one stalled window is outvoted");
  check(quantile(stalled, 0.99) == 50'000.0, "while the plain p99 takes the stall");
  for (std::size_t i = 0; i < 500; i += 50) stalled[i] = inf;  // 2% failures everywhere
  check(std::isinf(windowedQuantile(stalled, 0.99, 5)), "failures in every window still count");
  check(windowedQuantile({1.0, 2.0, 3.0}, 0.5, 5) == 2.0, "short input: plain quantile");
}

/// A synthetic system: capacity `cap` qps, service floor `base` us, and an
/// optional multiplicative noise. Latencies climb linearly once the offered
/// rate exceeds capacity (backlog), and queueing inflates the tail near it.
RungResult synthetic(const Ladder& ladder, int rung, double cap, double base,
                     resex::Rng* noise) {
  const double rate = ladder.rate(rung);
  const std::size_t n = 400;
  std::vector<double> lat(n), late(n, 5.0);
  const double rho = rate / cap;
  for (std::size_t i = 0; i < n; ++i) {
    double l = base / std::max(0.05, 1.0 - std::min(rho, 0.95));
    if (rho > 1.0) l += (rho - 1.0) * 1e6 * (static_cast<double>(i) / static_cast<double>(n));
    if (noise) l *= 1.0 + 0.2 * noise->uniform();
    lat[i] = l;
  }
  RungResult r;
  r.offeredQps = rate;
  r.achievedQps = std::min(rate, cap);
  r.p50Us = quantile(lat, 0.5);
  r.p99Us = quantile(lat, 0.99);
  std::tie(r.firstQuarterP50Us, r.lastQuarterP50Us) = quarterMedians(lat);
  r.sendLateP50Us = quantile(late, 0.5);
  for (std::size_t i = 0; i < n; ++i) r.outcomes.add(Outcome::kOk);
  judgeRung(r, KneeLimits{});
  return r;
}

void testKnee() {
  const Ladder ladder{100.0, 16, 128, 0.5};
  // Flat: nothing ever saturates; the search climbs to the top rung.
  {
    const KneeResult k = findKnee(ladder, [&](int rung) {
      return synthetic(ladder, rung, 1e12, 100.0, nullptr);
    });
    check(k.bestRung == ladder.maxRung, "flat series: knee at the ladder's top");
    check(k.best() != nullptr, "flat series: best rung recorded");
  }
  // Saturating at 5000 qps: the knee is the highest rung at or below ~cap.
  {
    int probes = 0;
    const KneeResult k = findKnee(ladder, [&](int rung) {
      ++probes;
      return synthetic(ladder, rung, 5000.0, 100.0, nullptr);
    });
    check(k.bestRung >= 0, "saturating series: a knee exists");
    const double knee = ladder.rate(k.bestRung);
    const double above = ladder.rate(k.bestRung + 1);
    check(knee <= 5000.0, "saturating: knee rung not above capacity");
    check(above > 5000.0 * 0.9, "saturating: the next rung is near or past capacity");
    check(probes <= 20, "saturating: the three-pass search stays short");
    bool sawFail = false;
    for (const auto& r : k.rungs) sawFail |= !r.pass;
    check(sawFail, "saturating: the search saw a failing rung");
    // Only a failed attempt is retried, once; no rung runs a third time.
    std::map<int, std::vector<bool>> attempts;
    for (const auto& r : k.rungs) attempts[r.rung].push_back(r.pass);
    for (const auto& [rung, passes] : attempts) {
      check(passes.size() <= 2, "a rung runs at most twice");
      if (passes.size() == 2) check(!passes[0], "only a failed attempt is retried");
    }
  }
  // Noisy: the knee still lands within a few fine rungs of capacity.
  {
    resex::Rng rng(42);
    const KneeResult k = findKnee(ladder, [&](int rung) {
      return synthetic(ladder, rung, 5000.0, 100.0, &rng);
    });
    const double knee = ladder.rate(k.bestRung);
    check(knee > 5000.0 * 0.7 && knee <= 5000.0, "noisy: knee within 30% below capacity");
  }
  // One stall: a rung that fails once but passes its retry does not end
  // the climb.
  {
    std::map<int, int> seen;
    const KneeResult k = findKnee(ladder, [&](int rung) {
      RungResult r = synthetic(ladder, rung, 5000.0, 100.0, nullptr);
      if (rung == 16 && seen[rung]++ == 0) {
        r.p99Us = 1e9;
        judgeRung(r, KneeLimits{});
      }
      return r;
    });
    check(ladder.rate(k.bestRung) > 5000.0 * 0.9, "a single stall does not lower the knee");
  }
  // A floor that already fails: no knee.
  {
    const KneeResult k = findKnee(ladder, [&](int rung) {
      return synthetic(ladder, rung, 10.0, 100.0, nullptr);
    });
    check(k.bestRung == -1 && k.best() == nullptr, "failing floor: no knee");
    check(k.rungs.size() == 2, "failing floor: one probe and its retry");
  }
}

void testJudge() {
  RungResult r;
  r.p50Us = 100;
  r.p99Us = 200;
  r.firstQuarterP50Us = 100;
  r.lastQuarterP50Us = 110;
  for (int i = 0; i < 1000; ++i) r.outcomes.add(Outcome::kOk);
  judgeRung(r, KneeLimits{});
  check(r.pass, "healthy rung passes");
  RungResult backlog = r;
  backlog.lastQuarterP50Us = 5000;
  judgeRung(backlog, KneeLimits{});
  check(!backlog.pass && backlog.why == "backlog", "growing backlog fails");
  RungResult failing = r;
  for (int i = 0; i < 20; ++i) failing.outcomes.add(Outcome::kDegraded);
  judgeRung(failing, KneeLimits{});
  check(!failing.pass && failing.why == "failed share", "2% degraded fails the rung");
  RungResult wrong = r;
  wrong.outcomes.add(Outcome::kWrong);
  judgeRung(wrong, KneeLimits{});
  check(!wrong.pass && wrong.why == "wrong responses", "a wrong answer fails the rung");
  RungResult slow = r;
  slow.p99Us = 1e9;
  judgeRung(slow, KneeLimits{});
  check(!slow.pass && slow.why == "p99", "p99 over the limit fails");
  RungResult behind = r;
  behind.sendLateP50Us = 1e6;
  judgeRung(behind, KneeLimits{});
  check(!behind.pass && behind.why == "generator behind", "a late generator fails the rung");
  const auto [early, late] = quarterMedians({1, 1, 1, 1, 5, 5, 5, 5, 9, 9, 9, 9});
  check(early == 1 && late == 9, "quarter medians");
}

/// Runs a frame through the wire: encode, reassemble with FrameReader,
/// decode — the way the load generator receives it.
resex::net::Reply wire(const resex::net::QueryResponse& response) {
  std::string bytes;
  resex::net::encodeResultFrame(9, response, bytes);
  resex::net::FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  const auto frame = reader.next();
  resex::net::Reply reply;
  reply.requestId = frame->requestId;
  reply.type = frame->type;
  reply.response = *resex::net::decodeResultBody(frame->body);
  return reply;
}

void testClassifier() {
  resex::net::QueryResponse good;
  good.complete = true;
  good.partitionsAnswered = good.partitionsTotal = 8;
  good.docs = {{3, 1.5}, {7, 1.25}};
  const std::string want = canonicalBytes(good);

  check(classify(wire(good), want) == Outcome::kOk, "identical frame is ok");
  resex::net::QueryResponse hit = good;
  hit.cacheHit = true;
  check(classify(wire(hit), want) == Outcome::kOk, "cache flag is masked");
  resex::net::QueryResponse partial = good;
  partial.complete = false;
  partial.partitionsAnswered = 5;
  check(classify(wire(partial), want) == Outcome::kDegraded, "incomplete is degraded");
  resex::net::QueryResponse rejected = good;
  rejected.rejected = true;
  rejected.docs.clear();
  check(classify(wire(rejected), want) == Outcome::kRejected, "rejected flag");
  resex::net::QueryResponse off = good;
  off.docs[1].score = std::nextafter(1.25, 2.0);  // one ulp off
  check(classify(wire(off), want) == Outcome::kWrong, "one-ulp score change is wrong");
  resex::net::QueryResponse swapped = good;
  std::swap(swapped.docs[0], swapped.docs[1]);
  check(classify(wire(swapped), want) == Outcome::kWrong, "reordered docs are wrong");

  std::string bytes;
  resex::net::encodeErrorFrame(4, resex::net::ErrorCode::kShuttingDown, "draining", bytes);
  resex::net::FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  const auto frame = reader.next();
  resex::net::Reply err;
  err.requestId = frame->requestId;
  err.type = frame->type;
  err.error = *resex::net::decodeErrorBody(frame->body);
  check(classify(err, want) == Outcome::kRejected, "typed error frame is rejected");

  OutcomeCounts c;
  c.add(Outcome::kOk);
  c.add(Outcome::kDegraded);
  c.add(Outcome::kRejected);
  c.add(Outcome::kLost);
  c.add(Outcome::kWrong);
  check(c.total() == 5 && c.failed() == 3, "degraded, rejected and lost are failures");
}

void testLittle() {
  check(near(littleWaitUs(2.0, 1000.0), 2000.0), "L=2 at 1000/s waits 2 ms");
  check(littleWaitUs(0.0, 5000.0) == 0.0, "empty queue, no wait");
  check(littleWaitUs(3.0, 0.0) == 0.0, "no arrivals, defined as 0");
}

bool throwsLogicError(const std::vector<Metric>& measured, bool trace) {
  try {
    manifestOrder(measured, trace);
  } catch (const std::logic_error&) {
    return true;
  }
  return false;
}

void testManifestOrder() {
  // End-to-end: every metric required, returned in the manifest's order.
  const std::vector<Metric> e2e = {{"cpu_us_per_op", 12.5, "us", 100}, {"setup_s", 0.5, "s", 3}};
  const auto ordered = manifestOrder(e2e, false);
  check(ordered.size() == std::size(kEndToEnd), "every end-to-end metric is reported");
  check(ordered[0].name == kEndToEnd[0].name && ordered[1].name == kEndToEnd[1].name,
        "end-to-end metrics come in the manifest's order");
  check(ordered[1].name == "cpu_us_per_op" && ordered[1].value == 12.5 &&
            ordered[1].samples == 100,
        "values and sample counts pass through");
  check(throwsLogicError({{"setup_s", 0.5, "s", 3}}, false),
        "a missing end-to-end metric is an error");
  check(throwsLogicError({{"setup_s", 0.5, "ms", 3}, {"cpu_us_per_op", 1.0, "us", 1}}, false),
        "a unit other than the manifest's is an error");
  check(throwsLogicError({{"setup_s", 0.5, "s", 3}, {"cpu_us_per_op", 1.0, "us", 1},
                          {"qps_max", 1.0, "1/s", 1}},
                         false),
        "a metric outside the list is an error");
  check(throwsLogicError({{"setup_s", 0.5, "s", 3}, {"setup_s", 0.6, "s", 3},
                          {"cpu_us_per_op", 1.0, "us", 1}},
                         false),
        "a metric measured twice is an error");

  // Per-layer: unmeasured layers are filled in as 0 with 0 samples.
  const auto layers = manifestOrder({{"lns.solve_s", 2.0, "s", 1}}, true);
  check(layers.size() == std::size(kPerLayer), "every per-layer metric is reported");
  std::size_t measured = 0, zeros = 0;
  for (const auto& m : layers) {
    if (m.name == "lns.solve_s") measured += m.value == 2.0 && m.samples == 1;
    else zeros += m.value == 0.0 && m.samples == 0;
  }
  check(measured == 1 && zeros + 1 == layers.size(),
        "an unmeasured per-layer metric is 0 with 0 samples");
  check(throwsLogicError({{"setup_s", 0.5, "s", 3}}, true),
        "an end-to-end metric is not a per-layer one");
}

}  // namespace

int main() {
  testQuantile();
  testKnee();
  testJudge();
  testClassifier();
  testLittle();
  testManifestOrder();
  std::printf("perfbench_tests: %d checks, %d failed\n", g_checks, g_failed);
  return g_failed == 0 ? 0 : 1;
}
