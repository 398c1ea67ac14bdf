#include "loadgen.hpp"

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "serve/search_service.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

timespec toTimespec(std::int64_t ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  return ts;
}

/// Longest single sleep of the generator. On a virtual machine an idle
/// vCPU can take milliseconds to wake from a long timed sleep; waking at
/// least this often keeps the generator within tens of microseconds of its
/// schedule (measured on the 4-vCPU reference box: p99 lateness 15 us with
/// 100 us slices vs 4.7 ms sleeping a 4 ms gap in one go).
constexpr std::int64_t kMaxSleepNs = 100'000;

/// Sleeps until `dueNs` in slices of at most kMaxSleepNs.
void sleepUntil(std::int64_t dueNs) {
  for (std::int64_t now = nowNs(); now < dueNs; now = nowNs()) {
    const timespec until = toTimespec(std::min(dueNs, now + kMaxSleepNs));
    ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until, nullptr);
  }
}

void initResult(PhaseResult& out, std::size_t n) {
  out.latencyUs.assign(n, kInf);
  out.outcome.assign(n, Outcome::kLost);
  out.lateUs.assign(n, 0.0);
  out.scheduledNs.assign(n, 0);
  out.sendNs.assign(n, 0);
  out.replyNs.assign(n, 0);
}

/// For the length of a phase, runs the generator thread in the
/// lowest real-time class, so worker threads that saturate every vCPU
/// cannot delay a due send by a time slice. The generator sleeps between
/// sends and never spins, so it cannot starve them. Falls back silently
/// (keeping the normal class) where the policy is not permitted; the
/// generator's lateness is recorded either way.
class RealtimeScope {
 public:
  RealtimeScope() {
    ::pthread_getschedparam(::pthread_self(), &policy_, &param_);
    sched_param rt{};
    rt.sched_priority = 1;
    raised_ = ::pthread_setschedparam(::pthread_self(), SCHED_FIFO, &rt) == 0;
  }
  ~RealtimeScope() {
    if (raised_) ::pthread_setschedparam(::pthread_self(), policy_, &param_);
  }
  RealtimeScope(const RealtimeScope&) = delete;
  RealtimeScope& operator=(const RealtimeScope&) = delete;

 private:
  int policy_ = SCHED_OTHER;
  sched_param param_{};
  bool raised_ = false;
};

/// Counts outcomes and the first-arrival -> last-reply span.
void finishResult(PhaseResult& out) {
  out.counts = OutcomeCounts{};
  std::int64_t last = 0;
  for (std::size_t i = 0; i < out.outcome.size(); ++i) {
    out.counts.add(out.outcome[i]);
    last = std::max(last, out.replyNs[i]);
  }
  if (!out.scheduledNs.empty() && last > out.scheduledNs.front())
    out.spanSeconds = static_cast<double>(last - out.scheduledNs.front()) * 1e-9;
}

}  // namespace

Arrivals poissonArrivals(double qps, double seconds, resex::Rng& rng,
                         const std::function<std::uint32_t(resex::Rng&)>& pick) {
  Arrivals a;
  double t = rng.exponential(qps);
  while (t < seconds) {
    a.offsets.push_back(t);
    a.query.push_back(pick(rng));
    t += rng.exponential(qps);
  }
  return a;
}

double PhaseResult::okQuantileUs(double q) const {
  std::vector<double> ok;
  ok.reserve(latencyUs.size());
  for (std::size_t i = 0; i < latencyUs.size(); ++i)
    if (outcome[i] == Outcome::kOk) ok.push_back(latencyUs[i]);
  return quantile(std::move(ok), q);
}

std::vector<double> PhaseResult::windowQuantilesUs(double q, std::size_t window) const {
  std::vector<double> perWindow, ok;
  for (std::size_t start = 0; start + window <= latencyUs.size(); start += window) {
    ok.clear();
    for (std::size_t i = start; i < start + window; ++i)
      if (outcome[i] == Outcome::kOk) ok.push_back(latencyUs[i]);
    if (!ok.empty()) perWindow.push_back(quantile(ok, q));
  }
  return perWindow;
}

double PhaseResult::windowedQuantileUs(double q, std::size_t window) const {
  std::vector<double> perWindow = windowQuantilesUs(q, window);
  return perWindow.empty() ? okQuantileUs(q) : quantile(std::move(perWindow), 0.5);
}

void printWindowQuantiles(const PhaseResult& phase, std::size_t window) {
  const auto w50 = phase.windowQuantilesUs(0.5, window);
  const auto w99 = phase.windowQuantilesUs(0.99, window);
  std::printf("windows of %zu arrivals, p50/p99 us:", window);
  for (std::size_t w = 0; w < w50.size(); ++w) std::printf(" %.0f/%.0f", w50[w], w99[w]);
  std::printf("\n");
}

RungResult PhaseResult::asRung(double offeredQps) const {
  RungResult r;
  r.offeredQps = offeredQps;
  r.outcomes = counts;
  r.achievedQps = spanSeconds > 0.0
                      ? static_cast<double>(counts.of(Outcome::kOk)) / spanSeconds
                      : 0.0;
  r.p50Us = okQuantileUs(0.5);
  r.p99Us = windowedQuantile(latencyUs, 0.99, kRungWindows);  // failures: +inf
  std::tie(r.firstQuarterP50Us, r.lastQuarterP50Us) = quarterMedians(latencyUs);
  r.sendLateP50Us = quantile(lateUs, 0.5);
  return r;
}

void tightenTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

SocketLoadGen::SocketLoadGen(std::uint16_t port, std::size_t connections) {
  for (std::size_t c = 0; c < connections; ++c) {
    clients_.push_back(std::make_unique<resex::net::Client>("127.0.0.1", port));
    clients_.back()->connect();
  }
  nextId_.assign(connections, 1);
  phaseFirstId_.assign(connections, 1);
  arrivalOf_.resize(connections);
}

void SocketLoadGen::account(std::size_t c, const resex::net::Reply& reply,
                            PhaseResult& out, const std::vector<std::uint32_t>& query,
                            const std::vector<std::string>& expected,
                            std::size_t& outstanding) {
  const std::int64_t now = nowNs();
  if (reply.requestId == 0 || reply.requestId >= nextId_[c])
    throw std::runtime_error("perfbench: reply for a request never sent");
  if (reply.requestId < phaseFirstId_[c]) return;  // lost in an earlier phase
  const std::size_t i = arrivalOf_[c][reply.requestId - phaseFirstId_[c]];
  out.replyNs[i] = now;
  out.outcome[i] = classify(reply, expected[query[i]]);
  if (out.outcome[i] == Outcome::kOk)
    out.latencyUs[i] = static_cast<double>(now - out.scheduledNs[i]) * 1e-3;
  --outstanding;
}

PhaseResult SocketLoadGen::run(const Arrivals& arrivals, const std::vector<Query>& queries,
                               const std::vector<std::string>& expected,
                               double drainSeconds) {
  const std::size_t n = arrivals.offsets.size();
  const std::size_t conns = clients_.size();
  for (std::size_t c = 0; c < conns; ++c) {
    phaseFirstId_[c] = nextId_[c];
    arrivalOf_[c].clear();
    arrivalOf_[c].reserve(n / conns + 1);
  }
  PhaseResult out;
  initResult(out, n);
  const std::int64_t t0 = nowNs() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i)
    out.scheduledNs[i] = t0 + static_cast<std::int64_t>(arrivals.offsets[i] * 1e9);
  const std::int64_t drainUntil =
      (n ? out.scheduledNs.back() : t0) + static_cast<std::int64_t>(drainSeconds * 1e9);

  const RealtimeScope realtime;
  std::vector<pollfd> fds(conns);
  std::vector<resex::net::Reply> replies;
  std::size_t next = 0, outstanding = 0;
  resex::net::QueryRequest request;
  for (;;) {
    std::int64_t now = nowNs();
    const std::size_t batch = next;
    while (next < n && out.scheduledNs[next] <= now) {
      const std::size_t c = next % conns;
      request.terms = queries[arrivals.query[next]];
      const std::uint64_t id = clients_[c]->send(request);
      if (id != nextId_[c]++)
        throw std::runtime_error("perfbench: client request ids are not sequential");
      arrivalOf_[c].push_back(static_cast<std::uint32_t>(next));
      ++next;
      ++outstanding;
    }
    if (next > batch) {
      for (auto& client : clients_)
        if (client->pendingSendBytes() > 0) client->flush();
      now = nowNs();
      for (std::size_t i = batch; i < next; ++i) {
        out.sendNs[i] = now;
        out.lateUs[i] = static_cast<double>(now - out.scheduledNs[i]) * 1e-3;
      }
    }
    if (next == n && (outstanding == 0 || now >= drainUntil)) break;

    // Sleep until the next arrival is due (or briefly while draining),
    // waking early for any reply.
    std::int64_t waitNs = next < n ? out.scheduledNs[next] - now : kMaxSleepNs;
    waitNs = std::clamp<std::int64_t>(waitNs, 0, kMaxSleepNs);
    for (std::size_t c = 0; c < conns; ++c) {
      fds[c].fd = clients_[c]->fd();
      fds[c].events = static_cast<short>(
          POLLIN | (clients_[c]->pendingSendBytes() > 0 ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    const timespec timeout = toTimespec(waitNs);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < conns; ++c) {
      if (fds[c].revents == 0) continue;
      if (clients_[c]->pendingSendBytes() > 0) clients_[c]->flush();
      replies.clear();
      if (!clients_[c]->drain(replies))
        throw std::runtime_error("perfbench: server closed a connection under load");
      for (const auto& reply : replies)
        account(c, reply, out, arrivals.query, expected, outstanding);
    }
  }
  finishResult(out);
  return out;
}

PhaseResult runInProcess(resex::serve::QueryBroker& broker, const Arrivals& arrivals,
                         const std::vector<Query>& queries,
                         const std::vector<std::string>& expected, double drainSeconds,
                         std::vector<double>* brokerUs) {
  const std::size_t n = arrivals.offsets.size();
  // Completions may land after a drain timeout; they write into state the
  // callbacks co-own, through atomics.
  struct State {
    explicit State(std::size_t n) : replyNs(n), submitNs(n), outcome(n) {}
    std::vector<std::atomic<std::int64_t>> replyNs;
    std::vector<std::int64_t> submitNs;
    std::vector<std::atomic<std::uint8_t>> outcome;
    std::atomic<std::size_t> done{0};
  };
  auto state = std::make_shared<State>(n);
  for (auto& o : state->outcome) o.store(static_cast<std::uint8_t>(Outcome::kLost));

  PhaseResult out;
  initResult(out, n);
  const std::int64_t t0 = nowNs() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i)
    out.scheduledNs[i] = t0 + static_cast<std::int64_t>(arrivals.offsets[i] * 1e9);

  resex::serve::SubmitOptions options;
  options.waitForQueue = false;
  const RealtimeScope realtime;
  for (std::size_t i = 0; i < n; ++i) {
    sleepUntil(out.scheduledNs[i]);
    const std::int64_t now = nowNs();
    out.sendNs[i] = now;
    out.lateUs[i] = static_cast<double>(now - out.scheduledNs[i]) * 1e-3;
    state->submitNs[i] = now;
    const std::string* want = &expected[arrivals.query[i]];
    broker.submit(queries[arrivals.query[i]], options,
                  [state, i, want](resex::serve::QueryResult result) {
                    const std::int64_t at = nowNs();
                    resex::net::Reply reply;
                    reply.type = resex::net::FrameType::kResult;
                    reply.response = resex::serve::toWireResponse(result);
                    state->outcome[i].store(
                        static_cast<std::uint8_t>(classify(reply, *want)));
                    state->replyNs[i].store(at);
                    state->done.fetch_add(1);
                  });
  }
  const std::int64_t drainUntil =
      (n ? out.scheduledNs.back() : t0) + static_cast<std::int64_t>(drainSeconds * 1e9);
  while (state->done.load() < n && nowNs() < drainUntil)
    std::this_thread::sleep_for(std::chrono::microseconds(200));

  if (brokerUs) brokerUs->clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t at = state->replyNs[i].load();
    if (at == 0) continue;
    out.replyNs[i] = at;
    out.outcome[i] = static_cast<Outcome>(state->outcome[i].load());
    if (out.outcome[i] != Outcome::kOk) continue;
    out.latencyUs[i] = static_cast<double>(at - out.scheduledNs[i]) * 1e-3;
    if (brokerUs)
      brokerUs->push_back(static_cast<double>(at - state->submitNs[i]) * 1e-3);
  }
  finishResult(out);
  return out;
}

std::vector<std::string> oracleAnswers(resex::serve::QueryBroker& uncachedTwin,
                                       const std::vector<Query>& queries,
                                       std::size_t threads) {
  std::vector<std::string> answers(queries.size());
  std::vector<std::thread> pool;
  threads = std::max<std::size_t>(1, threads);
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < queries.size(); i += threads)
        answers[i] = canonicalBytes(
            resex::serve::toWireResponse(uncachedTwin.execute(queries[i])));
    });
  for (auto& th : pool) th.join();
  return answers;
}

}  // namespace perfbench
