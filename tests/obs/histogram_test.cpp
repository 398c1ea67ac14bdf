// obs::Histogram, the one latency histogram type. LatencyHistogram.* covers
// the log-bucket geometry and quantile semantics; Histogram.* covers the
// fixed bucket range, snapshots and what the registry exports.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/mini_json.hpp"
#include "util/rng.hpp"

namespace resex::obs {
namespace {

using resex::testing::MiniJson;

TEST(LatencyHistogram, EmptyQuantileIsZero) {
  Histogram h(1e-6, 8);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.totalCount(), 0u);
}

TEST(LatencyHistogram, QuantileNeverExceedsMaxSeen) {
  // Regression: log buckets overshoot — the representative value of the
  // top bucket can exceed the largest sample, reporting a p99 above any
  // latency that occurred. Quantiles clamp to maxSeen() now.
  Histogram h(1e-6, 4);  // coarse buckets make the overshoot large
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) h.observe(rng.lognormal(-4.0, 1.5));
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_LE(h.quantile(q), h.maxSeen());
}

TEST(LatencyHistogram, FullQuantileIsExactlyMaxSeen) {
  Histogram h(1e-6, 8);
  h.observe(0.004);
  h.observe(0.017);
  h.observe(0.0291);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0291);
}

TEST(LatencyHistogram, SingleValueRoundTripsWithinRelativeError) {
  Histogram h(1e-6, 16);
  h.observe(0.123);
  const double q = h.quantile(0.5);
  EXPECT_NEAR(q, 0.123, 0.123 * 0.06);  // ~ +/- 2^(1/16)
}

TEST(LatencyHistogram, QuantilesAreMonotone) {
  Histogram h(1e-6, 8);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) h.observe(rng.lognormal(-4.0, 1.0));
  double prev = 0.0;
  for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(LatencyHistogram, QuantileApproximatesExactOrder) {
  Histogram h(1e-6, 32);
  for (int i = 1; i <= 1000; ++i) h.observe(i * 0.001);
  // p50 of 0.001..1.000 is ~0.5.
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.03);
  EXPECT_NEAR(h.quantile(0.99), 0.99, 0.05);
}

TEST(LatencyHistogram, TracksMaxAndMean) {
  Histogram h(1e-6, 8);
  h.observe(1.0);
  h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.maxSeen(), 3.0);
  EXPECT_DOUBLE_EQ(h.meanValue(), 2.0);
}

TEST(LatencyHistogram, MergeCombinesCounts) {
  Histogram a(1e-6, 8);
  Histogram b(1e-6, 8);
  a.observe(0.1);
  b.observe(10.0);
  b.observe(20.0);
  a.merge(b);
  EXPECT_EQ(a.totalCount(), 3u);
  EXPECT_DOUBLE_EQ(a.maxSeen(), 20.0);
  EXPECT_GT(a.quantile(0.99), 5.0);
}

TEST(LatencyHistogram, MergeOfEmptyIsIdentity) {
  Histogram a(1e-6, 8);
  a.observe(0.25);
  a.observe(0.75);
  const double p50 = a.quantile(0.5);
  const Histogram empty(1e-6, 8);
  a.merge(empty);
  EXPECT_EQ(a.totalCount(), 2u);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), p50);
}

TEST(LatencyHistogram, MergeMatchesPooledSamples) {
  // Merging two histograms must give the same quantiles as one histogram
  // fed the pooled sample stream.
  Histogram a(1e-6, 16);
  Histogram b(1e-6, 16);
  Histogram pooled(1e-6, 16);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double xa = rng.lognormal(-3.0, 0.7);
    const double xb = rng.lognormal(-2.0, 0.7);
    a.observe(xa);
    b.observe(xb);
    pooled.observe(xa);
    pooled.observe(xb);
  }
  a.merge(b);
  EXPECT_EQ(a.totalCount(), pooled.totalCount());
  EXPECT_DOUBLE_EQ(a.maxSeen(), pooled.maxSeen());
  for (const double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(a.quantile(q), pooled.quantile(q));
}

TEST(LatencyHistogram, QuantileEndpointsBracketSamples) {
  Histogram h(1e-6, 32);
  for (int i = 1; i <= 100; ++i) h.observe(i * 0.01);
  // q=0 sits at (or below) the smallest sample's bucket; q=1 at the
  // largest sample's bucket, within one bucket of relative error.
  EXPECT_LE(h.quantile(0.0), 0.01 * 1.05);
  EXPECT_NEAR(h.quantile(1.0), 1.0, 0.05);
}

TEST(LatencyHistogram, BelowMinClampsToFirstBucket) {
  // Counted in the first bucket, but reported quantiles clamp to the
  // actual maximum sample rather than the bucket's representative value.
  Histogram h(1e-3, 8);
  h.observe(1e-9);
  EXPECT_EQ(h.totalCount(), 1u);
  EXPECT_EQ(h.countAt(0), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1e-9);
  // A second sample above min lands normally and dominates the quantile.
  h.observe(2e-3);
  EXPECT_NEAR(h.quantile(1.0), 2e-3, 1e-12);
}

TEST(LatencyHistogram, RejectsBadArguments) {
  EXPECT_THROW(Histogram(0.0, 8), std::invalid_argument);
  EXPECT_THROW(Histogram(-1.0, 8), std::invalid_argument);
  EXPECT_THROW(Histogram(1e-6, 0), std::invalid_argument);
}

TEST(LatencyHistogram, PrometheusTextMatchesGolden) {
  // One sub-bucket per octave with floor 1 gives power-of-two edges, so
  // the exposition text is exact and this can be a golden comparison.
  Histogram h(1.0, 1);
  h.observe(0.5);  // clamps into the first bucket (le="1")
  h.observe(1.0);
  h.observe(3.0);  // bucket (2, 4]
  h.observe(5.0);  // bucket (4, 8]
  MetricsSnapshot snap;
  snap.histograms.emplace_back("resex_latency", h);
  const std::string expected =
      "# TYPE resex_latency histogram\n"
      "resex_latency_bucket{le=\"1\"} 2\n"
      "resex_latency_bucket{le=\"2\"} 2\n"
      "resex_latency_bucket{le=\"4\"} 3\n"
      "resex_latency_bucket{le=\"8\"} 4\n"
      "resex_latency_bucket{le=\"+Inf\"} 4\n"
      "resex_latency_sum 9.5\n"
      "resex_latency_count 4\n";
  EXPECT_EQ(snap.toPrometheusText(), expected);
}

TEST(LatencyHistogram, EmptyPrometheusTextHasOnlyInfBucket) {
  MetricsSnapshot snap;
  snap.histograms.emplace_back("empty", Histogram(1.0, 1));
  const std::string expected =
      "# TYPE empty histogram\n"
      "empty_bucket{le=\"+Inf\"} 0\n"
      "empty_sum 0\n"
      "empty_count 0\n";
  EXPECT_EQ(snap.toPrometheusText(), expected);
}

TEST(Histogram, BucketsCountCumulatively) {
  Histogram h(1.0, 1);  // edges 1, 2, 4, 8, ...
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (edges are inclusive)
  h.observe(3.0);    // (2, 4]
  h.observe(4.0);    // (2, 4]
  h.observe(500.0);  // (256, 512]
  EXPECT_EQ(h.totalCount(), 5u);
  EXPECT_EQ(h.bucketCount(), 10u);  // through the highest occupied bucket
  EXPECT_EQ(h.countAt(0), 2u);
  EXPECT_EQ(h.countAt(1), 0u);
  EXPECT_EQ(h.countAt(2), 2u);
  EXPECT_EQ(h.countAt(9), 1u);
  EXPECT_DOUBLE_EQ(h.bucketUpper(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bucketUpper(9), 512.0);
  EXPECT_DOUBLE_EQ(h.sum(), 508.5);
  EXPECT_DOUBLE_EQ(h.meanValue(), 508.5 / 5.0);
}

TEST(Histogram, RejectsBadBounds) {
  // Bucket bounds follow from floor and sub-buckets; histograms whose
  // bounds differ cannot merge.
  Histogram a(1.0, 8);
  EXPECT_THROW(a.merge(Histogram(1.0, 4)), std::invalid_argument);
  EXPECT_THROW(a.merge(Histogram(2.0, 8)), std::invalid_argument);
  EXPECT_NO_THROW(a.merge(Histogram(1.0, 8)));
}

TEST(Histogram, RegistryReportsLongSamplesExactly) {
  // A 30 s stall in microseconds: the registry geometry spans 2^40 us and
  // keeps the exact max, so the tail reads 30 s, not a capped bound.
  Histogram& h = MetricsRegistry::global().histogram("test.hist.thirty_seconds");
  h.reset();
  h.observe(30e6);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30e6);
  EXPECT_NEAR(h.quantile(0.5), 30e6, 30e6 * 0.05);
  h.reset();
}

TEST(Histogram, LastBucketTakesEverythingAbove) {
  Histogram h(1.0, 1);
  h.observe(1e15);  // past floor * 2^kOctaves
  h.observe(std::numeric_limits<double>::infinity());
  const std::size_t last = static_cast<std::size_t>(Histogram::kOctaves);
  EXPECT_EQ(h.bucketCount(), last + 1);
  EXPECT_EQ(h.countAt(last), 2u);
  EXPECT_TRUE(std::isinf(h.bucketUpper(last)));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), std::ldexp(1.0, Histogram::kOctaves) / std::sqrt(2.0));
}

TEST(Histogram, NanIsIgnored) {
  Histogram h;
  h.observe(std::nan(""));
  EXPECT_EQ(h.totalCount(), 0u);
  EXPECT_EQ(h.bucketCount(), 0u);
}

TEST(Histogram, CopyIsAnIndependentSnapshot) {
  Histogram h;
  h.observe(10.0);
  h.observe(100.0);
  const Histogram snap = h;
  h.observe(1000.0);
  EXPECT_EQ(snap.totalCount(), 2u);
  EXPECT_DOUBLE_EQ(snap.maxSeen(), 100.0);
  EXPECT_DOUBLE_EQ(snap.sum(), 110.0);
  EXPECT_EQ(h.totalCount(), 3u);
  Histogram assigned(1e-6, 4);
  assigned = h;
  EXPECT_EQ(assigned.totalCount(), 3u);
  EXPECT_EQ(assigned.bucketCount(), h.bucketCount());
  EXPECT_NO_THROW(assigned.merge(h));  // took h's geometry too
  h.reset();
  EXPECT_EQ(h.totalCount(), 0u);
  EXPECT_EQ(h.bucketCount(), 0u);
  EXPECT_DOUBLE_EQ(h.maxSeen(), 0.0);
}

TEST(Histogram, JsonExportStopsAtHighestOccupiedBucket) {
  Histogram h;
  h.observe(3.0);
  h.observe(40.0);
  MetricsSnapshot snap;
  snap.histograms.emplace_back("h", h);
  const auto flat = MiniJson::flatten(snap.toJson());
  const std::size_t buckets = std::stoul(flat.at("histograms/h/buckets/#size"));
  EXPECT_EQ(buckets, h.bucketCount());
  EXPECT_LT(buckets, static_cast<std::size_t>(8 * Histogram::kOctaves));
  const std::string top = "histograms/h/buckets/" + std::to_string(buckets - 1);
  EXPECT_EQ(flat.at(top + "/count"), "1");
  EXPECT_GE(std::stod(flat.at(top + "/le")), 40.0);
  EXPECT_EQ(flat.at("histograms/h/count"), "2");
  EXPECT_EQ(std::stod(flat.at("histograms/h/max")), 40.0);
}

}  // namespace
}  // namespace resex::obs
