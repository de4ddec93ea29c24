/**
 * @file
 * Tests for the serving metrics: percentile math and report assembly.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "serving/metrics.h"

namespace vqllm::serving {
namespace {

TEST(Percentile, EmptyAndSingle)
{
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
}

TEST(Percentile, EndpointsAndMedian)
{
    std::vector<double> v = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
}

TEST(Percentile, LinearInterpolationBetweenRanks)
{
    std::vector<double> v = {0, 10};
    EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 0.95), 9.5);
    std::vector<double> w = {1, 2, 3, 4};
    // rank = 0.5 * 3 = 1.5 -> midway between 2 and 3.
    EXPECT_DOUBLE_EQ(percentile(w, 0.5), 2.5);
}

TEST(Percentile, ClampsQuantile)
{
    std::vector<double> v = {1, 2, 3};
    EXPECT_DOUBLE_EQ(percentile(v, -1.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 2.0), 3.0);
}

TEST(Summarize, UnsortedInputHandled)
{
    std::vector<double> samples{5, 1, 3, 2, 4};
    auto s = summarize(samples);
    EXPECT_TRUE(std::is_sorted(samples.begin(), samples.end()));
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean_us, 3.0);
    EXPECT_DOUBLE_EQ(s.p50_us, 3.0);
    EXPECT_DOUBLE_EQ(s.max_us, 5.0);
}

TEST(Summarize, PercentilesOrdered)
{
    std::vector<double> samples;
    for (int i = 1; i <= 1000; ++i)
        samples.push_back(static_cast<double>(i));
    auto s = summarize(samples);
    EXPECT_LT(s.p50_us, s.p95_us);
    EXPECT_LT(s.p95_us, s.p99_us);
    EXPECT_LE(s.p99_us, s.max_us);
    EXPECT_NEAR(s.p50_us, 500.5, 1.0);
    EXPECT_NEAR(s.p95_us, 950.0, 1.0);
    EXPECT_NEAR(s.p99_us, 990.0, 1.0);
}

TEST(Summarize, EmptyGivesZeros)
{
    std::vector<double> samples;
    auto s = summarize(samples);
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.p99_us, 0.0);
}

TEST(MetricsCollector, AccumulatesCounters)
{
    MetricsCollector m;
    m.recordTtft(100);
    m.recordTbt(10);
    m.recordTbt(20);
    m.recordDecodeTokens(3);
    m.recordPrefillTokens(128);
    m.recordPreemption();
    EXPECT_EQ(m.ttftSamples().size(), 1u);
    EXPECT_EQ(m.tbtSamples().size(), 2u);
    EXPECT_EQ(m.decodeTokens(), 3u);
    EXPECT_EQ(m.prefillTokens(), 128u);
    EXPECT_EQ(m.preemptions(), 1u);
}

TEST(ServingReport, SummaryMentionsKeyNumbers)
{
    ServingReport r;
    std::vector<double> ttft{1000.0};
    r.ttft = summarize(ttft);
    r.tokens_per_sec = 123.4;
    r.sim_time_us = 2e6;
    r.completed_requests = 42;
    r.kv_peak_bytes = 1500000000;
    r.kv_capacity_bytes = 3000000000;
    auto text = r.summary();
    EXPECT_NE(text.find("123.4"), std::string::npos);
    EXPECT_NE(text.find("completed 42"), std::string::npos);
    EXPECT_NE(text.find("1.50 GB"), std::string::npos);
}

} // namespace
} // namespace vqllm::serving
