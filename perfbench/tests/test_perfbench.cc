/**
 * @file
 * Tests of the benchmark's own arithmetic: median and quartiles, the
 * p99 minimum-sample rule, misses per key, span self time, and that a
 * perturbed output is flagged as a digest mismatch.
 */

#include <gtest/gtest.h>

#include "bench_stats.hh"
#include "harness.hh"
#include "spans.hh"

using namespace perfbench;

TEST(BenchStats, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BenchStats, QuartilesMatchPythonStatistics)
{
    // Reference values: statistics.quantiles(values, n=4).
    auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q[0], 2.75);
    EXPECT_DOUBLE_EQ(q[1], 5.5);
    EXPECT_DOUBLE_EQ(q[2], 8.25);
    q = quartiles({1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(q[0], 1.25);
    EXPECT_DOUBLE_EQ(q[2], 3.75);
    q = quartiles({10, 20});
    EXPECT_DOUBLE_EQ(q[0], 7.5);
    EXPECT_DOUBLE_EQ(q[2], 22.5);
    q = quartiles({5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0});
    EXPECT_DOUBLE_EQ(q[0], 2.0);
    EXPECT_DOUBLE_EQ(q[1], 4.0);
    EXPECT_DOUBLE_EQ(q[2], 7.0);
}

TEST(BenchStats, RelativeSpread)
{
    // (8.25 - 2.75) / 5.5
    EXPECT_DOUBLE_EQ(relativeSpread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0);
    EXPECT_DOUBLE_EQ(relativeSpread({4.0, 4.0, 4.0}), 0.0);
    EXPECT_DOUBLE_EQ(relativeSpread({4.0}), 0.0);
}

TEST(BenchStats, P99MissingBelowTenSamplesBeyond)
{
    // Nearest rank 990 of 1000: ten samples lie beyond it; of 999,
    // nine do.
    EXPECT_FALSE(tailReportable(999, 0.99));
    EXPECT_TRUE(tailReportable(1000, 0.99));
    EXPECT_FALSE(tailReportable(0, 0.99));
    // A median needs only twenty samples.
    EXPECT_TRUE(tailReportable(20, 0.5));
    EXPECT_FALSE(tailReportable(19, 0.5));
}

TEST(BenchStats, MissesPerKey)
{
    EXPECT_DOUBLE_EQ(missesPerKey(1000, 5), 200.0);
    EXPECT_DOUBLE_EQ(missesPerKey(5, 5), 1.0);
    EXPECT_DOUBLE_EQ(missesPerKey(3, 0), 0.0);
}

namespace
{

SpanRecord
span(uint64_t id, uint64_t parent, const char *name, uint64_t a, uint64_t b)
{
    SpanRecord s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.startNs = a;
    s.endNs = b;
    return s;
}

} // namespace

TEST(Spans, SelfTimeSubtractsChildCoverageOnce)
{
    // synth [0, 100]: children cover [10, 50] (two overlapping spans)
    // and [60, 70], so 50 ns are its own. A child running past its
    // parent only counts inside the parent's interval.
    std::vector<SpanRecord> spans = {
        span(1, 0, "synth.synthesize", 0, 100),
        span(2, 1, "pipeline.measure", 10, 30),
        span(3, 1, "pipeline.measure", 20, 50),
        span(4, 1, "pipeline.measure", 60, 70),
        span(5, 0, "lang.compile", 200, 260),
        span(6, 5, "opt.optimize", 250, 300),
    };
    auto self = selfSeconds(spans);
    EXPECT_NEAR(self["synth"], 50e-9, 1e-15);
    EXPECT_NEAR(self["pipeline"], 60e-9, 1e-15);
    EXPECT_NEAR(self["lang"], 50e-9, 1e-15);
    EXPECT_NEAR(self["opt"], 50e-9, 1e-15);
    EXPECT_NEAR(totalSeconds(spans, "pipeline.measure"), 60e-9, 1e-15);
    EXPECT_EQ(durations(spans, "pipeline.measure").size(), 3u);
    EXPECT_EQ(layerOf("sim.timed_ref"), "sim");
}

TEST(Spans, NullRecorderRecordsNothing)
{
    Span s(nullptr, "lang.compile", 0);
    EXPECT_EQ(s.id(), 0u);

    SpanRecorder rec;
    {
        Span parent(&rec, "bench.instance", 3);
        Span child(&rec, "lang.compile", 3, parent.id());
    }
    auto spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "lang.compile");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[0].group, 3);
}

TEST(Digests, PerturbedOutputIsAMismatch)
{
    std::vector<CloneOutput> outputs = {
        {"crc32/small", "{\"profile\":1}", "int main() { return 0; }"},
        {"sha/small", "{\"profile\":2}", "int main() { return 1; }"},
    };
    const std::string reference = outputsDigest(outputs);

    Outcome same;
    EXPECT_TRUE(same.expectEqual("outputs", reference, outputsDigest(outputs)));
    EXPECT_EQ(same.failed(), 0u);

    auto perturbed = outputs;
    perturbed[1].cloneSource[14] = '2';
    Outcome changed;
    EXPECT_FALSE(
        changed.expectEqual("outputs", reference, outputsDigest(perturbed)));
    EXPECT_EQ(changed.failed(), 1u);

    // Moving bytes between fields changes the digest too.
    perturbed = outputs;
    perturbed[0].profileJson += perturbed[0].cloneSource.substr(0, 1);
    perturbed[0].cloneSource.erase(0, 1);
    EXPECT_NE(outputsDigest(perturbed), reference);
}
