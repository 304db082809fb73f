/** @file Unit tests for the walk-level event tracer and its writers. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common/trace_events.hh"
#include "exec/engine.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace necpt
{

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(TraceBuffer, DisabledBufferIsInert)
{
    // The zero-overhead contract with tracing off: every operation on
    // a default-constructed buffer is a no-op and records nothing.
    TraceBuffer t;
    EXPECT_FALSE(t.enabled());
    EXPECT_FALSE(t.sampleWalk());
    t.span("walk", TraceCat::Walk, 0, 10, 5);
    t.instant("probe", TraceCat::Probe, 0, 10);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.walksSampled(), 0u);
}

TEST(TraceBuffer, RingOverwritesOldest)
{
    TraceBuffer t(4);
    for (int i = 0; i < 6; ++i)
        t.instant("e", TraceCat::Walk, 0,
                  static_cast<Cycles>(i));
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.dropped(), 2u);
    // Oldest surviving event is the third emitted (ts == 2).
    EXPECT_EQ(t.event(0).ts, 2u);
    EXPECT_EQ(t.event(3).ts, 5u);
}

TEST(TraceBuffer, WalkSampling)
{
    TraceBuffer t(64, 2); // every 2nd walk
    EXPECT_TRUE(t.sampleWalk());
    EXPECT_FALSE(t.sampleWalk());
    EXPECT_TRUE(t.sampleWalk());
    EXPECT_EQ(t.walksSampled(), 2u);

    // sample_every == 0 disables walks without disabling the buffer.
    TraceBuffer none(64, 0);
    EXPECT_TRUE(none.enabled());
    EXPECT_FALSE(none.sampleWalk());
}

/** Overlapped walks are in flight together, so each keeps its own
 *  sampling decision: every sampled walk records one whole-walk span
 *  and one span per step, however the walks interleave. */
TEST(TraceBuffer, OverlappedWalksKeepTheirSpans)
{
    for (std::uint64_t every : {1u, 3u}) {
        TraceBuffer t(TraceBuffer::default_capacity, every);
        SimParams params;
        params.warmup_accesses = 0;
        params.measure_accesses = 400;
        params.scale_denominator = 256;
        params.max_outstanding_walks = 4;
        params.tracer = &t;
        runSim(makeConfig(ConfigId::NestedEcpt), params, "GUPS");

        std::map<std::string, std::uint64_t> spans;
        for (std::size_t i = 0; i < t.size(); ++i)
            if (t.event(i).ph == 'X')
                ++spans[t.event(i).name];
        EXPECT_EQ(t.dropped(), 0u);
        EXPECT_GT(t.walksSampled(), 0u);
        for (const char *name :
             {"walk", "walk.step1", "walk.step2", "walk.step3"})
            EXPECT_EQ(spans[name], t.walksSampled())
                << name << " at --trace-walks=" << every;
    }
}

/** Every walker design asks once per walk whether it is traced, and a
 *  traced walk records one whole-walk span: the POM-TLB walk samples
 *  once per TLB miss, its fallback nested walk included. */
TEST(TraceBuffer, EveryDesignSpansEachSampledWalk)
{
    for (const ConfigId id :
         {ConfigId::Radix, ConfigId::Ecpt, ConfigId::NestedRadix,
          ConfigId::NestedEcpt, ConfigId::NestedHybrid,
          ConfigId::AgilePagingIdeal, ConfigId::PomTlb,
          ConfigId::FlatNested, ConfigId::ShadowPaging,
          ConfigId::NestedHpt}) {
        for (std::uint64_t every : {1u, 3u}) {
            SCOPED_TRACE(configName(id) + " at --trace-walks="
                         + std::to_string(every));
            TraceBuffer t(TraceBuffer::default_capacity, every);
            SimParams params;
            params.warmup_accesses = 0;
            params.measure_accesses = 400;
            params.scale_denominator = 256;
            params.tracer = &t;
            const SimResult r = runSim(makeConfig(id), params, "GUPS");

            std::uint64_t walk_spans = 0;
            for (std::size_t i = 0; i < t.size(); ++i)
                walk_spans += t.event(i).ph == 'X'
                    && std::string(t.event(i).name) == "walk";
            EXPECT_EQ(t.dropped(), 0u);
            EXPECT_GT(t.walksSampled(), 0u);
            EXPECT_EQ(walk_spans, t.walksSampled());
            // Every walk asks once: every Nth is sampled.
            EXPECT_EQ(t.walksSampled(), (r.walks + every - 1) / every);
        }
    }
}

TEST(TraceBuffer, ArgsAreCappedAtFour)
{
    TraceBuffer t(4);
    t.instant("e", TraceCat::Walk, 0, 0,
              {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}});
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.event(0).nargs, 4);
}

TEST(ChromeTrace, WriterEmitsValidStructure)
{
    TraceBuffer t(16);
    t.setPid(3);
    t.span("walk", TraceCat::Walk, 0, 100, 40, {{"accesses", 3}});
    t.instant("probe", TraceCat::Probe, 0, 105,
              {{"way", 1}, {"kind", 0, "pte"}});
    const std::string path = "test_trace_out.json";
    ASSERT_TRUE(writeChromeTrace(path, t, "job-a"));
    const std::string json = readFile(path);
    std::remove(path.c_str());

    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"name\":\"walk\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":40"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
    // Instants carry the scope field, text args serialize as strings.
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"pte\""), std::string::npos);
    // The process-name metadata record names the lane.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("job-a"), std::string::npos);
}

TEST(ChromeTrace, DocumentCountsDroppedEvents)
{
    // A ring of 4 that overflows by k events says so in the document,
    // summed over lanes; a ring that never filled writes 0.
    for (std::uint64_t k : {0u, 1u, 7u}) {
        TraceBuffer full(4);
        TraceBuffer other(4);
        for (std::uint64_t i = 0; i < 4 + k; ++i)
            full.instant("e", TraceCat::Walk, 0, i);
        other.instant("e", TraceCat::Walk, 0, 0);
        const std::string path = "test_trace_dropped.json";
        ASSERT_TRUE(writeChromeTrace(path, {{&full, "a"}, {&other, "b"}}));
        const std::string json = readFile(path);
        std::remove(path.c_str());
        EXPECT_NE(json.find("\"otherData\":{\"dropped_events\":"
                            + std::to_string(k) + "}"),
                  std::string::npos)
            << json.substr(json.size() - 80);
    }
}

TEST(ChromeTrace, CanonicalDropsWallClockSpans)
{
    TraceBuffer t(16);
    t.instant("cwc.hit", TraceCat::Cwc, 0, 10);
    t.wallSpan("job.run", 0, 1234);
    const std::string path = "test_trace_canon.json";
    ASSERT_TRUE(writeChromeTrace(path, t, "lane", /*canonical=*/true));
    const std::string canon = readFile(path);
    ASSERT_TRUE(writeChromeTrace(path, t, "lane", /*canonical=*/false));
    const std::string full = readFile(path);
    std::remove(path.c_str());

    EXPECT_EQ(canon.find("job.run"), std::string::npos);
    EXPECT_NE(full.find("job.run"), std::string::npos);
    EXPECT_NE(canon.find("cwc.hit"), std::string::npos);
}

namespace
{

/** A cheap deterministic grid: each job emits events derived from its
 *  seed through the real JobContext::tracer plumbing. */
std::vector<JobSpec>
syntheticTracedJobs(int n)
{
    std::vector<JobSpec> jobs;
    for (int i = 0; i < n; ++i) {
        JobSpec spec;
        spec.key = "trace/" + std::to_string(i);
        spec.fn = [](const JobContext &ctx) {
            JobOutput out;
            out.sim.cycles = static_cast<Cycles>(ctx.seed % 1000);
            if (ctx.tracer && ctx.tracer->sampleWalk()) {
                for (int e = 0; e < 8; ++e)
                    ctx.tracer->instant(
                        "probe", TraceCat::Probe, 0,
                        static_cast<Cycles>(ctx.seed % 97 + e),
                        {{"way", e}});
            }
            return out;
        };
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

std::string
runTracedSweep(int workers, const std::string &path)
{
    SweepOptions opts;
    opts.jobs = workers;
    opts.progress = nullptr;
    opts.trace_capacity = 256;
    const SweepEngine engine(opts);
    const ResultSink sink = engine.run(syntheticTracedJobs(5));
    EXPECT_EQ(sink.okCount(), 5u);
    EXPECT_TRUE(sink.writeTrace(path, /*canonical=*/true));
    const std::string json = readFile(path);
    std::remove(path.c_str());
    return json;
}

} // namespace

TEST(ChromeTrace, SweepTraceIsWorkerCountInvariant)
{
    // The determinism contract: lanes sit at their submission index
    // and canonical export drops wall-clock spans, so 1 worker and 8
    // workers write byte-identical files.
    const std::string serial =
        runTracedSweep(1, "test_trace_j1.json");
    const std::string parallel =
        runTracedSweep(8, "test_trace_j8.json");
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"pid\":4"), std::string::npos);
    // The engine's deterministic job span survives canonical export.
    EXPECT_NE(serial.find("\"name\":\"job\""), std::string::npos);
    EXPECT_EQ(serial.find("job.queue"), std::string::npos);
}

TEST(ChromeTrace, TimedOutJobCarriesNoTrace)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = nullptr;
    opts.trace_capacity = 64;
    opts.timeout_ms = 50;
    std::vector<JobSpec> jobs;
    JobSpec spec;
    spec.key = "hang";
    spec.fn = [](const JobContext &) {
        std::this_thread::sleep_for(std::chrono::seconds(2));
        return JobOutput{};
    };
    jobs.push_back(std::move(spec));
    const SweepEngine engine(opts);
    const ResultSink sink = engine.run(jobs);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(sink.records()[0].status, JobStatus::TimedOut);
    // The detached runner still owns its buffer; the record must not.
    EXPECT_EQ(sink.records()[0].trace, nullptr);
    EXPECT_FALSE(sink.writeTrace("test_trace_none.json"));
    // Give the detached runner time to finish before test teardown.
    std::this_thread::sleep_for(std::chrono::seconds(2));
}

} // namespace necpt
