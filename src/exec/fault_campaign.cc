#include "exec/fault_campaign.hh"

#include <cstdio>
#include <map>

#include "common/error.hh"
#include "workloads/trace.hh"

namespace necpt
{

namespace
{

/** RAII removal of a forged trace so a throwing load cleans up. */
struct FileRemover
{
    std::string path;
    ~FileRemover() { std::remove(path.c_str()); }
};

/** Write raw bytes or throw ResourceExhausted naming the file. */
void
writeAll(const std::string &path, const void *data, std::size_t bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw ResourceExhausted(
            strfmt("cannot create forged trace '%s'", path.c_str()));
    const bool ok = std::fwrite(data, 1, bytes, f) == bytes;
    std::fclose(f);
    if (!ok)
        throw ResourceExhausted(
            strfmt("short write forging trace '%s'", path.c_str()));
}

JobSpec
corruptTraceJob(int replication)
{
    JobSpec spec;
    spec.key = "faults/s" + std::to_string(replication) + "/trace";
    spec.fn = [](const JobContext &ctx) -> JobOutput {
        // Seed-unique name: concurrent replications never collide.
        const std::string path =
            "necpt_forged_" + std::to_string(ctx.seed) + ".trc";
        const std::string mode = writeCorruptTrace(path, ctx.faultSeed());
        FileRemover remover{path};
        TraceWorkload wl(path); // must throw TraceError
        // Reaching here means the loader accepted a corrupt file.
        throw InvariantViolation(strfmt(
            "trace loader accepted a '%s'-corrupted file (%llu records)",
            mode.c_str(), (unsigned long long)wl.recordCount()));
    };
    return spec;
}

} // namespace

std::string
writeCorruptTrace(const std::string &path, std::uint64_t seed)
{
    // 16-byte records after {magic, count, vmas} + vmas*24 bytes, per
    // the format comment in workloads/trace.hh.
    const std::uint64_t vma[3] = {0x10000, 2ULL << 20, 1};
    std::uint8_t record[16] = {};

    switch (seed % 4) {
    case 0: { // header cut mid-field
        writeAll(path, &trace_file_magic, 8);
        return "truncated-header";
    }
    case 1: { // right shape, wrong magic
        const std::uint64_t header[3] = {0xBAD0'5EED'BAD0'5EEDULL, 4, 0};
        writeAll(path, header, sizeof(header));
        return "bad-magic";
    }
    case 2: { // capture cut mid-record: 3 stray bytes at the tail
        std::vector<std::uint8_t> bytes;
        const std::uint64_t header[3] = {trace_file_magic, 2, 1};
        bytes.insert(bytes.end(), (const std::uint8_t *)header,
                     (const std::uint8_t *)header + sizeof(header));
        bytes.insert(bytes.end(), (const std::uint8_t *)vma,
                     (const std::uint8_t *)vma + sizeof(vma));
        bytes.insert(bytes.end(), record, record + sizeof(record));
        bytes.insert(bytes.end(), record, record + 3);
        writeAll(path, bytes.data(), bytes.size());
        return "partial-record";
    }
    default: { // header promises more records than the file holds
        std::vector<std::uint8_t> bytes;
        const std::uint64_t header[3] = {trace_file_magic, 8, 1};
        bytes.insert(bytes.end(), (const std::uint8_t *)header,
                     (const std::uint8_t *)header + sizeof(header));
        bytes.insert(bytes.end(), (const std::uint8_t *)vma,
                     (const std::uint8_t *)vma + sizeof(vma));
        for (int i = 0; i < 4; ++i)
            bytes.insert(bytes.end(), record, record + sizeof(record));
        writeAll(path, bytes.data(), bytes.size());
        return "count-mismatch";
    }
    }
}

std::vector<JobSpec>
makeFaultCampaignJobs(const SweepGrid &grid, const SimParams &params,
                      const FaultCampaignOptions &copts)
{
    SimParams faulted = params;
    faulted.faults = copts.spec;
    // fault_seed stays 0: simJob derives it per attempt from the job
    // seed, which the engine derives from the re-written key — so each
    // replication draws independent fault streams for free.

    std::vector<JobSpec> jobs;
    for (int k = 0; k < copts.fault_seeds; ++k) {
        const std::string prefix = "faults/s" + std::to_string(k) + "/";
        for (JobSpec &spec : grid.make_jobs(faulted)) {
            spec.key = prefix + spec.key;
            jobs.push_back(std::move(spec));
        }
        if (copts.spec.trace_corruption)
            jobs.push_back(corruptTraceJob(k));
    }
    return jobs;
}

void
printFaultCampaignSummary(const ResultSink &sink,
                          const FaultCampaignOptions &copts)
{
    std::map<std::string, std::size_t> by_kind;
    std::size_t attempts = 0, retried = 0;
    for (const JobRecord &r : sink.records()) {
        attempts += r.attempts;
        retried += r.attempts > 1;
        if (r.status != JobStatus::Ok)
            ++by_kind[r.error_kind.empty() ? "?" : r.error_kind];
    }

    Table table{strfmt("Fault campaign: %s under %d fault seeds",
                       faultSpecToString(copts.spec).c_str(),
                       copts.fault_seeds),
                {"records"},
                {{"count", 0}},
                {},
                {"every fault surfaced as a typed record; the process "
                 "never aborted."}};
    auto add = [&table](const std::string &label, std::size_t n) {
        table.rows.push_back({{label}, {static_cast<double>(n)}});
    };
    add("jobs", sink.size());
    add("ok", sink.okCount());
    add("surfaced faults", sink.failedCount());
    for (const auto &[kind, n] : by_kind)
        add("  " + kind, n);
    add("attempts", attempts);
    add("jobs retried", retried);
    printTables({table});
}

} // namespace necpt
