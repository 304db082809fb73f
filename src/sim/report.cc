#include "sim/report.hh"

#include <sstream>

#include "common/json.hh"

namespace necpt
{

namespace
{

/** @p in as a quoted CSV field (RFC 4180: a quote is doubled). */
std::string
csvQuote(const std::string &in)
{
    std::string out = "\"";
    for (const char c : in) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    return out + '"';
}

} // namespace

void
writeCsvHeader(std::FILE *out)
{
    std::fprintf(out,
                 "config,app,instructions,cycles,mmu_busy_cycles,"
                 "l1_tlb_misses,l2_tlb_misses,walks,mmu_requests,"
                 "l2_mpki,l3_mpki,mmu_rpki,avg_mshrs,max_mshrs,"
                 "dram_row_hit_rate,"
                 "guest_direct,guest_size,guest_partial,guest_complete,"
                 "host_direct,host_size,host_partial,host_complete,"
                 "step1_avg,step2_avg,step3_avg,"
                 "stc_hit_rate,guest_structure_bytes,"
                 "host_structure_bytes,pte_bytes_total\n");
}

void
writeCsvRow(std::FILE *out, const SimResult &r)
{
    std::fprintf(
        out,
        "%s,%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%.4f,%.4f,%.4f,%.3f,%llu,%.4f,"
        "%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,"
        "%.3f,%.3f,%.3f,%.4f,%llu,%llu,%llu\n",
        csvQuote(r.config).c_str(), csvQuote(r.app).c_str(),
        (unsigned long long)r.instructions, (unsigned long long)r.cycles,
        (unsigned long long)r.mmu_busy_cycles,
        (unsigned long long)r.l1_tlb_misses,
        (unsigned long long)r.l2_tlb_misses, (unsigned long long)r.walks,
        (unsigned long long)r.mmu_requests, r.l2_mpki, r.l3_mpki,
        r.mmu_rpki, r.avg_mshrs, (unsigned long long)r.max_mshrs,
        r.dram_row_hit_rate, r.guest_kind_frac[0], r.guest_kind_frac[1],
        r.guest_kind_frac[2], r.guest_kind_frac[3], r.host_kind_frac[0],
        r.host_kind_frac[1], r.host_kind_frac[2], r.host_kind_frac[3],
        r.step_avg[0], r.step_avg[1], r.step_avg[2], r.stc_hit_rate,
        (unsigned long long)r.guest_structure_bytes,
        (unsigned long long)r.host_structure_bytes,
        (unsigned long long)r.pte_bytes_total);
}

std::string
toJson(const SimResult &r, bool with_host_time)
{
    std::ostringstream os;
    os << "{";
    os << "\"config\":\"" << jsonEscape(r.config) << "\",";
    os << "\"app\":\"" << jsonEscape(r.app) << "\",";
    os << "\"instructions\":" << r.instructions << ",";
    os << "\"cycles\":" << r.cycles << ",";
    os << "\"mmu_busy_cycles\":" << r.mmu_busy_cycles << ",";
    os << "\"l2_tlb_misses\":" << r.l2_tlb_misses << ",";
    os << "\"walks\":" << r.walks << ",";
    os << "\"mmu_requests\":" << r.mmu_requests << ",";
    os << "\"l2_mpki\":" << jsonNumber(r.l2_mpki) << ",";
    os << "\"l3_mpki\":" << jsonNumber(r.l3_mpki) << ",";
    os << "\"mmu_rpki\":" << jsonNumber(r.mmu_rpki) << ",";
    auto array = [&os](const char *name, const double *v, int n) {
        os << "\"" << name << "\":[";
        for (int i = 0; i < n; ++i)
            os << (i ? "," : "") << jsonNumber(v[i]);
        os << "],";
    };
    array("step_avg", r.step_avg, 3);
    array("guest_kind", r.guest_kind_frac, 4);
    array("host_kind", r.host_kind_frac, 4);
    os << "\"stc_hit_rate\":" << jsonNumber(r.stc_hit_rate) << ",";
    os << "\"guest_structure_bytes\":" << r.guest_structure_bytes
       << ",";
    os << "\"host_structure_bytes\":" << r.host_structure_bytes << ",";
    os << "\"pte_bytes_total\":" << r.pte_bytes_total;
    if (with_host_time)
        os << ",\"host_time\":" << toJson(r.host_time);
    os << "}";
    return os.str();
}

std::string
toJson(const HostPhaseTimes &t)
{
    std::ostringstream os;
    os << "{\"build_s\":" << jsonNumber(t.build_s)
       << ",\"prefault_s\":" << jsonNumber(t.prefault_s)
       << ",\"warmup_s\":" << jsonNumber(t.warmup_s)
       << ",\"measure_s\":" << jsonNumber(t.measure_s) << "}";
    return os.str();
}

bool
writeCsvFile(const std::string &path,
             const std::vector<SimResult> &results)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    writeCsvHeader(out);
    for (const SimResult &r : results)
        writeCsvRow(out, r);
    std::fclose(out);
    return true;
}

} // namespace necpt
