#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/fault.hh"
#include "common/log.hh"

namespace necpt
{

MemoryHierarchy::MemoryHierarchy(const MemHierarchyConfig &config, int cores)
    : cfg(config), dram_(config.dram)
{
    NECPT_ASSERT(cores >= 1);
    for (int i = 0; i < cores; ++i) {
        l1s.push_back(std::make_unique<SetAssocCache>(cfg.l1));
        l2s.push_back(std::make_unique<SetAssocCache>(cfg.l2));
    }
    l3_ = std::make_unique<SetAssocCache>(cfg.l3);
    live_by_core.resize(static_cast<std::size_t>(cores));
    free_by_core.resize(static_cast<std::size_t>(cores));
}

namespace
{

const char *
memLevelName(MemLevel level)
{
    switch (level) {
    case MemLevel::L1: return "l1";
    case MemLevel::L2: return "l2";
    case MemLevel::L3: return "l3";
    case MemLevel::Dram: return "dram";
    }
    return "?";
}

} // namespace

AccessResult
MemoryHierarchy::access(Addr addr, Cycles now, Requester requester,
                        int core, MemBreakdown *bd)
{
    const bool demand = requester == Requester::Core;
    if (demand && l1s[core]->access(addr, requester)) {
        if (bd)
            bd->cache = cfg.l1.latency;
        return {cfg.l1.latency, MemLevel::L1};
    }

    if (l2s[core]->access(addr, requester)) {
        if (demand)
            l1s[core]->fill(addr);
        if (bd)
            bd->cache = cfg.l2.latency;
        return {cfg.l2.latency, MemLevel::L2};
    }

    if (l3_->access(addr, requester)) {
        l2s[core]->fill(addr);
        if (demand)
            l1s[core]->fill(addr);
        if (bd)
            bd->cache = cfg.l3.latency;
        return {cfg.l3.latency, MemLevel::L3};
    }

    DramBreakdown dram_bd;
    Cycles dram_lat = dram_.access(addr, now + cfg.l3.latency,
                                   bd ? &dram_bd : nullptr);
    Cycles spike = 0;
    // Injected latency spike: the access completes correctly, just
    // late — a graceful degradation every walker must tolerate.
    if (fault_plan) {
        spike = fault_plan->memSpikeCycles();
        dram_lat += spike;
        if (spike > 0 && tracer_)
            tracer_->instant(
                "fault.mem_spike", TraceCat::Fault, trace_pt_tid, now,
                {{"cycles", static_cast<std::int64_t>(spike)},
                 {"addr", static_cast<std::int64_t>(addr)}});
    }
    l3_->fill(addr);
    l2s[core]->fill(addr);
    if (demand)
        l1s[core]->fill(addr);
    if (bd) {
        bd->cache = cfg.l3.latency;
        bd->dram_queue = dram_bd.queue;
        bd->dram_service = dram_bd.service;
        bd->dram_bus = dram_bd.bus;
        bd->fault = spike;
    }
    return {cfg.l3.latency + dram_lat, MemLevel::Dram};
}

BatchResult
MemoryHierarchy::batchAccess(AddrSpan addrs, Cycles now, int core,
                             bool traced)
{
    BatchResult result;
    if (addrs.empty())
        return result;
    auto capture = [&result](const BatchResult &batch, Cycles) {
        result = batch;
    };
    issueBatch(addrs, now, core, capture, traced);
    drainAll();
    return result;
}

void
MemoryHierarchy::issueBatch(AddrSpan addrs, Cycles now, int core,
                            TxnCallback cb, bool traced)
{
    std::vector<std::uint32_t> &free_list =
        free_by_core[static_cast<std::size_t>(core)];
    std::uint32_t slot;
    if (!free_list.empty()) {
        slot = free_list.back();
        free_list.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    PendingTxn &txn = slots[slot];
    txn.core = core;
    txn.issued = now;
    txn.completes = now;
    txn.batch = BatchResult{};
    txn.miss_done.clear();
    txn.cb = cb;
    BatchResult &result = txn.batch;

    // Deduplicate by cache line: parallel probes of nearby table slots
    // often share a line (eight PTEs per tagged entry, Section 2.3).
    std::vector<Addr> &lines = lines_scratch;
    lines.clear();
    for (Addr a : addrs) {
        const Addr line = lineAddr(a);
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }

    result.requests = static_cast<int>(lines.size());

    // Outstanding-miss completion times, bounded by L2 MSHRs. Seeded
    // with the miss intervals still held by this core's in-flight
    // transactions: a batch issued while another is pending queues
    // behind the MSHRs it occupies. (The synchronous batchAccess()
    // path drains between batches, so its seed is always empty and
    // the legacy single-batch timing is reproduced exactly.)
    std::vector<Cycles> &outstanding = outstanding_scratch;
    outstanding.clear();
    for (std::uint32_t s : live_by_core[static_cast<std::size_t>(core)])
        for (Cycles d : slots[s].miss_done)
            outstanding.push_back(d);
    const int mshrs = cfg.l2.mshrs;
    Cycles finish = now;

    for (std::size_t i = 0; i < lines.size(); ++i) {
        // Issue in waves of mmu_issue_width, one cycle per wave.
        Cycles issue = now + static_cast<Cycles>(i / cfg.mmu_issue_width);

        // Retire any misses that completed before this issue slot.
        std::erase_if(outstanding,
                      [issue](Cycles c) { return c <= issue; });

        if (static_cast<int>(outstanding.size()) >= mshrs) {
            // No MSHR free: wait for the earliest completion.
            const auto earliest =
                *std::min_element(outstanding.begin(), outstanding.end());
            issue = std::max(issue, earliest);
            std::erase_if(outstanding,
                          [issue](Cycles c) { return c <= issue; });
        }

        MemBreakdown line_bd;
        const AccessResult r =
            access(lines[i], issue, Requester::Mmu, core, &line_bd);
        const Cycles done = issue + r.latency;
        if (done > finish) {
            // This line now defines the batch's completion cycle, so
            // its decomposition — plus whatever it waited before its
            // access began — becomes the batch's. (Strict > matches
            // the max below: ties keep the earlier line.)
            const Cycles wave =
                static_cast<Cycles>(i / cfg.mmu_issue_width);
            line_bd.issue = wave;
            line_bd.mshr = issue - (now + wave);
            result.bd = line_bd;
        }
        finish = std::max(finish, done);

        // Per-request resolution events for sampled walks only.
        if (traced && tracer_)
            tracer_->span("mem.req", TraceCat::Mem,
                          static_cast<std::uint32_t>(core), issue,
                          r.latency,
                          {{"level", 0, memLevelName(r.level)},
                           {"line", static_cast<std::int64_t>(
                                        lines[i])}});

        if (r.level != MemLevel::L2) {
            ++result.l2_misses;
            outstanding.push_back(done);
            txn.miss_done.push_back(done);
            mshr_max = std::max(
                mshr_max,
                static_cast<std::uint64_t>(outstanding.size()));

            // Time-weighted MSHR characterization (Section 9.3): this
            // line holds an MSHR for [issue, done).
            mshr_busy_cycles += done - issue;
            if (!mshr_window_open) {
                mshr_window_first = issue;
                mshr_window_open = true;
            } else {
                mshr_window_first = std::min(mshr_window_first, issue);
            }
            mshr_window_last = std::max(mshr_window_last, done);
        }
        if (r.level == MemLevel::Dram)
            ++result.l3_misses;
    }

    result.latency = finish - now;
    txn.completes = finish;
    live_by_core[static_cast<std::size_t>(core)].push_back(slot);
    completions.push_back(CompletionKey{finish, next_issued++, slot});
    std::push_heap(completions.begin(), completions.end(),
                   CompletesLater{});
}

Cycles
MemoryHierarchy::nextCompletionCycle() const
{
    NECPT_ASSERT(!completions.empty());
    return completions.front().completes;
}

void
MemoryHierarchy::drainUntil(Cycles upto)
{
    // The completion heap pops in (completes, issue order) — the same
    // canonical order the old scanning implementation selected — and
    // transactions a callback issues land on the heap mid-loop, so
    // they drain in this very call when due by @p upto.
    while (!completions.empty()
           && completions.front().completes <= upto) {
        std::pop_heap(completions.begin(), completions.end(),
                      CompletesLater{});
        const CompletionKey key = completions.back();
        completions.pop_back();
        PendingTxn &txn = slots[key.slot];
        // Retire before invoking: the callback may issue follow-up
        // transactions that must not see this one as live (its MSHR
        // intervals are released) and may reuse the freed slot — so
        // copy out what the callback needs first.
        const TxnCallback cb = txn.cb;
        const BatchResult batch = txn.batch;
        const Cycles completes = txn.completes;
        txn.cb = nullptr;
        txn.miss_done.clear();
        std::vector<std::uint32_t> &live =
            live_by_core[static_cast<std::size_t>(txn.core)];
        live.erase(std::find(live.begin(), live.end(), key.slot));
        // Recycling keeps miss_done's capacity, which is what makes
        // the steady-state issue/drain loop allocation-free.
        free_by_core[static_cast<std::size_t>(txn.core)].push_back(
            key.slot);
        if (cb)
            cb(batch, completes);
    }
}

void
MemoryHierarchy::drainAll()
{
    while (!completions.empty())
        drainUntil(nextCompletionCycle());
}

double
MemoryHierarchy::avgMshrsInUse() const
{
    if (!mshr_window_open || mshr_window_last <= mshr_window_first)
        return 0.0;
    return static_cast<double>(mshr_busy_cycles)
        / static_cast<double>(mshr_window_last - mshr_window_first);
}

void
MemoryHierarchy::registerMetrics(MetricsRegistry &reg,
                                 const std::string &prefix) const
{
    const int cores = numCores();
    for (int c = 0; c < cores; ++c) {
        const std::string core_part =
            cores > 1 ? ".core" + std::to_string(c) : "";
        reg.addHitMiss(prefix + "mem.l1" + core_part + ".demand",
                       &l1(c).stats(Requester::Core));
        reg.addHitMiss(prefix + "mem.l2" + core_part + ".demand",
                       &l2(c).stats(Requester::Core));
        reg.addHitMiss(prefix + "mem.l2" + core_part + ".mmu",
                       &l2(c).stats(Requester::Mmu));
    }
    reg.addHitMiss(prefix + "mem.l3.demand",
                   &l3().stats(Requester::Core));
    reg.addHitMiss(prefix + "mem.l3.mmu", &l3().stats(Requester::Mmu));

    const DramModel *d = &dram_;
    reg.addCounter(prefix + "dram.reads",
                   [d] { return d->numAccesses(); },
                   "DRAM line fetches (demand + MMU)");
    reg.addValue(prefix + "dram.row_hitrate",
                 [d] { return d->rowHitRate(); });

    reg.addValue(prefix + "mem.mshr.avg_peak",
                 [this] { return avgMshrsInUse(); },
                 "time-weighted MSHR occupancy (Section 9.3)");
    reg.addCounter(prefix + "mem.mshr.max",
                   [this] { return maxMshrsInUse(); });
    reg.addCounter(prefix + "mem.mshr.busy_cycles",
                   [this] { return mshrBusyCycles(); },
                   "MSHR occupancy integrated over time (miss-cycles)");
}

void
MemoryHierarchy::resetStats()
{
    for (auto &c : l1s)
        c->resetStats();
    for (auto &c : l2s)
        c->resetStats();
    l3_->resetStats();
    dram_.resetStats();
    mshr_busy_cycles = 0;
    mshr_window_first = 0;
    mshr_window_last = 0;
    mshr_window_open = false;
    mshr_max = 0;
}

} // namespace necpt
