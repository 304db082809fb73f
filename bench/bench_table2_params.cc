/**
 * @file
 * Table 2: the architectural parameters the simulator models.
 */

#include <cstdio>

#include "mem/hierarchy.hh"
#include "mmu/tlb.hh"
#include "pt/ecpt.hh"
#include "sim/experiment.hh"

using namespace necpt;

int
main()
{
    printBanner("Architectural parameters used in the evaluation",
                "Table 2");

    const MemHierarchyConfig mem;
    std::printf("Processor / memory hierarchy\n");
    std::printf("  %-28s %lluKB, %d-way, %llu cyc RT, %d MSHRs\n",
                "L1 cache",
                (unsigned long long)(mem.l1.size_bytes >> 10),
                mem.l1.assoc, (unsigned long long)mem.l1.latency,
                mem.l1.mshrs);
    std::printf("  %-28s %lluKB, %d-way, %llu cyc RT, %d MSHRs\n",
                "L2 cache",
                (unsigned long long)(mem.l2.size_bytes >> 10),
                mem.l2.assoc, (unsigned long long)mem.l2.latency,
                mem.l2.mshrs);
    std::printf("  %-28s %lluMB slice, %d-way, %llu cyc RT, %d MSHRs\n",
                "L3 cache",
                (unsigned long long)(mem.l3.size_bytes >> 20),
                mem.l3.assoc, (unsigned long long)mem.l3.latency,
                mem.l3.mshrs);
    std::printf("  %-28s %d channels x %d banks, tRP-tCAS-tRCD-tRAS "
                "%d-%d-%d-%d, 1GHz DDR\n",
                "Main memory (per-core share)", mem.dram.channels,
                mem.dram.banks_per_channel, mem.dram.t_rp,
                mem.dram.t_cas, mem.dram.t_rcd, mem.dram.t_ras);
    std::printf("  %-28s %d parallel requests per wave\n",
                "MMU issue width", mem.mmu_issue_width);

    const TlbConfig tlb;
    std::printf("\nPer-core MMU (TLBs)\n");
    const char *size_names[] = {"4KB", "2MB", "1GB"};
    for (int s = 0; s < num_page_sizes; ++s)
        std::printf("  L1 DTLB (%s pages)          %zu entries, "
                    "%zu-way\n",
                    size_names[s], tlb.l1[s].entries,
                    tlb.l1[s].ways ? tlb.l1[s].ways : tlb.l1[s].entries);
    for (int s = 0; s < num_page_sizes; ++s)
        std::printf("  L2 DTLB (%s pages)          %zu entries, "
                    "%zu-way\n",
                    size_names[s], tlb.l2[s].entries,
                    tlb.l2[s].ways ? tlb.l2[s].ways : tlb.l2[s].entries);

    std::printf("\nRadix page table parameters\n");
    std::printf("  %-28s 24 entries, FA, 4 cyc RT\n", "Nested TLB");
    std::printf("  %-28s 3 levels x 32 entries, FA, 4 cyc RT\n",
                "Page Walk Cache (PWC)");
    std::printf("  %-28s levels x 16 entries, FA, 4 cyc RT\n",
                "Nested PWC (NPWC)");

    const EcptConfig ecpt;
    std::printf("\nElastic Cuckoo Page Table parameters\n");
    std::printf("  %-28s %llu entries x %d ways\n",
                "Initial PTE g/hECPT",
                (unsigned long long)ecpt.initial_slots[0], ecpt.ways);
    std::printf("  %-28s %llu entries x %d ways\n",
                "Initial PMD g/hECPT",
                (unsigned long long)ecpt.initial_slots[1], ecpt.ways);
    std::printf("  %-28s %llu entries x %d ways\n",
                "Initial PUD g/hECPT",
                (unsigned long long)ecpt.initial_slots[2], ecpt.ways);
    std::printf("  %-28s %llu entries x %d ways\n", "Initial PTE hCWT",
                (unsigned long long)ecpt.cwt_initial_slots[0],
                ecpt.cwt_ways);
    std::printf("  %-28s %llu entries x %d ways\n",
                "Initial PMD g/hCWT",
                (unsigned long long)ecpt.cwt_initial_slots[1],
                ecpt.cwt_ways);
    std::printf("  %-28s %llu entries x %d ways\n",
                "Initial PUD g/hCWT",
                (unsigned long long)ecpt.cwt_initial_slots[2],
                ecpt.cwt_ways);
    std::printf("  %-28s 16 PMD + 2 PUD entries, FA, 4 cyc RT\n",
                "gCWC");
    std::printf("  %-28s 4 PTE entries, FA, 4 cyc RT\n",
                "hCWC (Step 1)");
    std::printf("  %-28s 16 PTE + 4 PMD + 2 PUD, FA, 4 cyc RT\n",
                "hCWC (Step 3)");
    std::printf("  %-28s 10 entries, FA, 4 cyc RT\n",
                "Shortcut Trans. Cache (STC)");
    std::printf("  %-28s CRC, 2-cycle latency\n", "Hash functions");
    return 0;
}
