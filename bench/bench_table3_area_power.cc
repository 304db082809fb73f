/**
 * @file
 * Table 3: area and power of the MMU hardware caches (CactiLite at
 * 22nm, standing in for Cacti 6.5).
 */

#include <cstdio>

#include "sim/cacti_lite.hh"
#include "sim/experiment.hh"

using namespace necpt;

namespace
{

void
row(const char *name, const std::vector<SramStructure> &structures,
    double paper_area, double paper_power)
{
    const AreaPower ap = CactiLite::estimate(structures);
    std::printf("%-16s %6llu B   %6.3f mm^2 (paper %.2f)   "
                "%5.2f mW (paper %.1f)\n",
                name, (unsigned long long)totalBytes(structures),
                ap.area_mm2, paper_area, ap.power_mw, paper_power);
}

} // namespace

int
main()
{
    printBanner("Area and power of the MMU hardware caches", "Table 3");

    std::printf("%-16s %-10s %-26s %s\n", "Configuration", "Size",
                "Area", "Power");
    row("Nested Radix", nestedRadixMmuStructures(), 0.01, 2.9);
    row("Nested ECPTs", nestedEcptMmuStructures(), 0.03, 5.2);
    row("Nested Hybrid", nestedHybridMmuStructures(), 0.02, 2.8);

    std::printf("\nPer-structure breakdown (Nested ECPTs):\n");
    for (const SramStructure &s : nestedEcptMmuStructures()) {
        const AreaPower ap = CactiLite::estimate(s);
        std::printf("  %-34s %5llu B  %d port(s)  %6.4f mm^2  "
                    "%5.2f mW\n",
                    s.name.c_str(), (unsigned long long)s.bytes,
                    s.ports, ap.area_mm2, ap.power_mw);
    }
    return 0;
}
