/**
 * @file
 * Table 1: the modeled page-table architecture configurations.
 */

#include <cstdio>

#include "sim/config.hh"
#include "sim/experiment.hh"

using namespace necpt;

namespace
{

const char *
kindName(PtKind kind)
{
    switch (kind) {
      case PtKind::Radix: return "radix";
      case PtKind::Ecpt: return "ECPT";
      case PtKind::Flat: return "flat";
      case PtKind::Hpt: return "HPT";
    }
    return "?";
}

} // namespace

int
main()
{
    printBanner("Modeled page table architecture configurations",
                "Table 1");

    std::printf("%-22s %-8s %-7s %-7s %s\n", "Configuration", "Nested",
                "Guest", "Host", "Pages");
    for (const ConfigId id : table1Configs()) {
        const ExperimentConfig cfg = makeConfig(id);
        std::printf("%-22s %-8s %-7s %-7s %s\n", cfg.name.c_str(),
                    cfg.system.virtualized ? "yes" : "no",
                    kindName(cfg.system.guest_kind),
                    cfg.system.virtualized
                        ? kindName(cfg.system.host_kind) : "-",
                    cfg.system.guest_thp ? "4KB + 2MB (THP)" : "4KB only");
    }

    std::printf("\nSection 9.6 baselines:\n");
    for (const ConfigId id :
         {ConfigId::PlainNestedEcptThp, ConfigId::AgilePagingIdealThp,
          ConfigId::PomTlbThp, ConfigId::FlatNestedThp,
          ConfigId::ShadowPagingThp, ConfigId::NestedHpt}) {
        const ExperimentConfig cfg = makeConfig(id);
        std::printf("%-22s guest=%s host=%s\n", cfg.name.c_str(),
                    kindName(cfg.system.guest_kind),
                    kindName(cfg.system.host_kind));
    }
    return 0;
}
