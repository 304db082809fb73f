#include "sim/config.hh"

#include "common/error.hh"
#include "common/log.hh"

namespace necpt
{

namespace
{

/** Common base: Table-2 memory system and TLBs, 6GB/8GB pools. */
ExperimentConfig
baseConfig(const std::string &name, WalkerKind walker, bool thp)
{
    ExperimentConfig cfg;
    cfg.name = name + (thp ? " THP" : "");
    cfg.walker = walker;
    cfg.system.guest_thp = thp;
    cfg.system.host_thp = thp;
    return cfg;
}

} // namespace

ExperimentConfig
makeConfig(ConfigId id)
{
    switch (id) {
      case ConfigId::Radix:
      case ConfigId::RadixThp: {
        auto cfg = baseConfig("Radix", WalkerKind::NativeRadix,
                              id == ConfigId::RadixThp);
        cfg.system.virtualized = false;
        cfg.system.guest_kind = PtKind::Radix;
        return cfg;
      }
      case ConfigId::Ecpt:
      case ConfigId::EcptThp: {
        auto cfg = baseConfig("ECPTs", WalkerKind::NativeEcpt,
                              id == ConfigId::EcptThp);
        cfg.system.virtualized = false;
        cfg.system.guest_kind = PtKind::Ecpt;
        return cfg;
      }
      case ConfigId::NestedRadix:
      case ConfigId::NestedRadixThp: {
        auto cfg = baseConfig("Nested Radix", WalkerKind::NestedRadix,
                              id == ConfigId::NestedRadixThp);
        cfg.system.guest_kind = PtKind::Radix;
        cfg.system.host_kind = PtKind::Radix;
        return cfg;
      }
      case ConfigId::NestedEcpt:
      case ConfigId::NestedEcptThp:
        return makeNestedEcptConfig(NestedEcptFeatures::advanced(),
                                    id == ConfigId::NestedEcptThp,
                                    "Nested ECPTs");
      case ConfigId::PlainNestedEcpt:
      case ConfigId::PlainNestedEcptThp:
        return makeNestedEcptConfig(NestedEcptFeatures::plain(),
                                    id == ConfigId::PlainNestedEcptThp,
                                    "Plain Nested ECPTs");
      case ConfigId::NestedHybrid:
      case ConfigId::NestedHybridThp: {
        auto cfg = baseConfig("Nested Hybrid", WalkerKind::NestedHybrid,
                              id == ConfigId::NestedHybridThp);
        cfg.system.guest_kind = PtKind::Radix;
        cfg.system.host_kind = PtKind::Ecpt;
        cfg.system.host_ecpt.has_pte_cwt = true; // rows 1-3 use it
        return cfg;
      }
      case ConfigId::AgilePagingIdeal:
      case ConfigId::AgilePagingIdealThp: {
        auto cfg = baseConfig("Agile Paging (ideal)",
                              WalkerKind::AgilePagingIdeal,
                              id == ConfigId::AgilePagingIdealThp);
        cfg.system.guest_kind = PtKind::Radix;
        cfg.system.host_kind = PtKind::Radix;
        return cfg;
      }
      case ConfigId::PomTlb:
      case ConfigId::PomTlbThp: {
        auto cfg = baseConfig("POM-TLB", WalkerKind::PomTlb,
                              id == ConfigId::PomTlbThp);
        cfg.system.guest_kind = PtKind::Radix;
        cfg.system.host_kind = PtKind::Radix;
        return cfg;
      }
      case ConfigId::FlatNested:
      case ConfigId::FlatNestedThp: {
        auto cfg = baseConfig("Flat Nested", WalkerKind::FlatNested,
                              id == ConfigId::FlatNestedThp);
        cfg.system.guest_kind = PtKind::Radix;
        cfg.system.host_kind = PtKind::Flat;
        return cfg;
      }
      case ConfigId::ShadowPaging:
      case ConfigId::ShadowPagingThp: {
        auto cfg = baseConfig("Shadow Paging", WalkerKind::ShadowPaging,
                              id == ConfigId::ShadowPagingThp);
        cfg.system.guest_kind = PtKind::Radix;
        cfg.system.host_kind = PtKind::Radix;
        return cfg;
      }
      case ConfigId::NestedHpt: {
        // Classic single HPTs cannot express multiple page sizes
        // (Section 2.2), so this configuration is 4KB-only.
        auto cfg = baseConfig("Nested HPT", WalkerKind::NestedHpt,
                              false);
        cfg.system.guest_kind = PtKind::Hpt;
        cfg.system.host_kind = PtKind::Hpt;
        return cfg;
      }
    }
    throw ConfigError("unknown ConfigId");
}

ExperimentConfig
makeNestedEcptConfig(const NestedEcptFeatures &features, bool thp,
                     const std::string &name)
{
    ExperimentConfig cfg;
    cfg.name = name + (thp ? " THP" : "");
    cfg.walker = WalkerKind::NestedEcpt;
    cfg.features = features;
    cfg.system.guest_thp = thp;
    cfg.system.host_thp = thp;
    cfg.system.guest_kind = PtKind::Ecpt;
    cfg.system.host_kind = PtKind::Ecpt;
    // The PTE hCWT exists only when some technique consumes it.
    cfg.system.host_ecpt.has_pte_cwt =
        features.step1_pte_hcwt || features.step3_adaptive_pte;
    return cfg;
}

std::vector<ConfigId>
table1Configs()
{
    return {
        ConfigId::Radix,          ConfigId::RadixThp,
        ConfigId::Ecpt,           ConfigId::EcptThp,
        ConfigId::NestedRadix,    ConfigId::NestedRadixThp,
        ConfigId::NestedEcpt,     ConfigId::NestedEcptThp,
        ConfigId::NestedHybrid,   ConfigId::NestedHybridThp,
    };
}

std::string
configName(ConfigId id)
{
    return makeConfig(id).name;
}

double
appGuestThpCoverage(const std::string &app)
{
    if (app == "GUPS")
        return 0.995;
    if (app == "SysBench")
        return 0.98;
    if (app == "MUMmer")
        return 0.95;
    // Graph kernels: fragmented heaps keep substantial 4KB residue.
    return 0.45;
}

double
appHostThpCoverage(const std::string &app)
{
    // The 64GB VMs stress the host allocator hardest (Section 10:
    // "even finding the more modest 2MB-sized pages ... is often
    // hard").
    if (app == "GUPS")
        return 0.60;
    if (app == "SysBench")
        return 0.65;
    return 0.95;
}

} // namespace necpt
