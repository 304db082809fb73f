/**
 * @file
 * Experiment configurations: the Table-1 page-table architectures (and
 * the Section-9.6 baselines), each mapping to a SystemConfig plus a
 * walker selection, with the Table-2 machine parameters.
 */

#ifndef NECPT_SIM_CONFIG_HH
#define NECPT_SIM_CONFIG_HH

#include <string>
#include <vector>

#include "mem/hierarchy.hh"
#include "mmu/tlb.hh"
#include "os/system.hh"
#include "walk/nested_ecpt.hh"

namespace necpt
{

/** Which walk state machine services L2-TLB misses. */
enum class WalkerKind
{
    NativeRadix,
    NestedRadix,
    NativeEcpt,
    NestedEcpt,
    NestedHybrid,
    AgilePagingIdeal,
    PomTlb,
    FlatNested,
    ShadowPaging,
    NestedHpt,
};

/** One evaluated configuration (a Table-1 row or a 9.6 baseline). */
struct ExperimentConfig
{
    std::string name;
    WalkerKind walker = WalkerKind::NestedRadix;
    NestedEcptFeatures features = NestedEcptFeatures::advanced();
    SystemConfig system;
    MemHierarchyConfig memory;
    TlbConfig tlb;
};

/** The Table-1 configuration identifiers. */
enum class ConfigId
{
    Radix,
    RadixThp,
    Ecpt,
    EcptThp,
    NestedRadix,
    NestedRadixThp,
    NestedEcpt,
    NestedEcptThp,
    NestedHybrid,
    NestedHybridThp,
    // Design-space / baseline extras:
    PlainNestedEcpt,
    PlainNestedEcptThp,
    AgilePagingIdeal,
    AgilePagingIdealThp,
    PomTlb,
    PomTlbThp,
    FlatNested,
    FlatNestedThp,
    ShadowPaging,
    ShadowPagingThp,
    NestedHpt, //!< classic nested HPT (Section 2.2; 4KB pages only)
};

/** Build the full ExperimentConfig for a Table-1 (or baseline) row. */
ExperimentConfig makeConfig(ConfigId id);

/** Variant of Nested ECPT with an explicit feature subset (Figure 9
 *  technique breakdown). */
ExperimentConfig makeNestedEcptConfig(const NestedEcptFeatures &features,
                                      bool thp, const std::string &name);

/** All Table-1 rows, paper order. */
std::vector<ConfigId> table1Configs();

/** Short printable name of a ConfigId. */
std::string configName(ConfigId id);

/**
 * Per-application guest THP coverage: how much of the footprint can be
 * backed by 2MB pages when THP is enabled. GUPS/SysBench cover nearly
 * everything (Section 9.1), MUMmer almost everything (Figure 14), the
 * graph kernels considerably less.
 */
double appGuestThpCoverage(const std::string &app);

/**
 * Per-application *host* THP coverage: hypervisors hosting very large
 * VMs (GUPS/SysBench are 64GB in Table 4) fight much harder for 2MB
 * host allocations, leaving a bigger 4KB-backed residue — the source
 * of the low Step-3 PTE hit rates Figure 12 shows for exactly those
 * two applications.
 */
double appHostThpCoverage(const std::string &app);

} // namespace necpt

#endif // NECPT_SIM_CONFIG_HH
