/**
 * @file
 * Nested hashed-page-table walker — the Figure-3 background design
 * (Section 2.2, following Yaniv & Tsafrir's nested HPTs).
 *
 * With a single open-addressed HPT for guest and host, a nested
 * translation needs only three memory references *in the collision-
 * free ideal*: host HPT (locate the gPTE), guest HPT (read the gPTE),
 * host HPT (translate the data gPA). Collision chains make each step
 * a sequential probe sequence, and every *guest* probe's slot address
 * is guest-physical and needs its own host translation — the
 * shortcomings that motivate elastic cuckoo tables (Section 2.2).
 */

#ifndef NECPT_WALK_NESTED_HPT_HH
#define NECPT_WALK_NESTED_HPT_HH

#include "walk/walker.hh"

namespace necpt
{

/**
 * Walker for the classic nested-HPT organization (4KB pages only).
 */
class NestedHptWalker : public Walker
{
  public:
    NestedHptWalker(NestedSystem &system, MemoryHierarchy &memory,
                    int core_id)
        : Walker(system, memory, core_id)
    {}

    WalkResult translate(Addr gva, Cycles now) override;

    std::string name() const override { return "NestedHPT"; }

  private:
    /**
     * Sequentially probe the host HPT chain for @p gpa, advancing
     * @p t. @return the host translation.
     */
    Translation hostChain(Addr gpa, Cycles &t, int &accesses);

    std::vector<Addr> probe_buf;
};

} // namespace necpt

#endif // NECPT_WALK_NESTED_HPT_HH
