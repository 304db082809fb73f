/**
 * @file
 * GraphBIG-style graph-analytics workloads (Table 4) over a synthetic
 * power-law CSR graph.
 *
 * The graph is laid out the way GraphBIG lays out its in-memory CSR:
 * an offset array, an edge-target array, and one or more per-vertex
 * property arrays. Edge targets are generated on the fly from a
 * deterministic hash with a configurable popularity skew, so no edge
 * list is materialized in simulator memory. Each algorithm walks this
 * layout with its own characteristic mixture of sequential streaming,
 * random property access, and dependent pointer chasing.
 */

#ifndef NECPT_WORKLOADS_GRAPH_HH
#define NECPT_WORKLOADS_GRAPH_HH

#include <array>

#include "workloads/workload.hh"

namespace necpt
{

/** The eight GraphBIG kernels evaluated in the paper. */
enum class GraphKernel
{
    BC,   //!< Betweenness Centrality
    BFS,  //!< Breadth-First Search
    CC,   //!< Connected Components
    DC,   //!< Degree Centrality
    DFS,  //!< Depth-First Search
    PR,   //!< PageRank
    SSSP, //!< Shortest Path
    TC,   //!< Triangle Count
};

/**
 * A GraphBIG kernel access-stream generator.
 */
class GraphWorkload : public Workload
{
  public:
    GraphWorkload(GraphKernel kernel, std::uint64_t footprint_bytes,
                  std::uint64_t paper_footprint_bytes, std::uint64_t seed);

    Info info() const override;
    void setup(NestedSystem &sys) override;
    MemAccess next() override;

    std::uint64_t degree() const { return deg; }

  private:
    /** Deterministic neighbor: the @p i 'th target of vertex @p u. */
    std::uint64_t target(std::uint64_t u, std::uint64_t i) const;

    Addr offsetAddr(std::uint64_t u) const
    {
        return offsets_base + u * 8;
    }
    Addr edgeAddr(std::uint64_t u, std::uint64_t i) const
    {
        return edges_base + (u * deg + i) * 8;
    }
    Addr propAddr(int array, std::uint64_t u) const
    {
        return prop_base[array] + u * 8;
    }

    MemAccess read(Addr a, std::uint8_t gap = 3)
    {
        return {a, false, gap};
    }
    MemAccess write(Addr a, std::uint8_t gap = 3)
    {
        return {a, true, gap};
    }

    GraphKernel kernel;
    std::uint64_t footprint;
    std::uint64_t paper_footprint;

    std::uint64_t vertices = 0;
    std::uint64_t deg = 16;
    int num_props = 1;
    double skew = 0.2; //!< popularity skew of edge targets

    Addr offsets_base = 0;
    Addr edges_base = 0;
    std::array<Addr, 4> prop_base{};

    /// @name Walk state machine
    /// @{
    std::uint64_t cur_vertex = 0;
    std::uint64_t cur_edge = 0;
    std::uint64_t chase_vertex = 0; //!< DFS/TC pointer-chase cursor
    int phase = 0;
    /// @}
};

} // namespace necpt

#endif // NECPT_WORKLOADS_GRAPH_HH
