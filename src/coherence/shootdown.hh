/**
 * @file
 * The data plane of translation coherence: invalidation records, the
 * batcher that coalesces them into shootdown rounds, and the directory
 * that lets in-flight walks detect they raced with one.
 *
 * Everything here is deterministic bookkeeping — cycle math and event
 * scheduling live in the CoherenceController and the Simulator.
 */

#ifndef NECPT_COHERENCE_SHOOTDOWN_HH
#define NECPT_COHERENCE_SHOOTDOWN_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace necpt
{

/** What kind of mutation produced an invalidation (trace detail). */
enum class InvalKind : std::uint8_t
{
    Unmap,   //!< balloon inflate: mapping gone, next access refaults
    Remap,   //!< migration: same gVA (and gPA), new backing frame
    Demote,  //!< 2MB split into 4KB pieces
    Promote, //!< 512 x 4KB collapsed into 2MB
    Protect, //!< permission downgrade (write-protect)
};

inline const char *
invalKindName(InvalKind kind)
{
    switch (kind) {
      case InvalKind::Unmap: return "unmap";
      case InvalKind::Remap: return "remap";
      case InvalKind::Demote: return "demote";
      case InvalKind::Promote: return "promote";
      case InvalKind::Protect: return "protect";
    }
    return "?";
}

/**
 * One pending invalidation. The guest-virtual range kills TLB / POM-TLB
 * / PWC entries; the guest-physical range (when the host re-backed
 * those frames) additionally kills NTLB/STC entries, which are keyed
 * by gPA. Ranges are page-aligned by construction.
 */
struct Invalidation
{
    Addr gva = invalid_addr;
    std::uint64_t bytes = 0;
    Addr gpa = invalid_addr; //!< invalid_addr = host backing untouched
    std::uint64_t gpa_bytes = 0;
    InvalKind kind = InvalKind::Unmap;
};

/**
 * FIFO coalescing buffer between the churn sources and the shootdown
 * rounds. Sources push as mutations happen; the controller pops up to
 * the spec's batch bound per round, amortizing the per-round IPI cost
 * over several invalidations (exactly why Linux batches its flushes).
 *
 * The queue is a ring that doubles when full, and a popped batch is
 * kept in member storage, so rounds allocate nothing once the queue
 * and the batch have reached their high-water marks.
 */
class ShootdownBatcher
{
  public:
    void
    push(const Invalidation &inv)
    {
        if (count == ring.size())
            grow();
        ring[(head + count) & (ring.size() - 1)] = inv;
        ++count;
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Pop up to @p max records, oldest first. The batch stays valid
     *  until the next pop. */
    const std::vector<Invalidation> &
    pop(std::size_t max)
    {
        batch.clear();
        for (; count > 0 && batch.size() < max; --count) {
            batch.push_back(ring[head]);
            head = (head + 1) & (ring.size() - 1);
        }
        return batch;
    }

  private:
    /** Double the ring (16 records at first), oldest record first. */
    void
    grow()
    {
        std::vector<Invalidation> bigger(
            ring.empty() ? 16 : 2 * ring.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = ring[(head + i) & (ring.size() - 1)];
        ring = std::move(bigger);
        head = 0;
    }

    /** Power-of-two capacity; `count` records from `head`, wrapping. */
    std::vector<Invalidation> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    std::vector<Invalidation> batch;
};

/**
 * Recent-invalidation directory: answers "was anything overlapping
 * this VA invalidated after epoch E?" — the question an in-flight walk
 * asks at retire time to detect that it raced with a shootdown and
 * must replay against the mutated page tables.
 *
 * A fixed ring keeps the last `capacity` records; queries reaching
 * past the ring answer true conservatively (a spurious replay is
 * correct, a missed one is not). Epochs are dense: one per recorded
 * invalidation, so epoch e sits in slot (e - 1) % capacity.
 */
class CoherenceDirectory
{
  public:
    explicit CoherenceDirectory(std::size_t capacity = 256)
        : ring(capacity)
    {
        NECPT_ASSERT(capacity > 0);
    }

    std::uint64_t epoch() const { return epoch_; }

    void
    record(const Invalidation &inv)
    {
        ring[epoch_ % ring.size()] = Record{inv.gva, inv.bytes};
        ++epoch_;
    }

    /** Was any VA in the page range containing @p gva invalidated
     *  strictly after @p since_epoch? */
    bool
    invalidatedSince(Addr gva, std::uint64_t since_epoch) const
    {
        if (epoch_ <= since_epoch)
            return false;
        // Records newer than since_epoch already evicted? Can't tell —
        // answer yes and let the (cheap, functional) replay decide.
        if (epoch_ - since_epoch > ring.size())
            return true;
        for (std::uint64_t e = epoch_; e > since_epoch; --e) {
            const Record &r = ring[(e - 1) % ring.size()];
            if (gva >= r.gva && gva - r.gva < r.bytes)
                return true;
        }
        return false;
    }

  private:
    struct Record
    {
        Addr gva = 0;
        std::uint64_t bytes = 0;
    };

    std::vector<Record> ring;
    std::uint64_t epoch_ = 0;
};

} // namespace necpt

#endif // NECPT_COHERENCE_SHOOTDOWN_HH
