#include "coherence/controller.hh"

#include <algorithm>

namespace necpt
{

CoherenceController::CoherenceController(const ChurnSpec &spec)
    : spec_(spec)
{
}

void
CoherenceController::queueInvalidation(const Invalidation &inv)
{
    batcher.push(inv);
    ++stats_.invalidations;
    // Record at queue time, not round time: the churn source mutated
    // the functional tables *before* queueing, so a walk in flight
    // right now already raced with this invalidation even if the
    // (batched) shootdown round fires later. Recording early only
    // makes invalidatedSince() more conservative — a spurious replay
    // is correct, a missed one is not.
    directory.record(inv);
}

void
CoherenceController::noteChurnOp(ChurnOp op, std::uint64_t pages)
{
    ++stats_.churn_ops;
    switch (op) {
      case ChurnOp::Migrate: stats_.migrate_pages += pages; break;
      case ChurnOp::BalloonOut: stats_.balloon_out_pages += pages; break;
      case ChurnOp::BalloonIn: stats_.balloon_in_pages += pages; break;
      case ChurnOp::ThpPromote: stats_.thp_promotes += pages; break;
      case ChurnOp::ThpDemote: stats_.thp_demotes += pages; break;
      case ChurnOp::Protect: stats_.protect_pages += pages; break;
    }
}

std::size_t
CoherenceController::applyInvalidation(const Invalidation &inv)
{
    std::size_t dropped = 0;
    for (std::size_t c = 0; c < cores.size(); ++c) {
        std::size_t d = 0;
        if (cores[c].tlb)
            d += cores[c].tlb->invalidateRange(inv.gva, inv.bytes);
        if (cores[c].walker)
            d += cores[c].walker->invalidateTranslationCaches(
                inv.gva, inv.bytes,
                inv.gpa == invalid_addr ? 0 : inv.gpa, inv.gpa_bytes);
        core_drops[c] += d;
        dropped += d;
    }
    if (pom_) {
        const std::size_t d = pom_->invalidateRange(inv.gva, inv.bytes);
        stats_.pom_entries += d;
        dropped += d;
    }
    return dropped;
}

CoherenceController::RoundPlan
CoherenceController::beginRound(int initiator, Cycles now)
{
    RoundPlan round;
    const std::vector<Invalidation> &batch =
        batcher.pop(static_cast<std::size_t>(spec_.batch));
    if (batch.empty())
        return round;

    round.started = true;
    round.initiator = initiator;
    round.begin = now;
    round.invalidations = static_cast<int>(batch.size());
    stats_.batch_occupancy.sample(batch.size());

    // Functional invalidation is applied at round start: the protocol
    // cost below models *when cores may proceed*, not when entries
    // drop. In-flight walks that already read stale state are caught
    // by the directory epoch at retire time.
    core_drops.assign(cores.size(), 0);
    for (const Invalidation &inv : batch) {
        const std::size_t dropped = applyInvalidation(inv);
        round.entries_dropped += dropped;
        if (tracer_) {
            tracer_->instant(
                "shootdown.invalidate", TraceCat::Shootdown,
                trace_coherence_tid, now,
                {{"kind", 0, invalKindName(inv.kind)},
                 {"bytes", static_cast<std::int64_t>(inv.bytes)},
                 {"dropped", static_cast<std::int64_t>(dropped)}});
        }
    }
    // core_drops holds TLB + private walk-cache drops together (one
    // pass per invalidation); the registry reports the combined total.
    for (const std::size_t d : core_drops)
        stats_.tlb_entries += d;

    if (spec_.mode == CoherenceMode::SwIpi) {
        // The initiator runs its own flush inline; every other core
        // is interrupted and must ack. Completion = last ack.
        Cycles completion = now + sw_handler_cycles;
        for (std::size_t c = 0; c < cores.size(); ++c) {
            if (static_cast<int>(c) == initiator)
                continue;
            ++stats_.acks;
            Cycles delay = 0;
            if (fault_plan) {
                delay = fault_plan->shootdownAckDelay();
                if (delay > 0)
                    ++stats_.acks_dropped;
            }
            const Cycles ack = sw_ipi_cycles + sw_handler_cycles + delay
                               + sw_ack_cycles;
            stats_.ack_latency.sample(ack);
            completion = std::max(completion, now + ack);
        }
        round.completion = completion;
        round.initiator_stall = completion - now;
        round.responder_cost = sw_handler_cycles;
    } else {
        // Hardware coherence: cost scales with how many structures
        // actually held stale entries, and nobody stalls.
        int sharers = 0;
        for (std::size_t c = 0; c < cores.size(); ++c)
            if (core_drops[c] > 0)
                ++sharers;
        round.sharers = sharers;
        round.completion =
            now + hw_base_cycles
            + hw_per_sharer_cycles * static_cast<Cycles>(sharers);
        round.initiator_stall = 0;
    }
    return round;
}

void
CoherenceController::finishRound(const RoundPlan &round)
{
    if (!round.started)
        return;
    ++stats_.rounds;
    const Cycles latency = round.completion - round.begin;
    stats_.round_latency.sample(latency);
    if (tracer_) {
        tracer_->span(
            "shootdown.round", TraceCat::Shootdown, trace_coherence_tid,
            round.begin, latency,
            {{"initiator", round.initiator},
             {"invalidations", round.invalidations},
             {"sharers", round.sharers},
             {"mode", 0, coherenceModeName(spec_.mode)}});
    }
}

void
CoherenceController::registerMetrics(MetricsRegistry &reg,
                                     const std::string &prefix)
{
    Stats *s = &stats_;
    const std::string sd = prefix + "shootdown.";
    reg.addCounter(sd + "rounds", [s] { return s->rounds; },
                   "shootdown rounds completed");
    reg.addCounter(sd + "invalidations", [s] { return s->invalidations; },
                   "invalidations queued by churn sources");
    reg.addCounter(sd + "entries.dropped",
                   [s] { return s->tlb_entries + s->pom_entries; },
                   "translation-cache entries invalidated");
    reg.addCounter(sd + "entries.pom", [s] { return s->pom_entries; });
    reg.addCounter(sd + "acks", [s] { return s->acks; },
                   "sw-IPI responder acks");
    reg.addCounter(sd + "acks.dropped", [s] { return s->acks_dropped; },
                   "acks dropped by fault injection (re-sent)");
    reg.addCounter(sd + "walk_replays", [s] { return s->walk_replays; },
                   "walks replayed after racing an invalidation");
    reg.addHistogram(sd + "latency", &s->round_latency,
                     "shootdown round latency (cycles)");
    reg.addHistogram(sd + "ack.latency", &s->ack_latency,
                     "per-responder ack latency (sw mode, cycles)");
    reg.addHistogram(sd + "batch.occupancy", &s->batch_occupancy,
                     "invalidations coalesced per round");

    const std::string ch = prefix + "churn.";
    reg.addCounter(ch + "ops", [s] { return s->churn_ops; },
                   "churn operations executed");
    reg.addCounter(ch + "migrate.pages", [s] { return s->migrate_pages; });
    reg.addCounter(ch + "balloon.out_pages",
                   [s] { return s->balloon_out_pages; });
    reg.addCounter(ch + "balloon.in_pages",
                   [s] { return s->balloon_in_pages; });
    reg.addCounter(ch + "thp.promotes", [s] { return s->thp_promotes; });
    reg.addCounter(ch + "thp.demotes", [s] { return s->thp_demotes; });
    reg.addCounter(ch + "protect.pages",
                   [s] { return s->protect_pages; });
}

} // namespace necpt
