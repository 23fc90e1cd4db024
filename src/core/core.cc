#include "core/core.h"

#include "common/log.h"

namespace bh {

Core::Core(ThreadId id, TraceSource *trace, ICoreMemory *memory,
           const CoreConfig &config, bool benign)
    : id_(id), trace(trace), memory(memory), config_(config),
      benign_(benign), window(config.windowSize)
{
    BH_ASSERT(config.windowSize > 0 && config.width > 0,
              "degenerate core configuration");
}

void
Core::completeLoad(std::uint64_t token, Cycle now)
{
    // Tokens are issue indices; at most windowSize are in flight, so the
    // slot is simply the token modulo the window size.
    WindowEntry &entry = window[token % window.size()];
    BH_ASSERT(entry.doneAt == kNeverCycle, "load completion for idle slot");
    entry.doneAt = now;
}

bool
Core::issueOne(Cycle now)
{
    if (pendingBubbles == 0 && !recValid) {
        rec = trace->next();
        recValid = true;
        pendingBubbles = rec.bubbles;
    }

    // The window holds [head, head + occupancy), so the next free slot
    // is their sum, wrapped without a division.
    unsigned slot = head + occupancy;
    if (slot >= window.size())
        slot -= static_cast<unsigned>(window.size());

    if (pendingBubbles > 0) {
        // Non-memory instruction: occupies a window slot, retires freely.
        window[slot].doneAt = now;
        --pendingBubbles;
        ++issueCounter;
        ++occupancy;
        stalledOnReject_ = false;
        return true;
    }

    // Memory access at the head of the pending record.
    if (rec.isWrite) {
        AccessOutcome out = memory->store(id_, rec.addr, rec.uncached);
        if (out == AccessOutcome::kRejected) {
            ++rejectStalls;
            stalledOnReject_ = true;
            return false;
        }
        window[slot].doneAt = now; // Stores retire at issue.
    } else {
        AccessOutcome out =
            memory->load(id_, rec.addr, rec.uncached, issueCounter);
        switch (out) {
          case AccessOutcome::kHit:
            window[slot].doneAt = now + config_.llcHitLatency;
            break;
          case AccessOutcome::kQueued:
            window[slot].doneAt = kNeverCycle;
            break;
          case AccessOutcome::kRejected:
            ++rejectStalls;
            stalledOnReject_ = true;
            return false;
        }
    }
    ++memAccesses;
    ++issueCounter;
    ++occupancy;
    recValid = false;
    stalledOnReject_ = false;
    return true;
}

void
Core::transfer(StateIo &io)
{
    io.tag("core");
    io.count(window.size());
    for (WindowEntry &e : window)
        io.u64(e.doneAt);
    io.u64(head);
    io.u64(occupancy);
    io.u64(issueCounter);
    io.u32(pendingBubbles);
    io.b(recValid);
    io.b(stalledOnReject_);
    io.u32(rec.bubbles);
    io.b(rec.isWrite);
    io.b(rec.uncached);
    io.u64(rec.addr);
    io.u64(retired_);
    io.u64(target_);
    io.u64(finishCycle_);
    io.u64(rejectStalls);
    io.u64(memAccesses);
    trace->transfer(io);
    // The window holds issue indices [issueCounter - occupancy,
    // issueCounter), each at its index modulo the window size.
    const std::size_t size = window.size();
    io.require(head < size && occupancy <= size &&
               (head + occupancy) % size == issueCounter % size);
}

void
Core::retireAndIssue(Cycle now)
{
    // Retire in order from the window head.
    for (unsigned i = 0; i < config_.width && occupancy > 0; ++i) {
        WindowEntry &entry = window[head];
        if (entry.doneAt == kNeverCycle || entry.doneAt > now)
            break;
        if (++head == window.size())
            head = 0;
        --occupancy;
        ++retired_;
        if (target_ != 0 && retired_ == target_ && finishCycle_ == 0)
            finishCycle_ = now;
    }

    // Issue new work while slots and width remain.
    for (unsigned i = 0; i < config_.width; ++i) {
        if (occupancy >= window.size())
            break;
        if (!issueOne(now))
            break;
    }
}

} // namespace bh
