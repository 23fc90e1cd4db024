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
Core::saveState(StateWriter &w) const
{
    w.tag("core");
    saveVector(w, window, [](StateWriter &sw, const WindowEntry &e) {
        sw.u64(e.doneAt);
    });
    w.u64(head);
    w.u64(occupancy);
    w.u64(issueCounter);
    w.u32(pendingBubbles);
    w.b(recValid);
    w.b(stalledOnReject_);
    w.u32(rec.bubbles);
    w.b(rec.isWrite);
    w.b(rec.uncached);
    w.u64(rec.addr);
    w.u64(retired_);
    w.u64(target_);
    w.u64(finishCycle_);
    w.u64(rejectStalls);
    w.u64(memAccesses);
    trace->saveState(w);
}

void
Core::loadState(StateReader &r)
{
    r.tag("core");
    std::vector<WindowEntry> win;
    loadVector(r, &win, [](StateReader &sr, WindowEntry *e) {
        e->doneAt = sr.u64();
    });
    if (!r.ok() || win.size() != window.size()) {
        r.fail();
        return;
    }
    window = std::move(win);
    head = static_cast<unsigned>(r.u64());
    occupancy = static_cast<unsigned>(r.u64());
    issueCounter = r.u64();
    pendingBubbles = r.u32();
    recValid = r.b();
    stalledOnReject_ = r.b();
    rec.bubbles = r.u32();
    rec.isWrite = r.b();
    rec.uncached = r.b();
    rec.addr = r.u64();
    retired_ = r.u64();
    target_ = r.u64();
    finishCycle_ = r.u64();
    rejectStalls = r.u64();
    memAccesses = r.u64();
    trace->loadState(r);
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
