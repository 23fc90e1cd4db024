#include "mitigation/rega.h"

#include <algorithm>

namespace bh {

void
regaApplyTiming(DramSpec *spec, unsigned n_rh)
{
    // Each activation hides a number of victim refreshes proportional to
    // 1/N_RH; the extra parallel-refresh time stretches tRAS. The constant
    // is chosen so the stretch is ~10% of tRC at N_RH = 1K and grows
    // inversely with N_RH (REGA's published V-parameter scaling trend).
    double extra_ns = 4800.0 / static_cast<double>(std::max(1u, n_rh));
    spec->timingNs.tRAS += extra_ns;
    spec->refreshTiming();
}

Rega::Rega(unsigned n_rh, unsigned num_threads)
    : regaT(std::max(1u, n_rh / 2)), threadActs(num_threads, 0)
{}

void
Rega::commitAct(unsigned flat_bank, unsigned row, ThreadId thread,
                 Cycle now)
{
    (void)flat_bank;
    (void)row;
    (void)now;
    if (thread >= threadActs.size())
        return; // Controller-generated traffic is not attributed.
    if (++threadActs[thread] >= regaT) {
        threadActs[thread] = 0;
        host->creditDirectScore(thread, 1.0);
    }
}

void
Rega::transfer(StateIo &io)
{
    io.tag("rega");
    io.u64s(threadActs);
}

} // namespace bh
