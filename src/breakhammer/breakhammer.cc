#include "breakhammer/breakhammer.h"

#include <algorithm>

#include "common/log.h"

namespace bh {

BreakHammer::BreakHammer(unsigned num_threads,
                         const BreakHammerConfig &config,
                         IThrottleTarget *target)
    : config_(config), numThreads(num_threads), target(target),
      activations(num_threads, 0),
      suspect(num_threads, false),
      recentSuspect(num_threads, false),
      quotas(num_threads, target ? target->fullQuota() : 0)
{
    BH_ASSERT(num_threads > 0, "BreakHammer needs at least one thread");
    BH_ASSERT(config.pNewSuspect >= 1, "P_newsuspect must be >= 1");
    scoreSet[0].assign(num_threads, 0.0);
    scoreSet[1].assign(num_threads, 0.0);
}

double
BreakHammer::score(ThreadId thread) const
{
    return scoreSet[active][thread];
}

void
BreakHammer::endWindow()
{
    // Fig 4: reset the active set, then the retained (already trained)
    // set becomes active for the next window. In the single-set ablation
    // there is nothing trained to fall back on.
    std::fill(scoreSet[active].begin(), scoreSet[active].end(), 0.0);
    if (!config_.singleCounterSet)
        active ^= 1;

    for (ThreadId t = 0; t < numThreads; ++t) {
        recentSuspect[t] = suspect[t];
        suspect[t] = false;
        // A thread that stayed benign for the full previous window gets
        // its full dynamic quota back (§4.3, "Resetting Reduced Quotas").
        if (!recentSuspect[t] && target != nullptr) {
            quotas[t] = target->fullQuota();
            target->setQuota(t, quotas[t]);
        }
    }
}

void
BreakHammer::rollWindows(Cycle now)
{
    while (now - windowStart >= config_.window) {
        endWindow();
        windowStart += config_.window;
    }
}

void
BreakHammer::transfer(StateIo &io)
{
    io.tag("breakhammer");
    io.doubles(scoreSet[0]);
    io.doubles(scoreSet[1]);
    std::uint64_t active_set = active;
    io.u64(active_set);
    io.require(active_set <= 1);
    active = static_cast<unsigned>(active_set);
    io.u64(windowStart);
    io.u64s(activations);
    io.bools(suspect);
    io.bools(recentSuspect);
    io.u64s(quotas);
    io.u64(suspectMarks_);
    io.u64(actionsObserved_);
}

void
BreakHammer::onDemandActivate(ThreadId thread, unsigned flat_bank,
                              Cycle now)
{
    (void)flat_bank;
    rollWindows(now);
    if (thread < numThreads)
        ++activations[thread];
}

void
BreakHammer::updateScores(double weight, Cycle now)
{
    (void)now;
    std::uint64_t total = 0;
    for (std::uint64_t a : activations)
        total += a;
    if (total == 0)
        return; // Action with no attributable demand activations.

    if (config_.attribution == ScoreAttribution::kWinnerTakesAll) {
        ThreadId winner = 0;
        for (ThreadId t = 1; t < numThreads; ++t)
            if (activations[t] > activations[winner])
                winner = t;
        scoreSet[0][winner] += weight;
        scoreSet[1][winner] += weight;
        std::fill(activations.begin(), activations.end(), 0);
        return;
    }

    for (ThreadId t = 0; t < numThreads; ++t) {
        double share = static_cast<double>(activations[t]) /
                       static_cast<double>(total);
        scoreSet[0][t] += weight * share;
        scoreSet[1][t] += weight * share;
        activations[t] = 0;
    }
}

void
BreakHammer::markSuspect(ThreadId thread)
{
    if (suspect[thread])
        return; // Already suspect for the remainder of this window.
    suspect[thread] = true;
    ++suspectMarks_;

    // Eq 1: repeat suspects lose quota linearly; fresh suspects get their
    // quota divided.
    if (recentSuspect[thread]) {
        quotas[thread] = (quotas[thread] > config_.pOldSuspect)
                             ? quotas[thread] - config_.pOldSuspect
                             : 0;
    } else {
        quotas[thread] = quotas[thread] / config_.pNewSuspect;
    }
    if (target != nullptr)
        target->setQuota(thread, quotas[thread]);
}

void
BreakHammer::checkOutliers(Cycle now)
{
    (void)now;
    const std::vector<double> &scores = scoreSet[active];
    double sum = 0.0;
    for (double s : scores)
        sum += s;
    double max_deviation =
        (1.0 + config_.thOutlier) * (sum / static_cast<double>(numThreads));

    for (ThreadId t = 0; t < numThreads; ++t) {
        if (scores[t] < config_.thThreat)
            continue; // Alg 1: ignore low-score threads.
        if (scores[t] > max_deviation)
            markSuspect(t);
    }
}

void
BreakHammer::onPreventiveAction(double weight, Cycle now)
{
    rollWindows(now);
    ++actionsObserved_;
    updateScores(weight, now);
    checkOutliers(now);
}

void
BreakHammer::onDirectScore(ThreadId thread, double amount, Cycle now)
{
    rollWindows(now);
    if (thread >= numThreads)
        return;
    ++actionsObserved_;
    scoreSet[0][thread] += amount;
    scoreSet[1][thread] += amount;
    checkOutliers(now);
}

} // namespace bh
