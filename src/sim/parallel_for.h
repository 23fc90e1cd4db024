/**
 * @file
 * Work-stealing parallelFor, the one parallel primitive: ResultStore::
 * prefetch runs grids on it, one simulation point per task.
 *
 * Tasks are simulation runs lasting milliseconds to seconds, so a
 * mutex-per-deque pool is plenty cheap relative to task granularity.
 * Determinism is the caller's contract: each task must be a pure
 * function of its index, writing into an index-addressed slot, so the
 * result vector is independent of worker count and steal order.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bh {

/**
 * A work-stealing index pool: each worker owns a deque of task indices
 * and steals from the back of a victim's deque when its own runs dry.
 */
class StealingQueues
{
  public:
    StealingQueues(std::size_t num_tasks, unsigned num_workers)
        : queues(num_workers), mutexes(num_workers)
    {
        // Round-robin sharding interleaves the (typically
        // similarly-expensive) neighbors of a grid across workers, so
        // initial shards are balanced before any stealing happens.
        for (std::size_t i = 0; i < num_tasks; ++i)
            queues[i % num_workers].push_back(i);
    }

    /** Pop from own queue, else steal; false when all queues are dry. */
    bool
    pop(unsigned worker, std::size_t *out)
    {
        {
            std::lock_guard<std::mutex> lock(mutexes[worker]);
            if (!queues[worker].empty()) {
                *out = queues[worker].front();
                queues[worker].pop_front();
                return true;
            }
        }
        for (std::size_t offset = 1; offset < queues.size(); ++offset) {
            unsigned victim =
                (worker + offset) % static_cast<unsigned>(queues.size());
            std::lock_guard<std::mutex> lock(mutexes[victim]);
            if (!queues[victim].empty()) {
                *out = queues[victim].back();
                queues[victim].pop_back();
                return true;
            }
        }
        return false;
    }

  private:
    std::vector<std::deque<std::size_t>> queues;
    std::vector<std::mutex> mutexes;
};

/** Run @p task(i) for every index in [0, num_tasks) on @p threads workers. */
inline void
parallelFor(std::size_t num_tasks, unsigned threads,
            const std::function<void(std::size_t)> &task)
{
    if (num_tasks == 0)
        return;
    if (threads <= 1 || num_tasks == 1) {
        for (std::size_t i = 0; i < num_tasks; ++i)
            task(i);
        return;
    }

    unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(threads, num_tasks));
    StealingQueues queues(num_tasks, workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            std::size_t index;
            while (queues.pop(w, &index))
                task(index);
        });
    }
    for (std::thread &t : pool)
        t.join();
}

} // namespace bh
