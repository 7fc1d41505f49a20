/**
 * @file
 * Host-side parallel execution layer: a persistent thread pool that
 * runs an indexed task set over its workers and the calling thread.
 *
 * The figure-sweep benches use it to simulate independent
 * configurations concurrently (RIME_SWEEP_THREADS, bench_util.hh).
 * The bit-level scan itself is serial: the concurrency of the chip's
 * mats is charged in simulated time, not copied in host threads.
 */

#ifndef RIME_COMMON_PARALLEL_HH
#define RIME_COMMON_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rime
{

/** A persistent pool of worker threads executing indexed task sets. */
class ThreadPool
{
  public:
    /**
     * @param threads total execution width including the caller (0
     *                is treated as 1).  threads-1 workers are spawned
     *                (the calling thread participates).
     */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution width (workers + the participating caller). */
    unsigned
    threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Execute fn(0) .. fn(tasks-1), each exactly once, distributed
     * over the workers and the calling thread; returns when all have
     * finished.  Not reentrant: fn must not call back into the pool.
     * Reentry panics immediately (in every configuration, including
     * single-threaded pools where it would happen to work) instead of
     * deadlocking the worker set.
     *
     * Distinct external threads may call run() concurrently: calls
     * serialize on an internal mutex, so a shared pool is a
     * simulator-speed resource rather than a correctness hazard.
     */
    void run(unsigned tasks, const std::function<void(unsigned)> &fn);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wakeCv_;
    std::condition_variable doneCv_;
    std::uint64_t generation_ = 0;
    const std::function<void(unsigned)> *job_ = nullptr;
    unsigned tasks_ = 0;
    unsigned workersDone_ = 0;
    std::atomic<unsigned> nextTask_{0};
    /** Serializes concurrent run() calls from distinct threads. */
    std::mutex runMutex_;
    /** Thread currently inside run() (reentrancy diagnostics). */
    std::atomic<std::thread::id> runOwner_{};
    bool stop_ = false;
};

} // namespace rime

#endif // RIME_COMMON_PARALLEL_HH
