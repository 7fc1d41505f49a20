#include "parallel.hh"

#include "logging.hh"

namespace rime
{

namespace
{

/** The pool (if any) whose worker loop the current thread runs. */
thread_local const ThreadPool *tlsWorkerOf = nullptr;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned count = threads > 1 ? threads - 1 : 0;
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    tlsWorkerOf = this;
    std::uint64_t seen_generation = 0;
    while (true) {
        const std::function<void(unsigned)> *job;
        unsigned tasks;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wakeCv_.wait(lock, [&] {
                return stop_ || generation_ != seen_generation;
            });
            if (stop_)
                return;
            seen_generation = generation_;
            job = job_;
            tasks = tasks_;
        }
        while (true) {
            const unsigned t =
                nextTask_.fetch_add(1, std::memory_order_relaxed);
            if (t >= tasks)
                break;
            (*job)(t);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++workersDone_;
        }
        doneCv_.notify_one();
    }
}

void
ThreadPool::run(unsigned tasks, const std::function<void(unsigned)> &fn)
{
    if (tasks == 0)
        return;
    // A task calling back into its own pool would deadlock: the outer
    // run() holds every worker, so the inner one could never finish.
    // Catch the misuse deterministically (even on pools where the
    // serial fallback below would happen to execute it) whether the
    // nested call lands on the dispatching thread or on a worker.
    // Concurrent calls from *distinct* external threads, by contrast,
    // are legal and simply serialize on runMutex_.
    if (tlsWorkerOf == this ||
        runOwner_.load(std::memory_order_acquire) ==
            std::this_thread::get_id()) {
        panic("ThreadPool::run is not reentrant: a task called back "
              "into its own pool");
    }
    std::lock_guard<std::mutex> run_lock(runMutex_);
    runOwner_.store(std::this_thread::get_id(),
                    std::memory_order_release);
    struct OwnerGuard
    {
        std::atomic<std::thread::id> &owner;
        ~OwnerGuard()
        {
            owner.store(std::thread::id{}, std::memory_order_release);
        }
    } guard{runOwner_};
    if (tasks == 1 || workers_.empty()) {
        for (unsigned t = 0; t < tasks; ++t)
            fn(t);
        return;
    }
    unsigned workers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        tasks_ = tasks;
        workersDone_ = 0;
        nextTask_.store(0, std::memory_order_relaxed);
        ++generation_;
        workers = static_cast<unsigned>(workers_.size());
    }
    wakeCv_.notify_all();
    // The caller is a full participant in the task set.
    while (true) {
        const unsigned t =
            nextTask_.fetch_add(1, std::memory_order_relaxed);
        if (t >= tasks)
            break;
        fn(t);
    }
    // Wait for every worker to leave the grab loop so the next run()
    // cannot hand a stale worker the new job's task indices.
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [&] { return workersDone_ == workers; });
    job_ = nullptr;
}

} // namespace rime
