// thread_pool.hpp — a small task pool with a blocked-range parallel_for.
//
// The CPU software component of the pipeline parallelises deconvolution over
// independent m/z channels; that decomposition needs nothing more exotic
// than a fork-join parallel_for with static chunking (the per-channel work
// is uniform). The pool is created once and reused so thread-creation cost
// never appears inside timed regions — the same discipline an OpenMP runtime
// applies.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace htims {

/// Fixed-size worker pool. Tasks are std::function<void()>; wait_idle()
/// provides the join point for fork-join use.
///
/// Ownership and shutdown rule: the destructor drains the queue (it runs
/// every already-submitted task, then joins all workers), so a ThreadPool
/// member must be declared *after* any state its tasks touch — members are
/// destroyed in reverse declaration order, and the pool must die first.
/// Submitting from another thread concurrently with destruction is a caller
/// bug: there is no handshake that makes "submit vs. begin-shutdown" a race
/// the pool could win. Fork-join callers (parallel_for) never see this —
/// the call joins before returning.
class ThreadPool {
public:
    /// A pool of `threads` threads (defaults to hardware concurrency, min 1).
    /// A one-thread pool is the calling thread alone and starts no worker.
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return size_; }

    /// Enqueue one task; a one-thread pool runs it before returning.
    void submit(std::function<void()> task);

    /// Block until every submitted task has finished.
    void wait_idle();

    /// Non-owning reference to a `void(std::size_t, std::size_t)` range
    /// body. parallel_for's template front-end erases the callable into this
    /// two-pointer view, so dispatching a loop costs no heap allocation and
    /// no std::function indirection per chunk. The referenced callable must
    /// outlive the parallel_for call (it always does — the call joins).
    class RangeBody {
    public:
        template <typename Fn>
            requires(!std::is_same_v<std::remove_cvref_t<Fn>, RangeBody>)
        explicit RangeBody(Fn& fn)
            : obj_(const_cast<void*>(static_cast<const void*>(&fn))),
              invoke_([](void* obj, std::size_t begin, std::size_t end) {
                  (*static_cast<Fn*>(obj))(begin, end);
              }) {}

        void operator()(std::size_t begin, std::size_t end) const {
            invoke_(obj_, begin, end);
        }

    private:
        void* obj_;
        void (*invoke_)(void*, std::size_t, std::size_t);
    };

    /// Run fn(begin, end) over [0, n) and wait for completion. `grain` is
    /// the minimum number of indices per chunk: 0 (the default) balances
    /// chunks across workers and runs inline when n is too small to be worth
    /// a dispatch; an explicit grain declares "one grain of indices is
    /// already a task's worth of work" — chunks never shrink below it (so
    /// tile-granular loops don't over-chunk) and the loop is dispatched even
    /// for small n. Workers pull chunks from an atomic cursor through a
    /// fixed set of tasks, one per worker, so per-chunk cost is one
    /// fetch_add. Safe to nest: the single-worker/inline path recurses
    /// without touching the queue.
    template <typename Fn>
    void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 0) {
        RangeBody body(fn);
        parallel_for_impl(n, grain, body);
    }

private:
    void parallel_for_impl(std::size_t n, std::size_t grain, RangeBody body);
    void run_task(const std::function<void()>& task);
    void worker_loop();

    std::size_t size_;
    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_task_;
    std::condition_variable cv_idle_;
    std::size_t in_flight_ = 0;
    bool stop_ = false;
};

}  // namespace htims
