#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace htims {

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads > 0 ? threads
                        : std::max<std::size_t>(1, std::thread::hardware_concurrency())) {
    // One thread is the caller's: parallel_for runs inline and submit() runs
    // the task at once, so a worker would only park.
    if (size_ == 1) return;
    workers_.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    cv_task_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
    HTIMS_EXPECTS(task != nullptr);
    auto& tel = telemetry::Registry::global();
    static auto& c_tasks = tel.counter("threadpool.tasks");
    static auto& g_depth = tel.gauge("threadpool.queue_depth");
    c_tasks.increment();
    if (workers_.empty()) {
        run_task(task);
        return;
    }
    std::size_t depth;
    {
        std::lock_guard lock(mutex_);
        tasks_.push(std::move(task));
        ++in_flight_;
        depth = tasks_.size();
    }
    g_depth.set(static_cast<std::int64_t>(depth));
    cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
    std::unique_lock lock(mutex_);
    cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for_impl(std::size_t n, std::size_t grain, RangeBody body) {
    if (n == 0) return;
    const std::size_t workers = size();
    const bool auto_grain = grain == 0;
    if (auto_grain) grain = 1;
    // ~4 chunks per worker for load balance, but never below the caller's
    // grain — an explicit grain marks the unit of work that is already
    // coarse enough to amortize one dispatch.
    const std::size_t chunk = std::max(grain, (n + 4 * workers - 1) / (4 * workers));
    const std::size_t chunks = (n + chunk - 1) / chunk;
    HTIMS_DCHECK(chunk >= 1 && chunk * chunks >= n, "chunking must cover [0, n)");
    if (workers <= 1 || chunks <= 1 || (auto_grain && n < 2 * workers)) {
        body(0, n);
        return;
    }
    // Shared loop state lives on this (joining) stack frame; each dispatched
    // task captures only its address, which fits std::function's small-buffer
    // storage — no per-chunk heap allocation.
    struct Shared {
        RangeBody body;
        std::size_t n;
        std::size_t chunk;
        std::atomic<std::size_t> cursor{0};
    } shared{body, n, chunk};
    const std::size_t tasks = std::min(workers, chunks);
    for (std::size_t i = 0; i < tasks; ++i) {
        submit([s = &shared] {
            for (;;) {
                const std::size_t begin =
                    s->cursor.fetch_add(s->chunk, std::memory_order_relaxed);
                if (begin >= s->n) return;
                s->body(begin, std::min(begin + s->chunk, s->n));
            }
        });
    }
    wait_idle();
}

void ThreadPool::run_task(const std::function<void()>& task) {
    auto& tel = telemetry::Registry::global();
    static auto& h_task = tel.histogram("threadpool.task_ns");
    if (telemetry::kCompiledIn && tel.enabled()) {
        const std::uint64_t t0 = telemetry::now_ns();
        task();
        h_task.observe(telemetry::now_ns() - t0);
    } else {
        task();
    }
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty()) return;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        run_task(task);
        {
            std::lock_guard lock(mutex_);
            HTIMS_CHECK(in_flight_ > 0, "task completion without a matching submit");
            --in_flight_;
            if (in_flight_ == 0) cv_idle_.notify_all();
        }
    }
}

}  // namespace htims
