#include "support/thread_pool.hh"

#include <exception>

#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn
{

namespace
{
/** The pool the current thread works for, if any (see parallelFor). */
thread_local ThreadPool *tlsWorkerPool = nullptr;
} // namespace

unsigned
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads, obs::Registry *metrics)
{
    if (threads == 0)
        threads = hardwareThreads();
    obs::Registry &reg = metrics ? *metrics : obs::Registry::global();
    pendingGauge_ = &reg.gauge("threadpool.tasks.pending");
    executedTotal_ = &reg.counter("threadpool.tasks.executed");
    workers_.resize(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_[i].executed =
            &reg.counter(strprintf("threadpool.thread%02u.tasks", i));
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mtx_);
        idleCv_.wait(lock, [this] { return pending_ == 0; });
        stopping_ = true;
    }
    workCv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::submit(Task task)
{
    BSYN_ASSERT(task != nullptr, "thread_pool: null task");
    {
        std::lock_guard<std::mutex> lock(mtx_);
        BSYN_ASSERT(!stopping_, "thread_pool: submit after shutdown");
        // Round-robin across worker deques; thieves rebalance whatever
        // skew the distribution leaves.
        workers_[nextVictim_ % workers_.size()].tasks.push_back(
            std::move(task));
        ++nextVictim_;
        ++pending_;
        pendingGauge_->set(static_cast<int64_t>(pending_));
    }
    workCv_.notify_one();
}

bool
ThreadPool::takeLocked(size_t self, Task &out)
{
    if (!workers_[self].tasks.empty()) {
        out = std::move(workers_[self].tasks.back());
        workers_[self].tasks.pop_back();
        return true;
    }
    size_t n = workers_.size();
    for (size_t k = 1; k < n; ++k) {
        Worker &victim = workers_[(self + k) % n];
        if (victim.tasks.empty())
            continue;
        out = std::move(victim.tasks.front());
        victim.tasks.pop_front();
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(size_t self)
{
    tlsWorkerPool = this;
    std::unique_lock<std::mutex> lock(mtx_);
    for (;;) {
        Task task;
        if (takeLocked(self, task)) {
            lock.unlock();
            // parallelFor routes exceptions to the caller; a throwing
            // task submitted directly is a bug, but don't take down the
            // worker (and the pool's completion accounting) for it.
            try {
                task();
            } catch (const std::exception &e) {
                warn("thread_pool: task threw: %s", e.what());
            } catch (...) {
                warn("thread_pool: task threw a non-exception");
            }
            task = nullptr; // drop captures before signalling completion
            workers_[self].executed->add();
            executedTotal_->add();
            lock.lock();
            pendingGauge_->set(static_cast<int64_t>(pending_ - 1));
            if (--pending_ == 0)
                idleCv_.notify_all();
            continue;
        }
        if (stopping_)
            return;
        workCv_.wait(lock);
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mtx_);
    idleCv_.wait(lock, [this] { return pending_ == 0; });
}

ThreadPool *
ThreadPool::current()
{
    return tlsWorkerPool;
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;

    // Nested use: a task calling parallelFor on its own pool would
    // enqueue work and then block in wait() on a thread the pool needs
    // to run that work — a self-deadlock on narrow pools. Run inline
    // instead; the caller is already on a worker, so this just keeps
    // that worker busy.
    if (tlsWorkerPool == this) {
        std::exception_ptr firstError;
        for (size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
        if (firstError)
            std::rethrow_exception(firstError);
        return;
    }

    std::mutex errMtx;
    std::exception_ptr firstError;
    for (size_t i = 0; i < n; ++i) {
        submit([&, i] {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMtx);
                if (!firstError)
                    firstError = std::current_exception();
            }
        });
    }
    wait();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace bsyn
