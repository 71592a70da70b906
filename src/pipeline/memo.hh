/**
 * @file
 * pipeline::Memo — a bounded in-memory memo with per-key single flight,
 * the tier a Session keeps in front of its disk ArtifactCache (and for
 * its decoded calibration programs). The first caller of a key computes
 * it; a concurrent caller of the same key waits for that result instead
 * of computing it again. Finished values are kept in LRU order up to a
 * fixed number of entries; a computation that throws leaves no entry.
 */

#ifndef BSYN_PIPELINE_MEMO_HH
#define BSYN_PIPELINE_MEMO_HH

#include <condition_variable>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hh"
#include "support/thread_pool.hh"

namespace bsyn::pipeline
{

template <typename T> class Memo
{
  public:
    using Ptr = std::shared_ptr<const T>;

    /** Keep at most @p capacity finished entries; count served entries
     *  into @p hits and calls that waited for another caller's
     *  computation into @p waits. */
    Memo(size_t capacity, obs::Counter &hits, obs::Counter &waits)
        : capacity_(capacity), hits_(hits), waits_(waits)
    {
    }

    Memo(const Memo &) = delete;
    Memo &operator=(const Memo &) = delete;

    /**
     * The value of @p key: a stored entry if there is one, else the
     * result of the computation already in flight for it, else
     * compute() run on this thread and stored. If compute() throws,
     * nothing is stored, and this caller and every waiter rethrow its
     * exception; the next call computes afresh.
     *
     * @p fansOut says compute() may fan work out on a thread pool and
     * block until that work is done. A pool worker must not wait for
     * such a leader running outside every pool (the leader may be
     * blocked on that very worker), so it computes the value itself
     * instead; the leader still stores it. A leader on a pool worker
     * runs its fan-out inline (see ThreadPool::parallelFor), so waiting
     * for it is always safe.
     */
    template <typename Compute>
    Ptr get(const std::string &key, Compute &&compute, bool fansOut = false)
    {
        const bool onPool = ThreadPool::current() != nullptr;
        std::unique_lock<std::mutex> lock(mtx_);
        if (auto it = index_.find(key); it != index_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            hits_.add();
            return it->second->second;
        }
        if (auto it = flights_.find(key); it != flights_.end()) {
            std::shared_ptr<Flight> flight = it->second;
            if (!(onPool && flight->leaderBlocksOnPool)) {
                waits_.add();
                landed_.wait(lock, [&] { return flight->done; });
                if (flight->error)
                    std::rethrow_exception(flight->error);
                return flight->value;
            }
            lock.unlock();
            return compute();
        }

        auto flight = std::make_shared<Flight>();
        flight->leaderBlocksOnPool = fansOut && !onPool;
        flights_.emplace(key, flight);
        lock.unlock();

        Ptr value;
        std::exception_ptr error;
        try {
            value = compute();
        } catch (...) {
            error = std::current_exception();
        }

        lock.lock();
        flights_.erase(key);
        flight->done = true;
        flight->value = value;
        flight->error = error;
        if (!error) {
            lru_.emplace_front(key, value);
            index_[key] = lru_.begin();
            if (lru_.size() > capacity_) {
                index_.erase(lru_.back().first);
                lru_.pop_back();
            }
        }
        lock.unlock();
        landed_.notify_all();
        if (error)
            std::rethrow_exception(error);
        return value;
    }

  private:
    /** One computation in progress; waiters hold it past its erasure
     *  from flights_. */
    struct Flight
    {
        bool done = false;
        bool leaderBlocksOnPool = false;
        Ptr value;
        std::exception_ptr error;
    };

    using Lru = std::list<std::pair<std::string, Ptr>>; ///< most recent first

    const size_t capacity_;
    obs::Counter &hits_;
    obs::Counter &waits_;

    std::mutex mtx_; ///< guards everything below
    std::condition_variable landed_; ///< a flight finished
    Lru lru_;
    std::unordered_map<std::string, typename Lru::iterator> index_;
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
};

} // namespace bsyn::pipeline

#endif // BSYN_PIPELINE_MEMO_HH
