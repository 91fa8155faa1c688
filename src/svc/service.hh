/**
 * @file
 * SimService: the multi-tenant job engine behind the `fireaxed`
 * daemon. A fixed pool of worker threads pulls whole jobs off one
 * queue — each job runs single-threaded, so the pool is where the
 * cores are used — and runs each through svc::JobRunner against the
 * one shared ArtifactCache, so every tenant warms the cache for
 * every other.
 *
 * All job output is pushed through the submitter's EventSink as
 * rendered fireaxe.job.v1 protocol lines: lifecycle status edges,
 * incremental telemetry stream wrappers, and exactly one terminal
 * result or error line per job. Sinks are called from worker threads
 * (and, for stream lines, from inside the running simulation); a
 * sink shared between jobs must be internally synchronized — the
 * socket server wraps each connection's sink in a mutex.
 *
 * Graceful drain: drain() stops intake, rejects everything still
 * queued with a structured "draining" error, and requestStop()s every
 * in-flight simulation — each quiesces at its next run()-boundary,
 * commits a resumable snapshot when its job has a snapshot directory,
 * and reports a stopped result. This is the daemon's SIGTERM path.
 */

#ifndef FIREAXE_SVC_SERVICE_HH
#define FIREAXE_SVC_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "svc/cache.hh"
#include "svc/jobspec.hh"

namespace fireaxe::platform {
class MultiFpgaSim;
}

namespace fireaxe::svc {

struct ServiceConfig
{
    /** Worker threads = concurrent jobs (min 1). */
    unsigned workers = 2;
    CacheBudgets cache;
};

class SimService
{
  public:
    /** Receives rendered protocol lines (no trailing newline). */
    using EventSink = std::function<void(const std::string &line)>;

    explicit SimService(const ServiceConfig &cfg = {});
    ~SimService();

    /**
     * Queue a job; returns its id immediately. The sink sees, in
     * order: status(queued) [from this call], status(running), any
     * stream lines, then one result or error line. After drain()
     * begins, submissions are rejected with an immediate error line
     * (the id is still consumed and returned).
     */
    uint64_t submit(const JobSpec &spec, EventSink sink);

    /** Block until every job submitted so far has completed: the
     *  queue is empty and no job is running. */
    void waitAll();

    /** Block until job @p id has emitted its terminal line. False if
     *  the id was never issued. */
    bool waitJob(uint64_t id);

    /**
     * Graceful shutdown: stop intake, reject queued jobs, ask every
     * in-flight simulation to quiesce, and join the workers. Safe to
     * call more than once; the destructor calls it.
     */
    void drain();

    bool draining() const;

    ArtifactCache &cache() { return cache_; }

    uint64_t jobsSubmitted() const;
    uint64_t jobsActive() const;
    uint64_t jobsCompleted() const;

  private:
    struct Job
    {
        uint64_t id = 0;
        JobSpec spec;
        EventSink sink;
    };

    void workerLoop();
    void runOne(Job job);
    void finishJob(uint64_t id);

    ServiceConfig cfg_;
    ArtifactCache cache_;

    mutable std::mutex mtx_;
    std::condition_variable workCv_; ///< queue / drain edges
    std::condition_variable doneCv_; ///< job completions
    std::deque<Job> queue_;
    /** In-flight sims, for drain's requestStop broadcast. Entries
     *  are owned by the running JobRunner; they are erased before
     *  the runner dies. */
    std::unordered_map<uint64_t, platform::MultiFpgaSim *> active_;
    std::unordered_set<uint64_t> done_;
    uint64_t nextId_ = 1;
    uint64_t completed_ = 0;
    bool draining_ = false;
    std::vector<std::thread> workers_;
};

} // namespace fireaxe::svc

#endif // FIREAXE_SVC_SERVICE_HH
