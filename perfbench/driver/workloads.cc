#include "workloads.hh"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>

#include "obs/jsonparse.hh"
#include "svc/jobrunner.hh"
#include "svc/protocol.hh"
#include "svc/service.hh"

namespace perfbench {

namespace svc = fireaxe::svc;

namespace {

constexpr auto kTerminalTimeout = std::chrono::seconds(120);

/** What one submission produced. */
struct JobTrace
{
    size_t group = 0;
    double latencyNs = 0.0;
    double queueWaitNs = 0.0;
    /** "result", "error" or "missing". */
    std::string terminal = "missing";
    /** The terminal protocol line ("null" when missing). */
    std::string line = "null";
    int exitCode = -1;
};

void
emitShard(Record &rec, const char *key, const svc::CacheShardStats &s)
{
    auto &w = rec.writer();
    w.key(key);
    w.beginObject();
    w.key("hits");
    w.value(s.hits);
    w.key("misses");
    w.value(s.misses);
    w.key("insertions");
    w.value(s.insertions);
    w.endObject();
}

void
emitRound(size_t round, const Plan &plan, double wall_ns,
          svc::ArtifactCache &cache, const std::vector<JobTrace> &jobs)
{
    std::set<uint64_t> artifacts;
    for (const JobTrace &j : jobs)
        artifacts.insert(plan.groups[j.group].spec.elabSignature());

    for (size_t i = 0; i < jobs.size(); ++i) {
        const JobTrace &j = jobs[i];
        Record rec("job");
        rec.put("round", uint64_t(round))
            .put("index", uint64_t(i))
            .put("group", uint64_t(j.group))
            .put("latency_ns", j.latencyNs)
            .put("queue_wait_ns", j.queueWaitNs)
            .put("terminal", j.terminal)
            .put("exit_code", j.exitCode)
            .raw("line", j.line);
    }

    Record rec("round");
    rec.put("round", uint64_t(round))
        .put("wall_ns", wall_ns)
        .put("jobs", uint64_t(jobs.size()))
        .put("distinct_artifacts", uint64_t(artifacts.size()));
    emitShard(rec, "elab", cache.elabStats());
    emitShard(rec, "verify", cache.reportStats());
    emitShard(rec, "program", cache.programStats());
}

/** One job at a time through JobRunner (fireaxe-run's direct path),
 *  with a cache that starts empty. */
void
runSerialRound(const Plan &plan, size_t round)
{
    const auto &order = plan.rounds[round];
    for (size_t g : order)
        clearJobFiles(plan.groups[g].spec);

    svc::ArtifactCache cache;
    std::vector<JobTrace> jobs;
    uint64_t id = 0;
    auto t0 = Clock::now();
    for (size_t g : order) {
        const svc::JobSpec &spec = plan.groups[g].spec;
        for (unsigned c = 0; c < plan.groups[g].copies; ++c) {
            JobTrace j;
            j.group = g;
            auto ts = Clock::now();
            svc::RunOutcome o = svc::runJob(spec, &cache);
            j.latencyNs = nsSince(ts);
            ++id;
            bool result = o.ok || o.result.deadlocked;
            j.terminal = result ? "result" : "error";
            j.line = result ? svc::resultLine(id, spec.target, o)
                            : svc::errorLine(id, "failed", o.error,
                                             o.verifyReport);
            j.exitCode = o.exitCode;
            jobs.push_back(std::move(j));
        }
    }
    emitRound(round, plan, nsSince(t0), cache, jobs);
}

/**
 * An in-process SimService (the engine `fireaxed` runs) with a closed
 * loop of at most `workers` jobs in flight. A group with several
 * copies waits until that many slots are free and is then submitted
 * back to back, so its copies run concurrently.
 */
void
runServiceRound(const Plan &plan, size_t round)
{
    const auto &order = plan.rounds[round];
    size_t total = 0;
    for (size_t g : order)
        total += plan.groups[g].copies;

    std::vector<JobTrace> jobs(total);
    std::vector<Clock::time_point> submitted(total);
    std::mutex mtx;
    std::condition_variable cv;
    unsigned inflight = 0;

    svc::ServiceConfig cfg;
    cfg.workers = plan.workers;
    svc::SimService service(cfg);

    auto sinkFor = [&](size_t k) {
        return [&, k](const std::string &line) {
            auto now = Clock::now();
            fireaxe::obs::JsonValue v;
            std::string error;
            std::string type;
            if (fireaxe::obs::parseJson(line, v, error))
                type = v.text("type");
            std::lock_guard<std::mutex> lock(mtx);
            JobTrace &j = jobs[k];
            double since = std::chrono::duration<double, std::nano>(
                               now - submitted[k])
                               .count();
            if (type == "status" && v.text("state") == "running") {
                j.queueWaitNs = since;
            } else if (type == "result" || type == "error") {
                j.latencyNs = since;
                j.terminal = type;
                j.line = line;
                j.exitCode = type == "error"      ? 3
                             : v.flag("deadlocked") ? 4
                             : v.flag("ok")         ? 0
                                                    : 3;
                --inflight;
                cv.notify_all();
            }
        };
    };

    size_t next = 0;
    auto t0 = Clock::now();
    for (size_t g : order) {
        const JobGroup &group = plan.groups[g];
        unsigned need = std::min(group.copies, plan.workers);
        {
            std::unique_lock<std::mutex> lock(mtx);
            cv.wait(lock, [&] { return inflight + need <= plan.workers; });
            inflight += group.copies;
        }
        for (unsigned c = 0; c < group.copies; ++c) {
            size_t k = next++;
            {
                std::lock_guard<std::mutex> lock(mtx);
                jobs[k].group = g;
                submitted[k] = Clock::now();
            }
            service.submit(group.spec, sinkFor(k));
        }
    }
    double wall;
    {
        // A job whose terminal line never comes stays "missing"
        // rather than hanging the run.
        std::unique_lock<std::mutex> lock(mtx);
        cv.wait_for(lock, kTerminalTimeout,
                    [&] { return inflight == 0; });
        wall = nsSince(t0);
    }
    service.drain();
    std::lock_guard<std::mutex> lock(mtx);
    emitRound(round, plan, wall, service.cache(), jobs);
}

} // namespace

void
runRounds(const Plan &plan)
{
    for (size_t r = 0; r < plan.rounds.size(); ++r) {
        if (plan.runner == "service")
            runServiceRound(plan, r);
        else
            runSerialRound(plan, r);
    }
}

} // namespace perfbench
