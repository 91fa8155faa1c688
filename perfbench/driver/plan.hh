/**
 * @file
 * The benchmark driver's input and output formats.
 *
 * Input: a plan file written by run.py. It names the workload, how
 * jobs are submitted (one at a time through svc::JobRunner, or
 * through an in-process svc::SimService), and the jobs themselves in
 * the `fireaxe.job.v1` wire form, parsed with svc::parseJobSpec — the
 * same parser the daemon uses, so the driver only ever sees the
 * generated JobSpecs.
 *
 * Output: one JSON object per line on stdout ("records"). run.py
 * turns them into metrics; the driver itself does no arithmetic
 * beyond timing.
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "svc/jobspec.hh"

namespace perfbench {

/** `copies` identical submissions of one job, sent back to back. */
struct JobGroup
{
    unsigned copies = 1;
    fireaxe::svc::JobSpec spec;
};

struct Plan
{
    std::string workload;
    /** "serial": one JobRunner job at a time, closed loop.
     *  "service": a SimService with `workers` threads, at most
     *  `workers` jobs in flight. */
    std::string runner = "serial";
    unsigned workers = 1;
    std::vector<JobGroup> groups;
    /** Submission order of each round (indices into groups). Every
     *  round starts with empty caches. */
    std::vector<std::vector<size_t>> rounds;
};

/** Parse a plan file; false with a diagnostic on any malformed
 *  entry. */
bool loadPlan(const std::string &path, Plan &plan, std::string &error);

/** One output record: a JSON object with a "kind" member, written
 *  as one line to stdout on destruction (thread-safe). */
class Record
{
  public:
    explicit Record(const char *kind);
    ~Record();
    Record(const Record &) = delete;
    Record &operator=(const Record &) = delete;

    template <typename T>
    Record &
    put(const char *key, const T &value)
    {
        w_.key(key);
        w_.value(value);
        return *this;
    }

    /** Pre-encoded JSON member (e.g. a protocol line). */
    Record &raw(const char *key, const std::string &json);

    fireaxe::obs::JsonWriter &writer() { return w_; }

  private:
    std::ostringstream os_;
    fireaxe::obs::JsonWriter w_{os_};
};

using Clock = std::chrono::steady_clock;

inline double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Remove a job's snapshot directory and stream file (creating the
 *  stream file's directory), so every round starts from the same
 *  disk state. */
void clearJobFiles(const fireaxe::svc::JobSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
