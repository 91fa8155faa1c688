/**
 * @file
 * perfbench_driver: the compiled half of the wall-clock benchmark.
 *
 *   perfbench_driver run PLAN [--trace]
 *       Run every round of PLAN through the production job path and
 *       print one JSON record per line (see plan.hh, workloads.hh);
 *       --trace adds the per-layer probes of layers.hh.
 *   perfbench_driver golden PLAN
 *       Run each distinct (target, mode, cycles) of PLAN once in the
 *       reference configuration (interpreter, batch depth 1, no
 *       faults, no snapshots, no stream) and print its trace hash
 *       and final signature.
 *
 * run.py builds this program, writes the plans, and turns the records
 * into metrics; perfbench/README.md defines every metric.
 */

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "layers.hh"
#include "plan.hh"
#include "svc/jobrunner.hh"
#include "svc/protocol.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;
namespace svc = fireaxe::svc;

/** Every environment variable the simulator reads. Cleared so an
 *  inherited setting (CI's FIREAXE_BATCH_DEPTH=8 leg, say) cannot
 *  change a workload; each plan spells out what it needs. */
const char *const kPinnedEnv[] = {
    "FIREAXE_EVAL",
    "FIREAXE_BATCH_DEPTH",
    "FIREAXE_PIPELINED_EPOCHS",
    "FIREAXE_SNAPSHOT_DIR",
    "FIREAXE_STREAM",
    "FIREAXE_NO_VERIFY",
};

int
usage()
{
    std::cerr << "usage: perfbench_driver run PLAN [--trace]\n"
                 "       perfbench_driver golden PLAN\n";
    return 2;
}

void
emitEnv(const Plan &plan)
{
    Record rec("env");
    rec.put("workload", plan.workload)
        .put("build_type", PERFBENCH_BUILD_TYPE)
        .put("compiler", PERFBENCH_COMPILER)
        .put("hardware_threads",
             uint64_t(std::thread::hardware_concurrency()));
}

void
emitGoldens(const Plan &plan)
{
    std::set<std::tuple<std::string, std::string, uint64_t>> seen;
    for (const JobGroup &g : plan.groups) {
        const svc::JobSpec &s = g.spec;
        if (!seen.emplace(s.target, s.mode, s.cycles).second)
            continue;
        svc::JobSpec ref;
        ref.target = s.target;
        ref.mode = s.mode;
        ref.cycles = s.cycles;
        ref.engine = "interpret";
        ref.batchDepth = 1;
        svc::RunOutcome o = svc::runJob(ref);
        Record rec("golden");
        rec.put("target", ref.target)
            .put("mode", ref.mode)
            .put("cycles", ref.cycles)
            .put("ok", o.ok)
            .put("trace_hash", svc::hexHash(o.traceHash))
            .put("final_sig", svc::hexHash(o.finalSig));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    for (const char *name : kPinnedEnv)
        unsetenv(name);

    if (argc < 3)
        return usage();
    std::string cmd = argv[1];
    bool trace = false;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace"))
            return usage();
        trace = true;
    }

    Plan plan;
    std::string error;
    if (!loadPlan(argv[2], plan, error)) {
        std::cerr << "perfbench_driver: " << error << "\n";
        return 2;
    }

    if (cmd == "golden") {
        emitGoldens(plan);
        return 0;
    }
    if (cmd != "run")
        return usage();

    emitEnv(plan);
    runRounds(plan);
    if (trace)
        runProbes(plan);

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    Record("rusage").put("peak_rss_kb", uint64_t(ru.ru_maxrss));
    return 0;
}
