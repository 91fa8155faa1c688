/**
 * @file
 * The measured part of a run: every round of a plan through the
 * production job path, one "job" record per submission and one
 * "round" record per round.
 *
 * A job record carries the job's protocol line (svc::resultLine or
 * svc::errorLine, exactly what `fireaxed` would send), its latency
 * from submission to that terminal line, and its queue wait. A job
 * whose terminal line never arrived is recorded with terminal
 * "missing".
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "plan.hh"

namespace perfbench {

void runRounds(const Plan &plan);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
