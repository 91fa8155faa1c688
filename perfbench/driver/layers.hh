/**
 * @file
 * The traced run's per-layer probes. They time calls into each
 * module's public functions from the benchmark's own code and read
 * the counts the program already exposes (RunOutcome, RunResult,
 * model(p) accessors, part.* / chan.* telemetry metrics). Nothing
 * inside the program is instrumented.
 *
 * Records emitted:
 *  - "artifact", once per distinct elaboration (target, mode):
 *    ripper::partition, verify::verifyPlan, the depth-32
 *    setExecConfig (batching legality pass), and MultiFpgaSim::init
 *    with and without cached compiled programs.
 *  - "mono", once per target: the flattened design on the compiled
 *    engine, monolithically (the yardstick).
 *  - "probe", once per distinct job configuration: the job's run
 *    phase as submitted, with the stream off, and as a bare sim with
 *    and without a copy of JobRunner's trace-hash monitor (each
 *    pair back to back, with the median of the pairs' shares); then
 *    one instrumented run (a counting no-op Driver plus metrics
 *    telemetry) for the exact counts.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include "plan.hh"

namespace perfbench {

/** Probe every distinct configuration of @p plan; each timing is
 *  the median of five. */
void runProbes(const Plan &plan);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
