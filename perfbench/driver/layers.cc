#include "layers.hh"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "passes/flatten.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "recovery/snapshot.hh"
#include "rtlsim/simulator.hh"
#include "svc/jobrunner.hh"
#include "svc/protocol.hh"
#include "svc/targets.hh"
#include "transport/fault.hh"
#include "transport/link.hh"
#include "verify/verify.hh"

namespace perfbench {

namespace fs = std::filesystem;
namespace platform = fireaxe::platform;
namespace ripper = fireaxe::ripper;
namespace rtlsim = fireaxe::rtlsim;
namespace svc = fireaxe::svc;

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
/** Repetitions behind every probe timing (its median is reported). */
constexpr unsigned kRepeats = 5;
/** Each monolithic timing window lasts at least this long. */
constexpr double kMonoWindowNs = 30e6;

template <typename F>
double
timeNs(F &&f)
{
    auto t0 = Clock::now();
    f();
    return nsSince(t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** JobRunner::elaborate's plan for @p spec, built afresh. */
ripper::PartitionPlan
elaborate(const svc::JobSpec &spec, double *partition_ns = nullptr)
{
    const svc::TargetInfo *t = svc::findTarget(spec.target);
    auto circuit = t->build();
    auto pspec = t->spec(circuit);
    pspec.mode = spec.mode == "fast" ? ripper::PartitionMode::Fast
                                     : ripper::PartitionMode::Exact;
    ripper::PartitionPlan plan;
    double ns = timeNs([&] { plan = ripper::partition(circuit, pspec); });
    if (partition_ns)
        *partition_ns = ns;
    if (spec.channelCapacity >= 0)
        for (auto &ch : plan.channels)
            ch.capacity = size_t(spec.channelCapacity);
    return plan;
}

/** A sim on JobRunner's hardware (one U250 per partition, QSFP
 *  links) with pre-flight verification off, as JobRunner runs it. */
std::unique_ptr<platform::MultiFpgaSim>
bareSim(const ripper::PartitionPlan &plan)
{
    std::vector<platform::FpgaSpec> fpgas(plan.partitions.size(),
                                          platform::alveoU250(100.0));
    auto sim = std::make_unique<platform::MultiFpgaSim>(
        plan, fpgas, fireaxe::transport::qsfpAurora());
    sim->setVerifyPolicy(platform::VerifyPolicy::Off);
    return sim;
}

/** JobRunner::prepare's sim for @p spec, without its monitor. */
std::unique_ptr<platform::MultiFpgaSim>
jobSim(const svc::JobSpec &spec, const ripper::PartitionPlan &plan)
{
    auto sim = bareSim(plan);
    if (spec.faultRate > 0.0)
        sim->setFaultModel(fireaxe::transport::FaultConfig::uniform(
            spec.faultRate, spec.seed));
    platform::ExecConfig exec;
    if (!spec.engine.empty())
        exec.evalEngine = rtlsim::parseEvalEngine(spec.engine);
    if (spec.batchDepth > 0)
        exec.batchDepth = spec.batchDepth;
    exec.snapshotEveryCycles = spec.snapshotEvery;
    exec.snapshotDir = spec.snapshotDir;
    sim->setExecConfig(exec);
    return sim;
}

platform::ExecConfig
engineConfig(rtlsim::EvalEngine engine, unsigned depth)
{
    platform::ExecConfig exec;
    exec.evalEngine = engine;
    exec.batchDepth = depth;
    return exec;
}

void
probeArtifact(const svc::JobSpec &spec)
{
    std::vector<double> part, ver, annot, cold, warm;
    ripper::PartitionPlan plan;
    for (unsigned r = 0; r < kRepeats; ++r) {
        double ns = 0.0;
        plan = elaborate(spec, &ns);
        part.push_back(ns);
    }

    // Same options as JobRunner's verify phase.
    fireaxe::verify::Options opts;
    opts.checkDeadLogic = false;
    size_t findings = 0;
    for (unsigned r = 0; r < kRepeats; ++r)
        ver.push_back(timeNs([&] {
            findings = fireaxe::verify::verifyPlan(plan, opts)
                           .diagnostics().size();
        }));

    const auto compiled = rtlsim::EvalEngine::Compiled;
    for (unsigned r = 0; r < kRepeats; ++r) {
        auto sim = bareSim(plan);
        auto exec = engineConfig(compiled, 32);
        annot.push_back(timeNs([&] { sim->setExecConfig(exec); }));
    }

    size_t nparts = plan.partitions.size();
    for (unsigned r = 0; r < kRepeats; ++r) {
        auto sim = bareSim(plan);
        sim->setExecConfig(engineConfig(compiled, 1));
        cold.push_back(timeNs([&] { sim->init(); }));
        svc::ArtifactCache::ProgramSet programs;
        for (size_t p = 0; p < nparts; ++p)
            programs.push_back(sim->compiledProgram(int(p)));

        auto again = bareSim(plan);
        again->setExecConfig(engineConfig(compiled, 1));
        again->setPrecompiledPrograms(programs);
        warm.push_back(timeNs([&] { again->init(); }));
    }

    Record rec("artifact");
    rec.put("target", spec.target)
        .put("mode", spec.mode)
        .put("partitions", uint64_t(nparts))
        .put("verify_findings", uint64_t(findings))
        .put("partition_ms", median(part) / 1e6)
        .put("verify_plan_ms", median(ver) / 1e6)
        .put("batch_annotate_ms", median(annot) / 1e6)
        .put("init_ms_cold", median(cold) / 1e6)
        .put("init_ms_warm", median(warm) / 1e6);
}

void
probeMono(const std::string &target, uint64_t chunk)
{
    const svc::TargetInfo *t = svc::findTarget(target);
    rtlsim::Simulator sim(fireaxe::passes::flattenAll(t->build()),
                          rtlsim::EvalEngine::Compiled);
    sim.run(chunk); // warm-up
    std::vector<double> rates;
    for (unsigned r = 0; r < kRepeats; ++r) {
        uint64_t cycles = 0;
        double ns = 0.0;
        while (ns < kMonoWindowNs) {
            ns += timeNs([&] { sim.run(chunk); });
            cycles += chunk;
        }
        rates.push_back(double(cycles) / (ns / 1e9));
    }
    Record rec("mono");
    rec.put("target", target)
        .put("nodes", uint64_t(sim.numNodes()))
        .put("cycles_per_s", median(rates));
}

/** Fold per-partition hashes the way JobRunner folds its trace. */
uint64_t
foldHashes(const std::vector<uint64_t> &hashes)
{
    uint64_t h = kFnvOffset;
    for (uint64_t p : hashes)
        h = fireaxe::recovery::fnv1aMix(h, p);
    return h;
}

/** Run the bare job sim for @p spec, optionally with a copy of
 *  JobRunner's per-cycle all-signal trace-hash monitor. Returns the
 *  run phase's wall ns; @p trace receives the folded hash. */
double
runBare(const svc::JobSpec &spec, const ripper::PartitionPlan &plan,
        bool monitor, uint64_t &trace)
{
    clearJobFiles(spec);
    auto sim = jobSim(spec, plan);
    size_t nparts = plan.partitions.size();
    std::vector<uint64_t> hashes(nparts, kFnvOffset);
    uint64_t hash_from = spec.hashFrom;
    if (monitor) {
        for (size_t p = 0; p < nparts; ++p)
            sim->setMonitor(
                int(p), [&hashes, hash_from, p](rtlsim::Simulator &s,
                                                unsigned thread,
                                                uint64_t cycle) {
                    if (cycle < hash_from)
                        return;
                    uint64_t h = hashes[p];
                    h = fireaxe::recovery::fnv1aMix(h, cycle);
                    h = fireaxe::recovery::fnv1aMix(h, thread);
                    for (size_t i = 0; i < s.numSignals(); ++i)
                        h = fireaxe::recovery::fnv1aMix(
                            h, s.peekIdx(int(i)));
                    hashes[p] = h;
                });
    }
    sim->init();
    double ns = timeNs([&] { sim->run(spec.cycles); });
    trace = foldHashes(hashes);
    return ns;
}

void
probeConfig(const svc::JobSpec &spec)
{
    svc::JobSpec quiet = spec;
    quiet.stream = false;
    quiet.streamPath.clear();
    bool streams = !spec.streamPath.empty();
    ripper::PartitionPlan plan = elaborate(spec);

    // The monitor and stream shares come from back-to-back pairs, so
    // host speed drifting between repetitions cancels out.
    std::vector<double> asSubmitted, streamOff, streamShare, noMonitor,
        withMonitor, monitorShare;
    uint64_t stream_bytes = 0;
    uint64_t monitor_trace = 0;
    uint64_t unused = 0;
    bool ok = true;
    for (unsigned r = 0; r < kRepeats; ++r) {
        clearJobFiles(spec);
        svc::RunOutcome o = svc::runJob(spec);
        ok = ok && o.ok;
        asSubmitted.push_back(o.runNs);
        if (streams) {
            std::error_code ec;
            stream_bytes = fs::file_size(spec.streamPath, ec);
            clearJobFiles(spec);
            svc::RunOutcome q = svc::runJob(quiet);
            ok = ok && q.ok;
            streamOff.push_back(q.runNs);
            streamShare.push_back(1.0 - q.runNs / o.runNs);
        }
        noMonitor.push_back(runBare(quiet, plan, false, unused));
        withMonitor.push_back(runBare(quiet, plan, true, monitor_trace));
        monitorShare.push_back(1.0 - noMonitor.back() / withMonitor.back());
    }

    // One instrumented run: a counting no-op Driver (the model calls
    // it right before every evalComb) and end-of-run metrics.
    clearJobFiles(spec);
    svc::JobRunner runner(quiet);
    if (!runner.prepare()) {
        Record rec("probe_error");
        rec.put("target", spec.target).put("error", runner.outcome().error);
        return;
    }
    platform::MultiFpgaSim &sim = *runner.sim();
    fireaxe::obs::TelemetryConfig tcfg;
    tcfg.metrics = true;
    tcfg.fmrSampleIntervalNs = 0.0;
    sim.setTelemetry(tcfg);
    size_t nparts = sim.plan().partitions.size();
    std::vector<uint64_t> evals(nparts, 0);
    for (size_t p = 0; p < nparts; ++p)
        sim.setDriver(int(p),
                      [&evals, p](rtlsim::Simulator &, unsigned,
                                  uint64_t) { ++evals[p]; });
    const svc::RunOutcome &o = runner.execute();
    const auto &metrics = o.result.metrics;

    uint64_t eval_calls = 0, nodes = 0, host_cycles = 0, fires = 0,
             advances = 0, tokens = 0;
    double wait_ns = 0.0;
    for (size_t p = 0; p < nparts; ++p) {
        const std::string base =
            "part." + sim.plan().partitionNames[p] + ".";
        eval_calls += evals[p];
        host_cycles += uint64_t(metrics.gauge(base + "host_cycles"));
        nodes += uint64_t(metrics.gauge(base + "eval.nodes_evaluated"));
        wait_ns += metrics.gauge(base + "wait_ns");
        fires += sim.model(int(p)).totalFires();
        advances += sim.model(int(p)).totalAdvances();
    }
    const std::string suffix = ".tokens_enqueued";
    for (const auto &[path, value] : metrics.values)
        if (path.rfind("chan.", 0) == 0 && path.size() > suffix.size() &&
            path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            tokens += value.count;

    Record rec("probe");
    rec.put("target", spec.target)
        .put("mode", spec.mode)
        .put("engine", spec.engine)
        .put("batch_depth", uint64_t(spec.batchDepth))
        .put("fault_rate", spec.faultRate)
        .put("ok", ok && o.ok)
        .put("partitions", uint64_t(nparts))
        .put("target_cycles", o.result.targetCycles)
        .put("host_time_ns", o.result.hostTimeNs)
        .put("trace_hash", svc::hexHash(o.traceHash))
        .put("final_sig", svc::hexHash(o.finalSig))
        .put("monitor_trace_hash", svc::hexHash(monitor_trace))
        .put("run_ns", median(asSubmitted))
        .put("run_ns_stream_off", median(streamOff))
        .put("stream_share", median(streamShare))
        .put("run_ns_no_monitor", median(noMonitor))
        .put("run_ns_hash_monitor", median(withMonitor))
        .put("hash_monitor_share", median(monitorShare))
        .put("run_ns_instrumented", o.runNs)
        .put("stream_bytes", stream_bytes)
        .put("eval_calls", eval_calls)
        .put("nodes_evaluated", nodes)
        .put("host_cycles", host_cycles)
        .put("wait_ns", wait_ns)
        .put("fires", fires)
        .put("advances", advances)
        .put("retransmits", o.result.retransmits)
        .put("tokens_enqueued", tokens)
        .put("snapshots", o.snapshots)
        .put("snapshot_bytes", o.snapshotBytes)
        .put("snapshot_wall_ms", o.snapshotWallMs);
    clearJobFiles(spec);
}

/** A configuration's identity, without its per-job file paths. */
std::string
configKey(const svc::JobSpec &spec)
{
    svc::JobSpec key = spec;
    key.snapshotDir.clear();
    key.streamPath = key.streamPath.empty() ? "" : "stream";
    std::ostringstream os;
    fireaxe::obs::JsonWriter w(os);
    key.writeJson(w);
    return os.str();
}

} // namespace

void
runProbes(const Plan &plan)
{
    std::set<uint64_t> artifacts;
    std::map<std::string, uint64_t> targets; // name -> cycles
    std::set<std::string> configs;
    for (const JobGroup &g : plan.groups) {
        const svc::JobSpec &spec = g.spec;
        if (artifacts.insert(spec.elabSignature()).second)
            probeArtifact(spec);
        targets.emplace(spec.target, spec.cycles);
        if (configs.insert(configKey(spec)).second)
            probeConfig(spec);
    }
    for (const auto &[target, cycles] : targets)
        probeMono(target, std::max<uint64_t>(cycles, 1000));
}

} // namespace perfbench
