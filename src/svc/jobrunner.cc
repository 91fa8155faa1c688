#include "svc/jobrunner.hh"

#include <algorithm>
#include <chrono>

#include "platform/fpga.hh"
#include "recovery/snapshot.hh"
#include "rtlsim/engine.hh"
#include "svc/targets.hh"
#include "transport/fault.hh"
#include "transport/link.hh"
#include "verify/verify.hh"

namespace fireaxe::svc {

namespace {

double
elapsedNs(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

JobRunner::JobRunner(JobSpec spec, ArtifactCache *cache)
    : spec_(std::move(spec)), cache_(cache)
{}

JobRunner::~JobRunner() = default;

bool
JobRunner::elaborate()
{
    auto t0 = std::chrono::steady_clock::now();
    auto build = [this]() -> std::shared_ptr<const Elaboration> {
        const TargetInfo *t = findTarget(spec_.target);
        auto circuit = t->build();
        auto pspec = t->spec(circuit);
        pspec.mode = spec_.mode == "fast"
                         ? ripper::PartitionMode::Fast
                         : ripper::PartitionMode::Exact;
        auto fresh = std::make_shared<Elaboration>();
        fresh->plan = ripper::partition(circuit, pspec);
        if (spec_.channelCapacity >= 0)
            for (auto &ch : fresh->plan.channels)
                ch.capacity = size_t(spec_.channelCapacity);
        fresh->contentHash = platform::contentHash(fresh->plan);
        fresh->byteSize = estimatePlanBytes(fresh->plan);
        return fresh;
    };
    elab_ = cache_ ? cache_->elaboration(spec_.elabSignature(), build,
                                         outcome_.elabCacheHit)
                   : build();
    outcome_.elaborateNs = elapsedNs(t0);
    outcome_.artifactHash = elab_->contentHash;
    return true;
}

bool
JobRunner::verifyPhase()
{
    auto t0 = std::chrono::steady_clock::now();
    auto build = [this]() -> std::shared_ptr<const verify::Report> {
        // Same options as the executor's own pre-flight gate (IR005
        // dead-logic is too noisy for a hard gate), so skipping the
        // executor's verification below loses nothing.
        verify::Options opts;
        opts.checkDeadLogic = false;
        return std::make_shared<verify::Report>(
            verify::verifyPlan(elab_->plan, opts));
    };
    std::shared_ptr<const verify::Report> report =
        cache_ ? cache_->report(elab_->contentHash, build,
                                outcome_.verifyCacheHit)
               : build();
    outcome_.verifyNs = elapsedNs(t0);
    if (report->hasErrors()) {
        outcome_.error = "plan rejected by static verification";
        outcome_.verifyReport = report->renderText();
        outcome_.exitCode = 3;
        return false;
    }
    if (!report->empty())
        outcome_.verifyReport = report->renderText();
    return true;
}

bool
JobRunner::prepare()
{
    std::string bad = spec_.validate();
    if (!bad.empty()) {
        outcome_.error = bad;
        outcome_.exitCode = 2;
        return false;
    }
    try {
        if (!elaborate() || !verifyPhase())
            return false;

        const auto &plan = elab_->plan;
        std::vector<platform::FpgaSpec> fpgas(
            plan.partitions.size(), platform::alveoU250(100.0));
        sim_ = std::make_unique<platform::MultiFpgaSim>(
            plan, fpgas, transport::qsfpAurora());
        // The plan was verified (or fetched verified) above — don't
        // pay for the executor's own pre-flight pass again.
        sim_->setVerifyPolicy(platform::VerifyPolicy::Off);

        if (spec_.faultRate > 0.0)
            sim_->setFaultModel(transport::FaultConfig::uniform(
                spec_.faultRate, spec_.seed));

        platform::ExecConfig exec;
        if (!spec_.engine.empty())
            exec.evalEngine = rtlsim::parseEvalEngine(spec_.engine);
        if (spec_.batchDepth > 0)
            exec.batchDepth = spec_.batchDepth;
        exec.snapshotEveryCycles = spec_.snapshotEvery;
        exec.snapshotDir = spec_.snapshotDir;
        sim_->setExecConfig(exec);

        outcome_.planHash = sim_->planHash();
        prepared_ = true;
        return true;
    } catch (const std::exception &e) {
        outcome_.error = e.what();
        outcome_.exitCode = 3;
        return false;
    }
}

const RunOutcome &
JobRunner::execute(std::ostream *stream_sink)
{
    if (!prepared_) {
        if (outcome_.error.empty()) {
            outcome_.error = "execute() without a prepared job";
            outcome_.exitCode = 3;
        }
        return outcome_;
    }
    try {
        const auto &plan = elab_->plan;
        size_t nparts = plan.partitions.size();

        if (stream_sink || spec_.stream ||
            !spec_.streamPath.empty()) {
            obs::TelemetryConfig tcfg;
            tcfg.streamSink = stream_sink;
            tcfg.streamPath = spec_.streamPath;
            tcfg.tokenSampleEvery = spec_.sampleEvery;
            tcfg.streamEveryCycles = spec_.streamEvery;
            tcfg.runLabel = spec_.target;
            sim_->setTelemetry(tcfg);
        }

        // Per-partition running trace hash, updated by the
        // partition's monitor on the job's run thread. Cycles below
        // hashFrom stay excluded
        // symmetrically in resumed and golden runs.
        outcome_.hashFrom = spec_.hashFrom;
        traceHash_.assign(nparts, recovery::kFnvOffset);
        for (size_t p = 0; p < nparts; ++p) {
            sim_->setMonitor(
                int(p), [this, p](rtlsim::Simulator &s,
                                  unsigned thread, uint64_t cycle) {
                    if (cycle < outcome_.hashFrom)
                        return;
                    uint64_t h = traceHash_[p];
                    h = recovery::fnv1aMix(h, cycle);
                    h = recovery::fnv1aMix(h, thread);
                    traceHash_[p] =
                        recovery::hashSignals(h, s.values());
                });
        }

        // Compiled programs come out of the cache when another run
        // of this content already compiled them (a shape mismatch
        // degrades to a fresh compile inside the engine, never to
        // wrong results); otherwise this run's init compiles them
        // and they are harvested for the next submission. Concurrent
        // first runs of one design compile once: the others wait.
        auto t0 = std::chrono::steady_clock::now();
        bool initialized = false;
        if (sim_->execConfig().evalEngine ==
                rtlsim::EvalEngine::Compiled &&
            cache_) {
            auto build =
                [&]() -> std::shared_ptr<const ArtifactCache::ProgramSet> {
                sim_->init();
                initialized = true;
                auto set = std::make_shared<ArtifactCache::ProgramSet>();
                for (size_t p = 0; p < nparts; ++p) {
                    set->push_back(sim_->compiledProgram(int(p)));
                    if (!set->back())
                        return nullptr;
                }
                return set;
            };
            auto set = cache_->programs(elab_->contentHash, build,
                                        outcome_.programCacheHit);
            if (outcome_.programCacheHit)
                sim_->setPrecompiledPrograms(*set);
        }
        if (!initialized)
            sim_->init();
        outcome_.initNs = elapsedNs(t0);

        if (spec_.resume) {
            std::string error;
            if (!sim_->restore(spec_.snapshotDir, error)) {
                outcome_.error = "restore failed: " + error;
                outcome_.exitCode = 3;
                return outcome_;
            }
            // Partitions may sit at different cycles at the cut; the
            // comparable suffix starts where the furthest one
            // resumes.
            for (size_t p = 0; p < nparts; ++p)
                outcome_.resumeCycle = std::max(
                    outcome_.resumeCycle,
                    sim_->model(int(p)).minTargetCycle());
            outcome_.hashFrom =
                std::max(outcome_.hashFrom, outcome_.resumeCycle);
        }

        t0 = std::chrono::steady_clock::now();
        outcome_.result = sim_->run(spec_.cycles);
        outcome_.runNs = elapsedNs(t0);

        // A drain (requestStop) leaves the sim at a quiesce point;
        // commit a resumable snapshot when the job has somewhere to
        // put one.
        if (outcome_.result.stopped && sim_->stopRequested() &&
            !spec_.snapshotDir.empty()) {
            std::string error;
            if (!sim_->snapshot(spec_.snapshotDir, error))
                outcome_.error = "drain snapshot failed: " + error;
        }

        uint64_t trace = recovery::kFnvOffset;
        for (size_t p = 0; p < nparts; ++p)
            trace = recovery::fnv1aMix(trace, traceHash_[p]);
        outcome_.traceHash = trace;

        uint64_t final_sig = recovery::kFnvOffset;
        for (size_t p = 0; p < nparts; ++p) {
            const auto &m = sim_->model(int(p));
            final_sig = recovery::hashSignals(
                recovery::fnv1aMix(final_sig, m.minTargetCycle()),
                m.sim().values());
        }
        outcome_.finalSig = final_sig;

        outcome_.snapshots = sim_->snapshotCount();
        outcome_.snapshotBytes = sim_->lastSnapshotBytes();
        outcome_.snapshotWallMs = sim_->totalSnapshotWallMs();
        outcome_.restores = sim_->restoreCount();

        outcome_.ok = outcome_.error.empty() &&
                      !outcome_.result.deadlocked;
        outcome_.exitCode = outcome_.result.deadlocked ? 4
                            : outcome_.ok              ? 0
                                                       : 3;
        return outcome_;
    } catch (const std::exception &e) {
        outcome_.ok = false;
        outcome_.error = e.what();
        outcome_.exitCode = 3;
        return outcome_;
    }
}

RunOutcome
runJob(const JobSpec &spec, ArtifactCache *cache,
       std::ostream *stream_sink)
{
    JobRunner runner(spec, cache);
    if (!runner.prepare())
        return runner.outcome();
    return runner.execute(stream_sink);
}

} // namespace fireaxe::svc
