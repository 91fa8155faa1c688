/**
 * @file
 * google-benchmark microbenchmarks of the simulator infrastructure
 * itself: RTL-interpreter cycle throughput, LI-BDN tick cost,
 * FireRipper compile time, and the uarch model's instruction
 * throughput. These guard the host-side performance that the
 * figure-level harnesses depend on.
 *
 * `--engine interpret,compiled` switches it into an
 * evaluation-engine sweep instead: a set of shipped targets spanning
 * high activity (bus SoC) to long quiescent phases (Gemmini, SHA3,
 * boot) is run monolithically under each requested engine, reporting
 * cycles/sec, speedup over the interpreter, the fraction of node
 * evaluations the activity gating skipped, and a final-state
 * signature check that fails the run on any cross-engine divergence.
 *
 * `--snapshot-every N[,M,...]` switches it into a snapshot-overhead
 * sweep instead: a three-partition bus SoC is co-simulated once
 * without snapshots and once per requested autosnapshot interval
 * (ExecConfig::snapshotEveryCycles), reporting snapshot count, size,
 * cumulative pause time and wall-clock overhead per row. Each row
 * additionally restores the last committed snapshot into a fresh
 * simulator, reruns to the target cycle and checks the final state
 * against the snapshot-free baseline bit-for-bit. `--snapshot-dir`
 * keeps the snapshot directories for inspection (and for feeding
 * `--resume-from`, which measures a single restore-and-finish run).
 *
 * `--token-trace [N,M,...]` switches it into a token-tracing
 * overhead sweep instead: a two-partition bus SoC is co-simulated
 * once with telemetry off and once per requested sampling rate
 * (default 1,16,64) with causal token tracing enabled, reporting the
 * record count and wall-clock overhead per row plus a bit-exactness
 * check — tracing is observe-only, so any perturbation of the
 * simulated timeline fails the sweep.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "sweep_common.hh"

#include "recovery/snapshot.hh"

#include "obs/telemetry.hh"
#include "passes/flatten.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "ripper/partition.hh"
#include "rtlsim/simulator.hh"
#include "target/accelerators.hh"
#include "target/bus_soc.hh"
#include "target/noc_soc.hh"
#include "transport/link.hh"
#include "uarch/core_model.hh"
#include "uarch/params.hh"

using namespace fireaxe;

static void
BM_RtlSimCycle(benchmark::State &state)
{
    target::BusSocConfig cfg;
    cfg.numTiles = unsigned(state.range(0));
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    rtlsim::Simulator sim(passes::flattenAll(soc));
    for (auto _ : state) {
        sim.step();
        benchmark::DoNotOptimize(sim.peek("status"));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtlSimCycle)->Arg(2)->Arg(8)->Arg(24);

static void
BM_FireRipperCompile(benchmark::State &state)
{
    target::BusSocConfig cfg;
    cfg.numTiles = unsigned(state.range(0));
    auto soc = target::buildBusSoc(cfg);
    ripper::PartitionSpec spec;
    spec.groups.push_back(
        {"tiles", target::busSocTilePaths(cfg.numTiles / 2), 1});
    for (auto _ : state) {
        auto plan = ripper::partition(soc, spec);
        benchmark::DoNotOptimize(plan.nets.size());
    }
}
BENCHMARK(BM_FireRipperCompile)->Arg(4)->Arg(16);

static void
BM_MultiFpgaTargetCycle(benchmark::State &state)
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    ripper::PartitionSpec spec;
    spec.groups.push_back(
        {"tiles", target::busSocTilePaths(2), 1});
    auto plan = ripper::partition(soc, spec);
    platform::MultiFpgaSim sim(
        plan, {platform::alveoU250(50.0), platform::alveoU250(50.0)},
        transport::qsfpAurora());
    sim.init();
    uint64_t goal = 0;
    for (auto _ : state) {
        goal += 10;
        sim.run(goal);
    }
    state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_MultiFpgaTargetCycle);

static void
BM_UarchModelInstruction(benchmark::State &state)
{
    uarch::CoreModel model(uarch::gc40BoomParams());
    auto profile = uarch::embenchProfile("crc32");
    profile.instructions = 20000;
    for (auto _ : state) {
        auto r = model.run(profile);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_UarchModelInstruction);

namespace {

/**
 * FNV-1a over every partition's reached cycle and full signal table;
 * equal signatures witness bit-exact final state across a
 * snapshot/restore cut (same convention as tests/recovery_test.cc).
 */
uint64_t
finalStateSignature(platform::MultiFpgaSim &sim, size_t nparts)
{
    uint64_t h = recovery::kFnvOffset;
    for (size_t p = 0; p < nparts; ++p) {
        auto &m = sim.model(int(p));
        h = recovery::hashSignals(
            recovery::fnv1aMix(h, m.minTargetCycle()), m.sim().values());
    }
    return h;
}

/**
 * Sweep the autosnapshot interval on a three-partition bus SoC
 * (two tiles split out plus the rest partition) and report what the
 * crash-consistency machinery costs: per row the snapshot count,
 * last snapshot size, cumulative snapshot pause, wall-clock overhead
 * versus the snapshot-free baseline, and two bit-exactness checks —
 * the snapshotting run itself must not perturb the simulation, and a
 * fresh simulator restored from the last committed generation and
 * rerun to the target cycle must land in the identical final state.
 */
int
runSnapshotSweep(const std::vector<uint64_t> &intervals,
                 uint64_t cycles, const std::string &json_path,
                 std::string base_dir)
{
    if (cycles == 0)
        cycles = 2000;

    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    spec.groups.push_back({"t0", {"tile0"}, 1});
    spec.groups.push_back({"t1", {"tile1"}, 1});
    auto plan = ripper::partition(soc, spec);
    const size_t nparts = plan.partitions.size();
    auto fpgas = std::vector<platform::FpgaSpec>(
        nparts, platform::alveoU250(50.0));

    bool temp_base = base_dir.empty();
    if (temp_base) {
        char tmpl[] = "/tmp/fireaxe-bench-snap-XXXXXX";
        if (!mkdtemp(tmpl)) {
            std::fprintf(stderr,
                         "snapshot sweep: mkdtemp failed\n");
            return 1;
        }
        base_dir = tmpl;
    }

    bench::JsonRows rows(json_path);
    std::printf("snapshot sweep: bus SoC, %zu partitions, %llu "
                "target cycles, dir %s\n",
                nparts, (unsigned long long)cycles,
                base_dir.c_str());
    std::printf("%-10s %10s %12s %10s %10s %10s %10s %7s\n",
                "every", "snapshots", "bytes", "pause_ms", "wall_ms",
                "overhd_%", "bit_exact", "resume");

    double base_wall = 0.0;
    uint64_t base_sig = 0, plan_hash = 0, content_hash = 0;
    platform::RunResult base{};
    {
        platform::MultiFpgaSim sim(plan, fpgas,
                                   transport::qsfpAurora());
        sim.init();
        plan_hash = sim.planHash();
        content_hash = sim.contentHash();
        auto t0 = std::chrono::steady_clock::now();
        base = sim.run(cycles);
        base_wall = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        base_sig = finalStateSignature(sim, nparts);
    }
    std::printf("%-10s %10s %12s %10s %10.2f %10s %10s %7s\n",
                "off", "-", "-", "-", base_wall, "-", "ref", "-");
    {
        bench::JsonRow row;
        bench::addRunIdentity(
            row, "fireaxe.bench.v1", "bus_soc4", plan_hash,
            content_hash,
            rtlsim::toString(rtlsim::defaultEvalEngine()));
        row.field("partitions", uint64_t(nparts))
            .field("snapshot_every", uint64_t(0))
            .field("snapshot_count", uint64_t(0))
            .field("snapshot_bytes", uint64_t(0))
            .field("snapshot_pause_ms", 0.0)
            .field("target_cycles", base.targetCycles)
            .field("host_time_ns", base.hostTimeNs)
            .field("wall_ms", base_wall)
            .field("overhead_pct", 0.0)
            .field("bit_exact", true)
            .field("resume_bit_exact", true);
        rows.add(row);
    }

    int rc = 0;
    for (uint64_t every : intervals) {
        if (every == 0) {
            std::fprintf(stderr, "snapshot sweep: --snapshot-every "
                                 "interval must be > 0\n");
            return 1;
        }
        std::string dir =
            base_dir + "/every" + std::to_string(every);

        platform::ExecConfig exec;
        exec.snapshotEveryCycles = every;
        exec.snapshotDir = dir;
        double wall = 0.0;
        uint64_t snapshots = 0, bytes = 0, sig = 0;
        double pause_ms = 0.0;
        platform::RunResult res{};
        {
            platform::MultiFpgaSim sim(plan, fpgas,
                                       transport::qsfpAurora());
            sim.setExecConfig(exec);
            sim.init();
            auto t0 = std::chrono::steady_clock::now();
            res = sim.run(cycles);
            wall = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
            snapshots = sim.snapshotCount();
            bytes = sim.lastSnapshotBytes();
            pause_ms = sim.totalSnapshotWallMs();
            sig = finalStateSignature(sim, nparts);
        }
        bool exact = res.targetCycles == base.targetCycles &&
                     res.hostTimeNs == base.hostTimeNs &&
                     sig == base_sig;

        bool resume_ok = false;
        {
            platform::MultiFpgaSim resumed(plan, fpgas,
                                           transport::qsfpAurora());
            std::string err;
            if (resumed.restore(dir, err)) {
                auto rr = resumed.run(cycles);
                resume_ok =
                    !rr.deadlocked &&
                    finalStateSignature(resumed, nparts) == base_sig;
            } else {
                std::fprintf(stderr,
                             "snapshot sweep: restore from %s "
                             "failed: %s\n",
                             dir.c_str(), err.c_str());
            }
        }

        double overhead = base_wall > 0.0
                              ? (wall - base_wall) / base_wall * 100.0
                              : 0.0;
        std::printf("%-10llu %10llu %12llu %10.2f %10.2f %10.1f "
                    "%10s %7s\n",
                    (unsigned long long)every,
                    (unsigned long long)snapshots,
                    (unsigned long long)bytes, pause_ms, wall,
                    overhead, exact ? "yes" : "NO",
                    resume_ok ? "yes" : "NO");
        bench::JsonRow row;
        bench::addRunIdentity(
            row, "fireaxe.bench.v1", "bus_soc4", plan_hash,
            content_hash,
            rtlsim::toString(rtlsim::defaultEvalEngine()));
        row.field("partitions", uint64_t(nparts))
            .field("snapshot_every", every)
            .field("snapshot_count", snapshots)
            .field("snapshot_bytes", bytes)
            .field("snapshot_pause_ms", pause_ms)
            .field("target_cycles", res.targetCycles)
            .field("host_time_ns", res.hostTimeNs)
            .field("wall_ms", wall)
            .field("overhead_pct", overhead)
            .field("bit_exact", exact)
            .field("resume_bit_exact", resume_ok);
        rows.add(row);
        if (!exact || !resume_ok) {
            std::fprintf(stderr,
                         "snapshot sweep: interval %llu diverged "
                         "from the snapshot-free baseline\n",
                         (unsigned long long)every);
            rc = 1;
        }
    }
    rows.write();
    if (temp_base) {
        std::error_code ec;
        std::filesystem::remove_all(base_dir, ec);
    }
    return rc;
}

/**
 * Restore the committed snapshot in @p dir into the snapshot-sweep
 * design and finish the run to @p cycles, reporting the resume cost
 * (restore wall time, resumed-from cycle, finishing rate). Pairs
 * with `--snapshot-every ... --snapshot-dir DIR`, whose per-interval
 * directories it consumes.
 */
int
runResumeMeasurement(const std::string &dir, uint64_t cycles,
                     const std::string &json_path)
{
    if (cycles == 0)
        cycles = 2000;

    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    spec.groups.push_back({"t0", {"tile0"}, 1});
    spec.groups.push_back({"t1", {"tile1"}, 1});
    auto plan = ripper::partition(soc, spec);
    const size_t nparts = plan.partitions.size();

    platform::MultiFpgaSim sim(
        plan,
        std::vector<platform::FpgaSpec>(nparts,
                                        platform::alveoU250(50.0)),
        transport::qsfpAurora());
    std::string err;
    auto t0 = std::chrono::steady_clock::now();
    if (!sim.restore(dir, err)) {
        std::fprintf(stderr, "resume: restore from %s failed: %s\n",
                     dir.c_str(), err.c_str());
        return 1;
    }
    double restore_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    uint64_t resume_cycle = 0;
    for (size_t p = 0; p < nparts; ++p)
        resume_cycle =
            std::max(resume_cycle, sim.model(int(p)).minTargetCycle());

    t0 = std::chrono::steady_clock::now();
    auto res = sim.run(cycles);
    double wall = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    std::printf("resume: dir %s restore_ms %.2f resume_cycle %llu "
                "target_cycles %llu wall_ms %.2f rate_mhz %.4f "
                "deadlocked %d\n",
                dir.c_str(), restore_ms,
                (unsigned long long)resume_cycle,
                (unsigned long long)res.targetCycles, wall,
                res.simRateMhz(), res.deadlocked ? 1 : 0);
    bench::JsonRows rows(json_path);
    bench::JsonRow row;
    bench::addRunIdentity(
        row, "fireaxe.bench.v1", "bus_soc4", sim.planHash(),
        sim.contentHash(),
        rtlsim::toString(rtlsim::defaultEvalEngine()));
    row.field("partitions", uint64_t(nparts))
        .field("resume_from", dir)
        .field("restore_ms", restore_ms)
        .field("resume_cycle", resume_cycle)
        .field("target_cycles", res.targetCycles)
        .field("wall_ms", wall)
        .field("sim_rate_mhz", res.simRateMhz())
        .field("deadlocked", res.deadlocked);
    rows.add(row);
    rows.write();
    return res.deadlocked ? 1 : 0;
}

/**
 * Sweep the rtlsim evaluation engines over a spread of shipped
 * targets. The interpreter row of each design is the reference: the
 * speedup column is relative to it and every other engine's
 * final-state signature must match it bit-for-bit.
 */
int
runEngineSweep(const std::vector<rtlsim::EvalEngine> &engines,
               uint64_t cycles, const std::string &json_path)
{
    if (cycles == 0)
        cycles = 30000;

    struct Design
    {
        const char *name;
        firrtl::Circuit flat;
    };
    std::vector<Design> designs;
    {
        target::BusSocConfig cfg;
        cfg.numTiles = 4;
        cfg.memWords = 256;
        designs.push_back(
            {"bus_soc4",
             passes::flattenAll(target::buildBusSoc(cfg))});
    }
    designs.push_back(
        {"gemmini", passes::flattenAll(target::buildGemminiSoc())});
    designs.push_back(
        {"sha3", passes::flattenAll(target::buildSha3Soc())});
    designs.push_back(
        {"boot", passes::flattenAll(target::buildBootSoc())});

    bench::JsonRows rows(json_path);
    std::printf("engine sweep: %llu target cycles per design\n",
                (unsigned long long)cycles);
    std::printf("%-10s %-10s %10s %14s %9s %11s %9s\n", "design",
                "engine", "wall_ms", "cycles_per_s", "speedup",
                "gated_frac", "bit_exact");

    int rc = 0;
    for (const auto &design : designs) {
        bench::EnginePoint ref = bench::runEvalEngineMeasurement(
            design.flat, rtlsim::EvalEngine::Interpret, cycles);
        for (auto engine : engines) {
            bench::EnginePoint point =
                engine == rtlsim::EvalEngine::Interpret
                    ? ref
                    : bench::runEvalEngineMeasurement(design.flat,
                                                      engine, cycles);
            bool exact = point.signature == ref.signature;
            double speedup = point.wallMs > 0.0
                                 ? ref.wallMs / point.wallMs
                                 : 0.0;
            uint64_t total =
                point.nodesEvaluated + point.nodesSkipped;
            double gated =
                total > 0 ? double(point.nodesSkipped) / double(total)
                          : 0.0;
            std::printf("%-10s %-10s %10.2f %14.0f %9.2f %11.3f "
                        "%9s\n",
                        design.name, rtlsim::toString(engine),
                        point.wallMs, point.cyclesPerSec, speedup,
                        gated, exact ? "yes" : "NO");
            bench::JsonRow row;
            bench::addRunIdentity(row, "fireaxe.bench.v1",
                                  design.name, 0, 0,
                                  rtlsim::toString(engine));
            row.field("target_cycles", cycles)
                .field("wall_ms", point.wallMs)
                .field("cycles_per_sec", point.cyclesPerSec)
                .field("speedup_vs_interpret", speedup)
                .field("nodes_evaluated", point.nodesEvaluated)
                .field("nodes_skipped", point.nodesSkipped)
                .field("gated_fraction", gated)
                .field("bit_exact", exact);
            rows.add(row);
            if (!exact) {
                std::fprintf(stderr,
                             "engine sweep: %s under engine %s "
                             "diverged from the interpreter\n",
                             design.name, rtlsim::toString(engine));
                rc = 1;
            }
        }
    }
    rows.write();
    return rc;
}

/**
 * Price the token-level causal tracing (obs/tokentrace.hh): a
 * two-partition bus SoC is co-simulated once with telemetry off and
 * once per requested sampling rate with token tracing enabled,
 * reporting the sampled record count and the wall-clock overhead per
 * row (best of three runs each, to keep the percentages out of the
 * scheduler noise). Tracing is observe-only, so every instrumented
 * run must reproduce the baseline simulation bit-for-bit — target
 * cycles, simulated host time and final state signature; any
 * divergence fails the sweep.
 */
int
runTokenTraceSweep(const std::vector<uint64_t> &rates,
                   uint64_t cycles, const std::string &json_path)
{
    if (cycles == 0)
        cycles = 20000;

    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    spec.groups.push_back(
        {"tiles", target::busSocTilePaths(2), 1});
    auto plan = ripper::partition(soc, spec);
    const size_t nparts = plan.partitions.size();
    auto fpgas = std::vector<platform::FpgaSpec>(
        nparts, platform::alveoU250(50.0));

    struct Measured
    {
        platform::RunResult result;
        double wallMs = 1e300;
        uint64_t sig = 0;
        uint64_t planHash = 0;
        uint64_t contentHash = 0;
        uint64_t records = 0;
        uint64_t dropped = 0;
    };
    auto runOnce = [&](const obs::TelemetryConfig *tcfg,
                       Measured &m) {
        platform::MultiFpgaSim sim(plan, fpgas,
                                   transport::qsfpAurora());
        if (tcfg)
            sim.setTelemetry(*tcfg);
        sim.init();
        auto t0 = std::chrono::steady_clock::now();
        auto result = sim.run(cycles);
        double wall = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        if (wall < m.wallMs) {
            m.wallMs = wall;
            m.result = result;
        }
        m.sig = finalStateSignature(sim, nparts);
        m.planHash = sim.planHash();
        m.contentHash = sim.contentHash();
        if (auto *tel = sim.telemetry(); tel && tel->tokenTrace()) {
            m.records = tel->tokenTrace()->recordsCreated();
            m.dropped = tel->tokenTrace()->recordsDropped();
        }
    };

    bench::JsonRows rows(json_path);
    std::printf("token-trace sweep: bus SoC, %zu partitions, exact "
                "mode, %llu target cycles (best of 5)\n",
                nparts, (unsigned long long)cycles);
    std::printf("%-12s %10s %10s %10s %10s %10s\n", "sample", "records",
                "dropped", "wall_ms", "overhd_%", "bit_exact");

    // Interleave the repetitions (baseline, then each rate, five
    // rounds) and keep the per-config minimum: a host load spike then
    // hits every config alike instead of biasing whichever config it
    // landed on, which matters for single-digit-percent deltas.
    std::vector<obs::TelemetryConfig> tcfgs;
    for (uint64_t every : rates) {
        obs::TelemetryConfig tcfg;
        // Price the causal-tracing layer alone: the metrics registry
        // has its own cost and its own showcases (bench_fault_sweep
        // --metrics-json); here it stays off.
        tcfg.metrics = false;
        tcfg.tokenTrace = true;
        tcfg.tokenSampleEvery = unsigned(every ? every : 1);
        tcfgs.push_back(tcfg);
    }
    Measured base;
    std::vector<Measured> traced(tcfgs.size());
    for (int rep = 0; rep < 5; ++rep) {
        runOnce(nullptr, base);
        for (size_t i = 0; i < tcfgs.size(); ++i)
            runOnce(&tcfgs[i], traced[i]);
    }
    std::printf("%-12s %10s %10s %10.2f %10s %10s\n", "off", "-",
                "-", base.wallMs, "-", "ref");
    {
        bench::JsonRow row;
        bench::addRunIdentity(
            row, "fireaxe.bench.v1", "bus_soc4", base.planHash,
            base.contentHash,
            rtlsim::toString(rtlsim::defaultEvalEngine()));
        row.field("partitions", uint64_t(nparts))
            .field("token_sample_every", uint64_t(0))
            .field("token_records", uint64_t(0))
            .field("token_records_dropped", uint64_t(0))
            .field("target_cycles", base.result.targetCycles)
            .field("host_time_ns", base.result.hostTimeNs)
            .field("wall_ms", base.wallMs)
            .field("overhead_pct", 0.0)
            .field("bit_exact", true);
        rows.add(row);
    }

    int rc = 0;
    for (size_t i = 0; i < tcfgs.size(); ++i) {
        const obs::TelemetryConfig &tcfg = tcfgs[i];
        const Measured &m = traced[i];
        bool exact =
            m.result.targetCycles == base.result.targetCycles &&
            m.result.hostTimeNs == base.result.hostTimeNs &&
            m.sig == base.sig;
        double overhead =
            base.wallMs > 0.0
                ? (m.wallMs - base.wallMs) / base.wallMs * 100.0
                : 0.0;
        std::printf("1-in-%-6llu %10llu %10llu %10.2f %10.1f %10s\n",
                    (unsigned long long)tcfg.tokenSampleEvery,
                    (unsigned long long)m.records,
                    (unsigned long long)m.dropped, m.wallMs, overhead,
                    exact ? "yes" : "NO");
        bench::JsonRow row;
        bench::addRunIdentity(
            row, "fireaxe.bench.v1", "bus_soc4", m.planHash,
            m.contentHash,
            rtlsim::toString(rtlsim::defaultEvalEngine()));
        row.field("partitions", uint64_t(nparts))
            .field("token_sample_every",
                   uint64_t(tcfg.tokenSampleEvery))
            .field("token_records", m.records)
            .field("token_records_dropped", m.dropped)
            .field("target_cycles", m.result.targetCycles)
            .field("host_time_ns", m.result.hostTimeNs)
            .field("wall_ms", m.wallMs)
            .field("overhead_pct", overhead)
            .field("bit_exact", exact);
        rows.add(row);
        if (!exact) {
            std::fprintf(stderr,
                         "token-trace sweep: 1-in-%llu sampling "
                         "perturbed the simulation\n",
                         (unsigned long long)tcfg.tokenSampleEvery);
            rc = 1;
        }
    }
    rows.write();
    return rc;
}

std::vector<rtlsim::EvalEngine>
parseEngineList(const char *arg)
{
    std::vector<rtlsim::EvalEngine> engines;
    std::string s(arg);
    size_t pos = 0;
    while (pos < s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        engines.push_back(
            rtlsim::parseEvalEngine(s.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    return engines;
}

std::vector<uint64_t>
parseIntervalList(const char *arg)
{
    std::vector<uint64_t> intervals;
    std::string s(arg);
    size_t pos = 0;
    while (pos < s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        intervals.push_back(std::strtoull(
            s.substr(pos, comma - pos).c_str(), nullptr, 10));
        pos = comma + 1;
    }
    return intervals;
}

} // namespace

int
main(int argc, char **argv)
{
    // --engine selects the evaluation-engine sweep, --snapshot-every
    // the snapshot-overhead
    // sweep, --token-trace the token-tracing overhead sweep and
    // --resume-from a restore-and-finish measurement; everything
    // else is handed to google-benchmark untouched.
    std::vector<rtlsim::EvalEngine> engines;
    std::vector<uint64_t> snapshot_intervals;
    std::vector<uint64_t> token_rates;
    std::string json_path;
    std::string snapshot_dir;
    std::string resume_from;
    uint64_t cycles = 0;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--engine") && i + 1 < argc)
            engines = parseEngineList(argv[++i]);
        else if (!std::strcmp(argv[i], "--snapshot-every") &&
                 i + 1 < argc)
            snapshot_intervals = parseIntervalList(argv[++i]);
        else if (!std::strcmp(argv[i], "--snapshot-dir") &&
                 i + 1 < argc)
            snapshot_dir = argv[++i];
        else if (!std::strcmp(argv[i], "--token-trace")) {
            // optional rate list; bare flag sweeps the defaults
            if (i + 1 < argc && argv[i + 1][0] != '-')
                token_rates = parseIntervalList(argv[++i]);
            else
                token_rates = {1, 16, 64};
        } else if (!std::strcmp(argv[i], "--resume-from") &&
                   i + 1 < argc)
            resume_from = argv[++i];
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else if (!std::strcmp(argv[i], "--cycles") && i + 1 < argc)
            cycles = std::strtoull(argv[++i], nullptr, 10);
        else
            rest.push_back(argv[i]);
    }
    if (!engines.empty())
        return runEngineSweep(engines, cycles, json_path);
    if (!snapshot_intervals.empty())
        return runSnapshotSweep(snapshot_intervals, cycles, json_path,
                                snapshot_dir);
    if (!token_rates.empty())
        return runTokenTraceSweep(token_rates, cycles, json_path);
    if (!resume_from.empty())
        return runResumeMeasurement(resume_from, cycles, json_path);

    int rest_argc = int(rest.size());
    benchmark::Initialize(&rest_argc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(rest_argc,
                                               rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
