/**
 * @file
 * Tests of the coordinated crash-consistent recovery subsystem
 * (src/recovery) and its executor integration: the durable
 * SnapshotStore commit protocol (torn writes, corrupted shards,
 * stale generations), whole-run snapshot/restore bit-exactness
 * across eval engines (including under fault injection), the
 * acquire/rollback recovery-point seam, and
 * single-partition restart with inbound-token replay.
 *
 * The recurring assertion shape: an interrupted-and-recovered run
 * must be indistinguishable — per-cycle monitor observations and
 * final simulator state — from an uninterrupted golden run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "recovery/recovery.hh"
#include "recovery/snapshot.hh"
#include "ripper/partition.hh"
#include "rtlsim/engine.hh"
#include "target/bus_soc.hh"
#include "transport/fault.hh"
#include "transport/link.hh"

using namespace fireaxe;
using namespace fireaxe::platform;
using namespace fireaxe::ripper;

namespace fs = std::filesystem;

namespace {

std::vector<FpgaSpec>
u250s(size_t n, double mhz)
{
    return std::vector<FpgaSpec>(n, alveoU250(mhz));
}

firrtl::Circuit
fourTileSoc()
{
    target::BusSocConfig cfg;
    cfg.numTiles = 4;
    cfg.memWords = 256;
    return target::buildBusSoc(cfg);
}

/** Three-partition plan of a four-tile bus SoC. */
PartitionPlan
threeWayPlan(const firrtl::Circuit &soc)
{
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"t01", {"tile0", "tile1"}, 1});
    spec.groups.push_back({"t23", {"tile2", "tile3"}, 1});
    return partition(soc, spec);
}

/** Per-cycle observation map of one partition's full signal-table
 *  hash. A map (not a vector) so an interrupted run's suffix can be
 *  compared against a golden full run cycle-by-cycle, and so a
 *  re-executed cycle with a *different* value is caught even if
 *  monitor suppression were broken. */
using CycleTrace = std::map<uint64_t, uint64_t>;

libdn::Monitor
recorder(CycleTrace &out)
{
    return [&out](rtlsim::Simulator &sim, unsigned thread,
                  uint64_t cycle) {
        uint64_t v = recovery::hashSignals(
            recovery::fnv1aMix(recovery::kFnvOffset, thread),
            sim.values());
        auto it = out.find(cycle);
        if (it != out.end()) {
            ASSERT_EQ(it->second, v)
                << "re-observation of cycle " << cycle
                << " changed value";
        }
        out[cycle] = v;
    };
}

/** FNV-1a over every partition's cycle count and full signal
 *  table — equal signatures witness bit-exact final state. */
uint64_t
stateSignature(MultiFpgaSim &sim, size_t nparts)
{
    uint64_t h = recovery::kFnvOffset;
    for (size_t p = 0; p < nparts; ++p) {
        auto &m = sim.model(int(p));
        h = recovery::hashSignals(
            recovery::fnv1aMix(h, m.minTargetCycle()), m.sim().values());
    }
    return h;
}

/** Fresh private snapshot directory for one test. */
std::string
tempDir()
{
    char tmpl[] = "/tmp/fireaxe-recovery-XXXXXX";
    char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? std::string(dir) : std::string();
}

/** Assert that every cycle @p got observed has the golden value. */
void
expectTraceSubset(const CycleTrace &golden, const CycleTrace &got)
{
    for (const auto &[cycle, value] : got) {
        auto it = golden.find(cycle);
        ASSERT_NE(it, golden.end())
            << "cycle " << cycle << " not in the golden trace";
        ASSERT_EQ(value, it->second)
            << "divergence at cycle " << cycle;
    }
}

/**
 * Final-state comparisons first bring the run to a fixed point past
 * the target with autosnapshots off, so interrupted and golden runs
 * compare at the same stopping point.
 */
void
settle(MultiFpgaSim &sim, uint64_t cycles)
{
    ExecConfig exec = sim.execConfig();
    exec.snapshotEveryCycles = 0;
    sim.setExecConfig(exec);
    auto r = sim.run(cycles);
    EXPECT_FALSE(r.deadlocked);
}

struct GoldenRun
{
    CycleTrace trace0, trace1;
    uint64_t signature = 0;
    RunResult result;
};

/** Uninterrupted reference run of the three-way plan. The signature
 *  is taken after a settle to cycles + 25; recovered runs must
 *  settle to the same point before comparing. */
GoldenRun
goldenRun(const firrtl::Circuit &soc, const ExecConfig &exec,
          uint64_t cycles,
          const transport::FaultConfig *faults = nullptr)
{
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    if (faults)
        sim.setFaultModel(*faults);
    sim.setExecConfig(exec);
    GoldenRun g;
    sim.setMonitor(0, recorder(g.trace0));
    sim.setMonitor(1, recorder(g.trace1));
    g.result = sim.run(cycles);
    settle(sim, cycles + 25);
    g.signature = stateSignature(sim, plan.partitions.size());
    return g;
}

} // namespace

// ---------------------------------------------------------------
// SnapshotStore: durable commit protocol
// ---------------------------------------------------------------

/** FNV-1a folded one byte at a time over all eight bytes of @p v:
 *  the definition fnv1aMix must reproduce bit for bit. */
uint64_t
byteWiseFnv1aMix(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
    }
    return h;
}

TEST(TraceHash, ZeroByteCollapseIsValueIdentical)
{
    std::mt19937_64 rng(18);
    std::vector<uint64_t> values = {0, ~0ULL};
    // Every byte width from 1 to 8: the smallest and largest value
    // of that width, and random ones.
    for (int bytes = 1; bytes <= 8; ++bytes) {
        uint64_t top = 1ULL << (8 * bytes - 1);
        uint64_t all = top | (top - 1);
        values.push_back(top);
        values.push_back(all);
        for (int i = 0; i < 16; ++i)
            values.push_back((rng() & all) | top);
    }
    // Random values of random bit width, as masked signals have.
    for (int i = 0; i < 2000; ++i)
        values.push_back(rng() >> (rng() % 64));

    std::vector<uint64_t> seeds = {0, ~0ULL, recovery::kFnvOffset};
    for (int i = 0; i < 8; ++i)
        seeds.push_back(rng());
    for (uint64_t h : seeds)
        for (uint64_t v : values)
            ASSERT_EQ(recovery::fnv1aMix(h, v), byteWiseFnv1aMix(h, v))
                << "h=" << h << " v=" << v;

    // hashSignals is the same fold over an array, in order.
    uint64_t want = recovery::kFnvOffset;
    for (uint64_t v : values)
        want = byteWiseFnv1aMix(want, v);
    EXPECT_EQ(recovery::hashSignals(recovery::kFnvOffset, values), want);
}

TEST(SnapshotStore, CommitLoadRoundTripAndGenerations)
{
    std::string dir = tempDir();
    recovery::SnapshotStore store(dir);
    EXPECT_FALSE(store.hasSnapshot());

    recovery::Manifest m;
    m.designHash = 0x1111;
    m.planHash = 0x2222;
    m.engine = "interpret";
    m.targetCycle = 100;
    m.numPartitions = 2;
    m.numChannels = 1;
    std::vector<std::string> payloads = {"alpha", "bravo",
                                         "charlie"};
    uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(store.commit(m, payloads, bytes, error)) << error;
    EXPECT_EQ(m.generation, 1u);
    EXPECT_GE(bytes, 15u);
    EXPECT_TRUE(store.hasSnapshot());

    recovery::Manifest in;
    ASSERT_TRUE(store.loadManifest(in, error)) << error;
    EXPECT_EQ(in.generation, 1u);
    EXPECT_EQ(in.designHash, 0x1111u);
    EXPECT_EQ(in.planHash, 0x2222u);
    EXPECT_EQ(in.engine, "interpret");
    EXPECT_EQ(in.targetCycle, 100u);
    ASSERT_EQ(in.shards.size(), 3u);
    for (size_t i = 0; i < payloads.size(); ++i) {
        std::string payload;
        ASSERT_TRUE(store.readShard(in, i, payload, error)) << error;
        EXPECT_EQ(payload, payloads[i]);
    }

    // A second commit bumps the generation; the reader follows.
    payloads[0] = "delta";
    recovery::Manifest m2 = m;
    ASSERT_TRUE(store.commit(m2, payloads, bytes, error)) << error;
    EXPECT_EQ(m2.generation, 2u);
    ASSERT_TRUE(store.loadManifest(in, error)) << error;
    EXPECT_EQ(in.generation, 2u);
    std::string payload;
    ASSERT_TRUE(store.readShard(in, 0, payload, error)) << error;
    EXPECT_EQ(payload, "delta");
    fs::remove_all(dir);
}

TEST(SnapshotStore, TornWriteLeavesPreviousGenerationCommitted)
{
    std::string dir = tempDir();
    recovery::SnapshotStore store(dir);
    recovery::Manifest m;
    m.numPartitions = 1;
    m.numChannels = 0;
    std::vector<std::string> payloads = {"part", "exec"};
    uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(store.commit(m, payloads, bytes, error)) << error;

    // A crash mid-snapshot leaves partial next-generation shards and
    // a dangling manifest temp file; neither may damage generation 1.
    std::ofstream(dir + "/part0.g2.shard") << "torn garb";
    std::ofstream(dir + "/manifest.fasnap.tmp") << "half a mani";

    recovery::Manifest in;
    ASSERT_TRUE(store.loadManifest(in, error)) << error;
    EXPECT_EQ(in.generation, 1u);
    std::string payload;
    ASSERT_TRUE(store.readShard(in, 0, payload, error)) << error;
    EXPECT_EQ(payload, "part");
    fs::remove_all(dir);
}

TEST(SnapshotStore, CorruptedShardIsAStructuredError)
{
    std::string dir = tempDir();
    recovery::SnapshotStore store(dir);
    recovery::Manifest m;
    m.numPartitions = 1;
    m.numChannels = 0;
    std::vector<std::string> payloads = {"precious state", "exec"};
    uint64_t bytes = 0;
    std::string error;
    ASSERT_TRUE(store.commit(m, payloads, bytes, error)) << error;

    recovery::Manifest in;
    ASSERT_TRUE(store.loadManifest(in, error)) << error;
    {
        // Flip one byte of a committed shard in place.
        std::fstream f(dir + "/" + in.shards[0].file,
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.seekp(3);
        f.put('X');
    }
    std::string payload;
    EXPECT_FALSE(store.readShard(in, 0, payload, error));
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Whole-run snapshot/restore: bit-exact resume
// ---------------------------------------------------------------

namespace {

/** Interrupt a run at @p cut cycles, snapshot, restore into a brand
 *  new executor (possibly a different engine), finish to
 *  @p cycles, and compare against the golden uninterrupted run. */
void
roundTrip(const firrtl::Circuit &soc, const ExecConfig &first,
          const ExecConfig &second, uint64_t cut, uint64_t cycles,
          const transport::FaultConfig *faults = nullptr)
{
    GoldenRun golden = goldenRun(soc, first, cycles, faults);
    ASSERT_FALSE(golden.result.deadlocked);

    std::string dir = tempDir();
    std::string error;
    auto plan = threeWayPlan(soc);
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        if (faults)
            sim.setFaultModel(*faults);
        sim.setExecConfig(first);
        auto r = sim.run(cut);
        ASSERT_FALSE(r.deadlocked);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
        EXPECT_EQ(sim.snapshotCount(), 1u);
        EXPECT_GT(sim.lastSnapshotBytes(), 0u);
        // The simulator object now dies with its in-memory state —
        // the on-disk snapshot is all the resumed run gets.
    }

    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    if (faults)
        sim.setFaultModel(*faults);
    sim.setExecConfig(second);
    CycleTrace trace0, trace1;
    sim.setMonitor(0, recorder(trace0));
    sim.setMonitor(1, recorder(trace1));
    ASSERT_TRUE(sim.restore(dir, error)) << error;
    EXPECT_EQ(sim.restoreCount(), 1u);
    EXPECT_GE(sim.model(0).minTargetCycle(), cut);

    auto r = sim.run(cycles);
    ASSERT_FALSE(r.deadlocked);
    settle(sim, cycles + 25);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              golden.signature);
    // The resumed run only observes cycles past the cut; every one
    // of them must match the golden observation.
    EXPECT_GT(trace0.size(), 0u);
    expectTraceSubset(golden.trace0, trace0);
    expectTraceSubset(golden.trace1, trace1);
    fs::remove_all(dir);
}

} // namespace

TEST(Restore, BitExactAcrossEngines)
{
    auto soc = fourTileSoc();
    for (auto engine : {rtlsim::EvalEngine::Interpret,
                        rtlsim::EvalEngine::Compiled}) {
        SCOPED_TRACE(rtlsim::toString(engine));
        ExecConfig exec;
        exec.evalEngine = engine;
        roundTrip(soc, exec, exec, 200, 400);
    }
}

TEST(Restore, CrossEngineResume)
{
    // Snapshot under the compiled engine, resume under the
    // interpreter: both engines are bit-exact, so the mix must be
    // too.
    auto soc = fourTileSoc();
    ExecConfig first;
    first.evalEngine = rtlsim::EvalEngine::Compiled;
    ExecConfig second;
    second.evalEngine = rtlsim::EvalEngine::Interpret;
    roundTrip(soc, first, second, 250, 500);
}

TEST(Restore, FaultInjectionStateSurvivesTheCut)
{
    // The fault RNG substreams and retransmission machinery are part
    // of the cut: an interrupted faulty run must replay the exact
    // same recovery schedule as the uninterrupted one.
    auto soc = fourTileSoc();
    auto faults = transport::FaultConfig::uniform(2e-3, 42);
    GoldenRun golden = goldenRun(soc, ExecConfig{}, 700, &faults);
    EXPECT_GT(golden.result.retransmits, 0u);
    roundTrip(soc, ExecConfig{}, ExecConfig{}, 350, 700, &faults);
}

TEST(Restore, RejectsForeignAndMissingSnapshots)
{
    auto soc = fourTileSoc();
    std::string dir = tempDir();
    std::string error;
    {
        auto plan = threeWayPlan(soc);
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.run(50);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }

    // A different partitioning of the same design has a different
    // plan hash; the restore is refused before any state changes.
    PartitionSpec spec;
    spec.mode = PartitionMode::Exact;
    spec.groups.push_back({"t01", {"tile0", "tile1"}, 1});
    auto other = partition(soc, spec);
    MultiFpgaSim sim(other, u250s(other.partitions.size(), 50.0),
                     transport::qsfpAurora());
    EXPECT_FALSE(sim.restore(dir, error));
    EXPECT_FALSE(error.empty());

    // An empty directory is a structured error, not a crash.
    std::string empty = tempDir();
    EXPECT_FALSE(sim.restore(empty, error));
    EXPECT_FALSE(error.empty());

    // The refused executor is still healthy.
    auto r = sim.run(50);
    EXPECT_FALSE(r.deadlocked);
    fs::remove_all(dir);
    fs::remove_all(empty);
}

TEST(Restore, TornWriteFixtureFallsBackToCommittedGeneration)
{
    // End-to-end version of the store-level torn-write test: scribble
    // a partial next generation over a real snapshot directory and
    // prove restore still lands on the committed cut.
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    std::string dir = tempDir();
    std::string error;
    GoldenRun golden = goldenRun(soc, ExecConfig{}, 400);
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.run(200);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }
    std::ofstream(dir + "/part0.g2.shard") << "torn";
    std::ofstream(dir + "/exec.g2.shard") << "torn";
    std::ofstream(dir + "/manifest.fasnap.tmp") << "torn";

    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    ASSERT_TRUE(sim.restore(dir, error)) << error;
    auto r = sim.run(400);
    ASSERT_FALSE(r.deadlocked);
    settle(sim, 425);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              golden.signature);
    fs::remove_all(dir);
}

TEST(Restore, CorruptedCommittedShardFailsStructured)
{
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    std::string dir = tempDir();
    std::string error;
    {
        MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
        sim.run(100);
        ASSERT_TRUE(sim.snapshot(dir, error)) << error;
    }
    recovery::SnapshotStore store(dir);
    recovery::Manifest m;
    ASSERT_TRUE(store.loadManifest(m, error)) << error;
    {
        std::fstream f(dir + "/" + m.shards[0].file,
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.seekp(10);
        f.put('~');
    }

    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    EXPECT_FALSE(sim.restore(dir, error));
    EXPECT_FALSE(error.empty());
    // Validation happens before any state is touched: the executor
    // still runs from scratch.
    auto r = sim.run(100);
    EXPECT_FALSE(r.deadlocked);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Autosnapshot: chunked run() with unchanged results
// ---------------------------------------------------------------

TEST(Autosnapshot, PeriodicSnapshotsDoNotPerturbTheRun)
{
    auto soc = fourTileSoc();
    GoldenRun golden = goldenRun(soc, ExecConfig{}, 500);

    std::string dir = tempDir();
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    ExecConfig exec;
    exec.snapshotEveryCycles = 120;
    exec.snapshotDir = dir;
    sim.setExecConfig(exec);
    CycleTrace trace0;
    sim.setMonitor(0, recorder(trace0));
    auto r = sim.run(500);

    ASSERT_FALSE(r.deadlocked);
    // Snapshot boundaries are quiesce points: cycle counts, host
    // time, every observation and the final state are unchanged.
    EXPECT_EQ(r.targetCycles, golden.result.targetCycles);
    EXPECT_DOUBLE_EQ(r.hostTimeNs, golden.result.hostTimeNs);
    EXPECT_GE(sim.snapshotCount(), 4u);
    settle(sim, 525);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              golden.signature);
    expectTraceSubset(golden.trace0, trace0);
    EXPECT_EQ(trace0.size(), golden.trace0.size());

    // The last committed snapshot resumes to the same end state.
    MultiFpgaSim resumed(plan, u250s(plan.partitions.size(), 50.0),
                         transport::qsfpAurora());
    std::string error;
    ASSERT_TRUE(resumed.restore(dir, error)) << error;
    resumed.run(500);
    settle(resumed, 525);
    EXPECT_EQ(stateSignature(resumed, plan.partitions.size()),
              golden.signature);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Recovery points: rollback and single-partition restart
// ---------------------------------------------------------------

TEST(RecoveryPoint, RollbackReplaysBitExactly)
{
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    CycleTrace trace;
    sim.setMonitor(0, recorder(trace));
    auto r1 = sim.run(150);
    ASSERT_FALSE(r1.deadlocked);

    recovery::RecoveryPoint rp = sim.acquireRecoveryPoint();
    ASSERT_TRUE(rp.valid);
    EXPECT_GE(rp.minTargetCycle, 150u);

    auto r2 = sim.run(400);
    ASSERT_FALSE(r2.deadlocked);
    uint64_t sig_first = stateSignature(sim, plan.partitions.size());
    CycleTrace first = trace;

    // Rewind and replay: the recorder itself asserts every
    // re-observed cycle carries the identical value.
    sim.rollback(rp);
    EXPECT_EQ(sim.restoreCount(), 1u);
    EXPECT_LE(sim.model(0).minTargetCycle(), 160u);
    auto r3 = sim.run(400);
    ASSERT_FALSE(r3.deadlocked);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              sig_first);
    EXPECT_EQ(trace.size(), first.size());
}

namespace {

void
restartScenario(const ExecConfig &exec)
{
    auto soc = fourTileSoc();
    GoldenRun golden = goldenRun(soc, exec, 400);
    ASSERT_FALSE(golden.result.deadlocked);

    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setExecConfig(exec);
    CycleTrace trace0, trace1;
    sim.setMonitor(0, recorder(trace0));
    sim.setMonitor(1, recorder(trace1));

    auto r1 = sim.run(150);
    ASSERT_FALSE(r1.deadlocked);
    recovery::RecoveryPoint rp = sim.acquireRecoveryPoint();
    ASSERT_TRUE(rp.valid);

    auto r2 = sim.run(250);
    ASSERT_FALSE(r2.deadlocked);

    // Partition 1 "crashes" at cycle ~250 and restarts from the
    // cycle-150 cut; its inbound channels replay the deliveries made
    // in between, its peers keep their state and naturally stall
    // until it catches up.
    std::string error;
    ASSERT_TRUE(sim.restartPartition(1, rp, error)) << error;
    EXPECT_EQ(sim.partitionRestarts(), 1u);
    EXPECT_LE(sim.model(1).minTargetCycle(), 160u);

    auto r3 = sim.run(400);
    ASSERT_FALSE(r3.deadlocked);
    settle(sim, 425);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              golden.signature);
    // Monitor suppression: the re-executed cycles were already
    // observed, so the trace has exactly the golden observations —
    // no duplicates, no gaps, no divergence.
    expectTraceSubset(golden.trace0, trace0);
    expectTraceSubset(golden.trace1, trace1);
    EXPECT_EQ(trace0.size(), golden.trace0.size());
    EXPECT_EQ(trace1.size(), golden.trace1.size());
}

} // namespace

TEST(RecoveryPoint, RestartPartitionSequential)
{
    restartScenario(ExecConfig{});
}

TEST(RecoveryPoint, RestartPartitionCompiledEngine)
{
    ExecConfig exec;
    exec.evalEngine = rtlsim::EvalEngine::Compiled;
    restartScenario(exec);
}

TEST(RecoveryPoint, RestartFailsCleanlyWhenReplayLogOutrun)
{
    auto soc = fourTileSoc();
    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    ExecConfig exec;
    exec.replayLogDepth = 4; // far too shallow for 200 cycles
    sim.setExecConfig(exec);

    sim.run(100);
    recovery::RecoveryPoint rp = sim.acquireRecoveryPoint();
    sim.run(300);

    std::string error;
    EXPECT_FALSE(sim.restartPartition(1, rp, error));
    EXPECT_NE(error.find("replay log"), std::string::npos) << error;
    EXPECT_EQ(sim.partitionRestarts(), 0u);

    // The failed restart touched nothing: the run continues to the
    // same state as an undisturbed one.
    GoldenRun golden = goldenRun(soc, ExecConfig{}, 500);
    auto r = sim.run(500);
    ASSERT_FALSE(r.deadlocked);
    settle(sim, 525);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()),
              golden.signature);
}

TEST(RecoveryPoint, RollbackAcrossFailoverReattachesTheLink)
{
    // Fail a link over mid-run, then roll back to a pre-failover
    // cut: the channel must rejoin its original shared serializer
    // and the replay must again fail over at the same point.
    auto soc = fourTileSoc();
    transport::FaultConfig faults;
    faults.seed = 19;
    faults.dropRate = 0.7;
    faults.maxRetries = 2;

    auto plan = threeWayPlan(soc);
    MultiFpgaSim sim(plan, u250s(plan.partitions.size(), 50.0),
                     transport::qsfpAurora());
    sim.setFaultModel(faults);
    sim.init();
    recovery::RecoveryPoint rp = sim.acquireRecoveryPoint();

    auto r1 = sim.run(300);
    ASSERT_FALSE(r1.deadlocked);
    EXPECT_GT(r1.linkFailovers, 0u);
    uint64_t sig = stateSignature(sim, plan.partitions.size());

    sim.rollback(rp);
    auto r2 = sim.run(300);
    ASSERT_FALSE(r2.deadlocked);
    EXPECT_GT(r2.linkFailovers, 0u);
    EXPECT_EQ(stateSignature(sim, plan.partitions.size()), sig);
}
