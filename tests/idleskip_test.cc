/**
 * @file
 * Recorded-reference equivalence fixtures for the sequential
 * co-simulation loop.
 *
 * The loop skips host cycles on which a partition provably cannot
 * act, and charges them to every counter in bulk. That is only
 * correct if nothing observable moves: not the token schedule, not
 * modeled host time, not a single telemetry value. Each case below
 * runs a partitioned simulation and reduces everything it can
 * observe to a flat list of exact values:
 *
 *  - host time, target cycles, the per-partition trace hash and the
 *    final-state signature (computed exactly like svc::JobRunner);
 *  - per-partition fires/advances, retransmits, transient stalls,
 *    failovers, the merged fault counters;
 *  - the executor's host-time state after the run (every partition's
 *    next tick, bit for bit);
 *  - with telemetry on: the part.*.{host_cycles,wait_ns,wait_ticks}
 *    metrics plus FNV hashes of the whole JSONL stream, the Chrome
 *    trace, the metrics JSON and the simulated-time part of every
 *    progress line.
 *
 * tests/fixtures/idleskip.txt holds the values recorded from the
 * tick-by-tick loop that executed every host cycle. The test reruns
 * each case and requires every value to match exactly. Doubles are
 * stored as their IEEE-754 bit patterns.
 *
 * `idleskip_test --write-fixtures <path>` rewrites the fixture file
 * from the current build; do that only for a deliberate change of
 * modeled timing, never to make a failure go away.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "firrtl/builder.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "platform/gridwalk.hh"
#include "recovery/snapshot.hh"
#include "ripper/partition.hh"
#include "rtlsim/engine.hh"
#include "svc/targets.hh"
#include "target/bus_soc.hh"
#include "transport/fault.hh"
#include "transport/link.hh"

using namespace fireaxe;

namespace {

using recovery::kFnvOffset;
constexpr uint64_t kCycles = 2000;

const char *const kTargets[] = {"fig2",     "fig3",     "bus-soc",
                                "ring-noc", "big-core", "sha3",
                                "gemmini",  "boot"};

/** Ordered observable list of one case: (key, exact value text). */
using Observables = std::vector<std::pair<std::string, std::string>>;

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

std::string
bits(double d)
{
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return hex(u);
}

uint64_t
fnvText(const std::string &text)
{
    uint64_t h = kFnvOffset;
    for (unsigned char c : text)
        h = recovery::fnv1aMix(h, c);
    return h;
}

/** Progress lines minus their wall-clock fields ("wall ... eta ..."),
 *  which legitimately differ between runs. */
std::string
simulatedProgress(const std::string &text)
{
    std::istringstream is(text);
    std::string line, out;
    while (std::getline(is, line)) {
        size_t wall = line.find(" wall ");
        size_t chan = line.find(" chan ");
        if (wall != std::string::npos && chan != std::string::npos)
            line.erase(wall, chan - wall);
        out += line + "\n";
    }
    return out;
}

/** Metrics JSON / stream text minus the wall-clock gauges
 *  (recovery.*_wall_ms), which legitimately differ between runs. */
std::string
withoutWallClock(const std::string &text)
{
    static const std::regex wall("\"[A-Za-z0-9_.]*wall_ms\"[^}]*\\}");
    return std::regex_replace(text, wall, "");
}

/** One fixture case: what to build and how to run it. */
struct CaseSpec
{
    std::string name;
    ripper::PartitionPlan plan;
    /** Per-partition FPGA clocks, cycled over the partitions. */
    std::vector<double> mhz = {100.0};
    uint64_t cycles = kCycles;
    rtlsim::EvalEngine engine = rtlsim::EvalEngine::Interpret;
    unsigned depth = 1;
    transport::FaultConfig faults;
    bool faultsOn = false;
    bool telemetry = false;
    uint64_t snapshotEvery = 0;
};

const ripper::PartitionPlan &
targetPlan(const std::string &target)
{
    static std::map<std::string, ripper::PartitionPlan> plans;
    auto it = plans.find(target);
    if (it == plans.end()) {
        const svc::TargetInfo *t = svc::findTarget(target);
        auto circuit = t->build();
        auto pspec = t->spec(circuit);
        pspec.mode = ripper::PartitionMode::Exact;
        it = plans.emplace(target, ripper::partition(circuit, pspec))
                 .first;
    }
    return it->second;
}

/**
 * A two-partition plan with a genuine LI-BDN deadlock: each
 * partition's only output combinationally depends on its only input,
 * and the two are cross-coupled.
 */
ripper::PartitionPlan
deadlockPlan()
{
    auto combBlock = [](const std::string &top) {
        firrtl::CircuitBuilder cb(top);
        auto mb = cb.module(top);
        auto a = mb.input("a", 8);
        mb.output("b", 8);
        mb.connect("b", firrtl::bits(
                            firrtl::eAdd(a, firrtl::lit(1, 8)), 7,
                            0));
        return cb.finish();
    };
    ripper::PartitionPlan plan;
    plan.mode = ripper::PartitionMode::Exact;
    plan.partitions = {combBlock("P0"), combBlock("P1")};
    plan.partitionNames = {"p0", "p1"};
    plan.fame5Threads = {1, 1};
    plan.nets.push_back({8, 0, 1, "b", "a", "n0"});
    plan.nets.push_back({8, 1, 0, "b", "a", "n1"});
    plan.channels.push_back({"c01", 0, 1, true, {0}, 8, {}, 16});
    plan.channels.push_back({"c10", 1, 0, true, {1}, 8, {}, 16});
    plan.feedback.maxChannelWidth = 8;
    plan.feedback.linkCrossingsPerCycle = 2;
    return plan;
}

/** Two tiles of a three-tile bus SoC pulled out (the watchdog's
 *  transient-stall scenario). */
ripper::PartitionPlan
stallPlan()
{
    target::BusSocConfig cfg;
    cfg.numTiles = 3;
    cfg.memWords = 256;
    auto soc = target::buildBusSoc(cfg);
    ripper::PartitionSpec spec;
    spec.mode = ripper::PartitionMode::Exact;
    spec.groups.push_back({"tiles", {"tile0", "tile1"}, 1});
    return ripper::partition(soc, spec);
}

std::vector<CaseSpec>
allCases()
{
    std::vector<CaseSpec> cases;
    for (const char *target : kTargets) {
        for (unsigned depth : {1u, 8u, 32u}) {
            for (auto engine : {rtlsim::EvalEngine::Interpret,
                                rtlsim::EvalEngine::Compiled}) {
                for (bool faults : {false, true}) {
                    for (bool tel : {false, true}) {
                        CaseSpec c;
                        c.name = std::string(target) + "/d" +
                                 std::to_string(depth) + "/" +
                                 rtlsim::toString(engine) +
                                 (faults ? "/f1e-3" : "/f0") +
                                 (tel ? "/tel" : "/notel");
                        c.plan = targetPlan(target);
                        c.engine = engine;
                        c.depth = depth;
                        c.faultsOn = faults;
                        if (faults)
                            c.faults = transport::FaultConfig::uniform(
                                1e-3, 0xF1A57ULL);
                        c.telemetry = tel;
                        cases.push_back(std::move(c));
                    }
                }
            }
        }
    }

    CaseSpec dl;
    dl.name = "deadlock";
    dl.plan = deadlockPlan();
    dl.mhz = {50.0};
    dl.cycles = 10;
    dl.telemetry = true;
    cases.push_back(std::move(dl));

    CaseSpec st;
    st.name = "transient-stall";
    st.plan = stallPlan();
    st.mhz = {50.0};
    st.cycles = 400;
    st.faultsOn = true;
    st.faults.seed = 17;
    st.faults.stallRate = 0.02;
    st.faults.stallMeanNs = 200000.0; // past the watchdog window
    st.telemetry = true;
    cases.push_back(std::move(st));

    CaseSpec snap;
    snap.name = "autosnapshot";
    snap.plan = targetPlan("bus-soc");
    snap.engine = rtlsim::EvalEngine::Compiled;
    snap.depth = 8;
    snap.cycles = 450;
    snap.faultsOn = true;
    snap.faults = transport::FaultConfig::uniform(1e-3, 0xF1A57ULL);
    snap.telemetry = true;
    snap.snapshotEvery = 100;
    cases.push_back(std::move(snap));

    // FAME-5: four tile threads on one FPGA at 15 MHz, a host period
    // (66.67 ns) that is not an integer.
    CaseSpec f5;
    f5.name = "fame5";
    {
        target::BusSocConfig cfg;
        cfg.numTiles = 4;
        cfg.memWords = 256;
        auto soc = target::buildBusSoc(cfg);
        ripper::PartitionSpec spec;
        spec.mode = ripper::PartitionMode::Exact;
        spec.groups.push_back(
            {"tiles", {"tile0", "tile1", "tile2", "tile3"}, 4});
        f5.plan = ripper::partition(soc, spec);
    }
    f5.mhz = {15.0};
    f5.cycles = 300;
    f5.faultsOn = true;
    f5.faults = transport::FaultConfig::uniform(1e-3, 0xF1A57ULL);
    f5.telemetry = true;
    cases.push_back(std::move(f5));

    // Every partition on its own clock, none an integer period:
    // ties and early wakes across unaligned host-period grids.
    for (const char *target : {"bus-soc", "ring-noc", "gemmini"}) {
        for (unsigned depth : {1u, 8u}) {
            CaseSpec mc;
            mc.name = std::string("mixed-clock/") + target + "/d" +
                      std::to_string(depth);
            mc.plan = targetPlan(target);
            mc.mhz = {90.0, 137.0, 61.5};
            mc.engine = rtlsim::EvalEngine::Compiled;
            mc.depth = depth;
            mc.faultsOn = true;
            mc.faults =
                transport::FaultConfig::uniform(1e-3, 0xF1A57ULL);
            mc.telemetry = true;
            cases.push_back(std::move(mc));
        }
    }

    // Two-token channels under heavy duplication and corruption:
    // producers block on full channels that the consumer frees by
    // discarding duplicates on ticks without progress.
    for (const char *target : {"fig2", "bus-soc", "ring-noc"}) {
        CaseSpec bp;
        bp.name = std::string("backpressure/") + target;
        bp.plan = targetPlan(target);
        for (auto &ch : bp.plan.channels)
            ch.capacity = 2;
        bp.cycles = 1000;
        bp.engine = rtlsim::EvalEngine::Compiled;
        bp.faultsOn = true;
        bp.faults.seed = 23;
        bp.faults.duplicateRate = 0.1;
        bp.faults.corruptRate = 0.05;
        bp.faults.dropRate = 0.02;
        bp.telemetry = true;
        cases.push_back(std::move(bp));
    }
    return cases;
}

/** One FPGA per partition, clocks cycled from the case's list. */
std::vector<platform::FpgaSpec>
fpgasFor(const CaseSpec &c)
{
    std::vector<platform::FpgaSpec> fpgas;
    for (size_t p = 0; p < c.plan.partitions.size(); ++p)
        fpgas.push_back(platform::alveoU250(c.mhz[p % c.mhz.size()]));
    return fpgas;
}

Observables
runCase(const CaseSpec &c)
{
    size_t nparts = c.plan.partitions.size();
    platform::MultiFpgaSim sim(c.plan, fpgasFor(c),
                               transport::qsfpAurora());
    sim.setVerifyPolicy(platform::VerifyPolicy::Off);
    if (c.faultsOn)
        sim.setFaultModel(c.faults);

    std::string snap_dir;
    platform::ExecConfig exec;
    exec.evalEngine = c.engine;
    exec.batchDepth = c.depth;
    exec.pipelinedEpochs = true;
    if (c.snapshotEvery) {
        snap_dir = (std::filesystem::temp_directory_path() /
                    ("fireaxe_idleskip_" + std::to_string(getpid())))
                       .string();
        std::filesystem::remove_all(snap_dir);
        std::filesystem::create_directories(snap_dir);
        exec.snapshotEveryCycles = c.snapshotEvery;
        exec.snapshotDir = snap_dir;
    }
    sim.setExecConfig(exec);

    std::ostringstream stream, progress;
    if (c.telemetry) {
        obs::TelemetryConfig tcfg;
        tcfg.metrics = true;
        tcfg.tracing = true;
        tcfg.progressIntervalNs = 20000.0;
        tcfg.progressOut = &progress;
        tcfg.fmrSampleIntervalNs = 7000.0;
        tcfg.streamSink = &stream;
        tcfg.tokenSampleEvery = 4;
        tcfg.streamEveryCycles = 64;
        tcfg.runLabel = c.name;
        sim.setTelemetry(tcfg);
    }

    std::vector<uint64_t> trace(nparts, kFnvOffset);
    for (size_t p = 0; p < nparts; ++p) {
        sim.setMonitor(int(p), [&trace, p](rtlsim::Simulator &s,
                                           unsigned thread,
                                           uint64_t cycle) {
            uint64_t h = trace[p];
            h = recovery::fnv1aMix(h, cycle);
            h = recovery::fnv1aMix(h, thread);
            trace[p] = recovery::hashSignals(h, s.values());
        });
    }

    platform::RunResult r = sim.run(c.cycles);

    Observables obs;
    auto put = [&obs](std::string key, std::string value) {
        obs.emplace_back(std::move(key), std::move(value));
    };
    put("host_time_ns", bits(r.hostTimeNs));
    put("target_cycles", std::to_string(r.targetCycles));
    put("deadlocked", std::to_string(r.deadlocked));
    uint64_t trace_hash = kFnvOffset;
    for (uint64_t h : trace)
        trace_hash = recovery::fnv1aMix(trace_hash, h);
    put("trace_hash", hex(trace_hash));
    uint64_t final_sig = kFnvOffset;
    for (size_t p = 0; p < nparts; ++p) {
        const auto &m = sim.model(int(p));
        final_sig = recovery::hashSignals(
            recovery::fnv1aMix(final_sig, m.minTargetCycle()),
            m.sim().values());
    }
    put("final_sig", hex(final_sig));
    for (size_t p = 0; p < nparts; ++p) {
        const auto &m = sim.model(int(p));
        std::string base = "p" + std::to_string(p) + ".";
        put(base + "fires", std::to_string(m.totalFires()));
        put(base + "advances", std::to_string(m.totalAdvances()));
    }
    put("retransmits", std::to_string(r.retransmits));
    put("transient_stalls", std::to_string(r.transientStallEvents));
    put("link_failovers", std::to_string(r.linkFailovers));
    std::string fault_stats;
    for (const auto &kv : r.faultStats.all())
        fault_stats += kv.first + "=" + std::to_string(kv.second) + ";";
    put("fault_stats", hex(fnvText(fault_stats)));
    if (r.deadlocked) {
        put("diag_host_time_ns", bits(r.diagnosis.hostTimeNs));
        put("diag_summary", hex(fnvText(r.diagnosis.summary)));
    }

    recovery::RecoveryPoint rp = sim.acquireRecoveryPoint();
    put("now_ns", bits(rp.nowNs));
    put("last_progress_ns", bits(rp.lastProgressNs));
    for (size_t p = 0; p < rp.nextTickNs.size(); ++p)
        put("next_tick." + std::to_string(p), bits(rp.nextTickNs[p]));

    if (c.telemetry) {
        const obs::MetricsSnapshot &m = r.metrics;
        for (const auto &name : c.plan.partitionNames) {
            std::string base = "part." + name + ".";
            put(base + "host_cycles", bits(m.gauge(base + "host_cycles")));
            put(base + "wait_ns", bits(m.gauge(base + "wait_ns")));
            put(base + "wait_ticks",
                std::to_string(m.counter(base + "wait_ticks")));
        }
        std::ostringstream metrics_json, trace_json;
        sim.writeMetricsJson(metrics_json);
        sim.writeTrace(trace_json);
        put("metrics_json",
            hex(fnvText(withoutWallClock(metrics_json.str()))));
        put("chrome_trace", hex(fnvText(trace_json.str())));
        put("stream", hex(fnvText(withoutWallClock(stream.str()))));
        put("progress", hex(fnvText(simulatedProgress(progress.str()))));
    }

    if (!snap_dir.empty()) {
        // The committed snapshot carries the executor's host-time
        // state; restore it into a fresh instance and read it back.
        put("snapshots", std::to_string(sim.snapshotCount()));
        platform::MultiFpgaSim fresh(c.plan, fpgasFor(c),
                                     transport::qsfpAurora());
        fresh.setVerifyPolicy(platform::VerifyPolicy::Off);
        if (c.faultsOn)
            fresh.setFaultModel(c.faults);
        platform::ExecConfig fexec = exec;
        fexec.snapshotEveryCycles = 0;
        fexec.snapshotDir.clear();
        fresh.setExecConfig(fexec);
        std::string error;
        if (!fresh.restore(snap_dir, error)) {
            put("snapshot_restore", error);
        } else {
            recovery::RecoveryPoint srp = fresh.acquireRecoveryPoint();
            put("snapshot.now_ns", bits(srp.nowNs));
            for (size_t p = 0; p < srp.nextTickNs.size(); ++p)
                put("snapshot.next_tick." + std::to_string(p),
                    bits(srp.nextTickNs[p]));
        }
        std::filesystem::remove_all(snap_dir);
    }
    return obs;
}

std::string
fixturePath()
{
    return std::string(FIREAXE_FIXTURE_DIR) + "/idleskip.txt";
}

/** Fixture file: one line per case, "<name> key=value ...". */
std::map<std::string, Observables>
loadFixtures()
{
    std::map<std::string, Observables> out;
    std::ifstream is(fixturePath());
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name, kv;
        ls >> name;
        Observables &obs = out[name];
        while (ls >> kv) {
            size_t eq = kv.find('=');
            obs.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        }
    }
    return out;
}

int
writeFixtures(const std::string &path)
{
    std::ofstream os(path);
    os << "# Recorded by idleskip_test --write-fixtures; see "
          "tests/idleskip_test.cc.\n";
    for (const CaseSpec &c : allCases()) {
        os << c.name;
        for (const auto &[key, value] : runCase(c))
            os << " " << key << "=" << value;
        os << "\n";
    }
    return os ? 0 : 1;
}

class IdleSkipFixture : public ::testing::TestWithParam<size_t>
{};

TEST_P(IdleSkipFixture, ReproducesRecordedTickByTickRun)
{
    static const std::vector<CaseSpec> cases = allCases();
    static const std::map<std::string, Observables> fixtures =
        loadFixtures();
    const CaseSpec &c = cases.at(GetParam());
    auto it = fixtures.find(c.name);
    ASSERT_NE(it, fixtures.end())
        << "no recorded fixture for case " << c.name << " in "
        << fixturePath();
    Observables got = runCase(c);
    const Observables &want = it->second;
    ASSERT_EQ(got.size(), want.size()) << c.name;
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first) << c.name;
        EXPECT_EQ(got[i].second, want[i].second)
            << c.name << ": " << want[i].first;
    }
}

/** 8 targets x 3 depths x 2 engines x 2 fault rates x 2 telemetry
 *  settings, plus the deadlock, transient-stall, autosnapshot, FAME-5,
 *  six mixed-clock and three backpressure cases. */
constexpr size_t kNumCases = 8 * 3 * 2 * 2 * 2 + 4 + 6 + 3;

INSTANTIATE_TEST_SUITE_P(AllCases, IdleSkipFixture,
                         ::testing::Range(size_t(0), kNumCases));

TEST(IdleSkipFixtures, EveryCaseIsInstantiated)
{
    EXPECT_EQ(allCases().size(), kNumCases);
}

TEST(IdleSkipFixtures, SomeFaultedCaseRetransmits)
{
    // Guard against a fixture set too small to exercise recovery:
    // some faulted case must actually retransmit.
    size_t faulted_with_rtx = 0;
    for (const auto &[name, obs] : loadFixtures())
        for (const auto &[key, value] : obs)
            if (key == "retransmits" && value != "0")
                ++faulted_with_rtx;
    EXPECT_GT(faulted_with_rtx, 0u);
}

/** The `t += period` loop walkGrid must reproduce bit for bit. */
template <class Holds>
platform::GridWalk
stepByStep(double t, double period, Holds holds)
{
    platform::GridWalk w{t, t, 0};
    while (holds(w.end)) {
        w.last = w.end;
        w.end += period;
        ++w.steps;
    }
    return w;
}

/** Walk with both, require identical results, and return how many
 *  times walkGrid evaluated the predicate. */
template <class Holds>
uint64_t
expectSameWalk(double t, double period, Holds holds)
{
    uint64_t evals = 0;
    auto counted = [&](double x) {
        ++evals;
        return holds(x);
    };
    platform::GridWalk got = platform::walkGrid(t, period, counted);
    platform::GridWalk want = stepByStep(t, period, holds);
    EXPECT_EQ(bits(got.end), bits(want.end)) << t << " += " << period;
    EXPECT_EQ(bits(got.last), bits(want.last)) << t << " += " << period;
    EXPECT_EQ(got.steps, want.steps) << t << " += " << period;
    return evals;
}

TEST(GridWalk, IntegralGridJumpEqualsRepeatedAddition)
{
    std::mt19937_64 rng(18);
    // 100 MHz (the shipped clock), FAME-5 multiples of it, and
    // other integral periods.
    const double periods[] = {10.0, 20.0, 40.0, 1.0, 7.0, 4000.0};
    for (double period : periods) {
        for (int i = 0; i < 200; ++i) {
            double t = period * double(rng() % 100000);
            double bound = t + double(rng() % 5000000) / 7.0;
            uint64_t steps = stepByStep(t, period, [&](double x) {
                                 return x < bound;
                             }).steps;
            uint64_t evals = expectSameWalk(
                t, period, [&](double x) { return x < bound; });
            // O(log k): galloping plus bisection.
            uint64_t log2 = 0;
            while ((uint64_t(1) << log2) <= steps)
                ++log2;
            EXPECT_LE(evals, 2 * log2 + 2) << steps << " steps";

            // The settle predicate's (time, index) tie-break.
            double at = t + period * double(rng() % 1000);
            bool tie = rng() % 2;
            expectSameWalk(t, period, [&](double x) {
                return x < bound && (x < at || (x == at && tie));
            });
        }
    }
    // A predicate that fails at once takes no step.
    EXPECT_EQ(expectSameWalk(30.0, 10.0, [](double) { return false; }),
              1u);
}

TEST(GridWalk, InexactGridsTakeTheStepLoop)
{
    // Non-integer clocks: the mixed-clock cases' periods and more.
    for (double mhz : {90.0, 137.0, 61.5, 75.0, 175.0, 300.0}) {
        double period = 1000.0 / mhz;
        double bound = 12345.6;
        uint64_t steps = stepByStep(0.0, period, [&](double x) {
                             return x < bound;
                         }).steps;
        uint64_t evals = expectSameWalk(
            0.0, period, [&](double x) { return x < bound; });
        EXPECT_GT(evals, steps) << period;
    }
    // A non-integral start on an integral period.
    uint64_t evals =
        expectSameWalk(0.5, 10.0, [](double x) { return x < 1000.0; });
    EXPECT_GT(evals, 100u);

    // A walk that would cross 2^53, where sums stop being exact.
    const double limit = 0x1p53;
    evals = expectSameWalk(limit - 64.0, 16.0,
                           [&](double x) { return x < limit + 64.0; });
    EXPECT_GT(evals, 8u);
    // Just below 2^53 the jump still applies.
    expectSameWalk(limit - 64000.0, 16.0,
                   [&](double x) { return x < limit - 32.0; });
}

} // namespace

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    if (argc == 3 && std::string(argv[1]) == "--write-fixtures")
        return writeFixtures(argv[2]);
    return RUN_ALL_TESTS();
}
