/**
 * @file
 * Tests for the simulation service (src/svc): fireaxe.job.v1
 * protocol round-trips and strict rejection of malformed requests,
 * ArtifactCache hit/miss/LRU-eviction accounting, the JobRunner
 * cold-vs-warm cache contract (a repeat submission skips
 * elaboration, verification, and bytecode compilation without
 * perturbing results), graceful requestStop() quiescing with a
 * resumable snapshot, and SimService multi-tenancy — N concurrent
 * jobs must be bit-identical to the same jobs run sequentially, and
 * a drain must reject queued work while in-flight jobs stop cleanly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/json.hh"
#include "obs/jsonparse.hh"
#include "platform/executor.hh"
#include "platform/fpga.hh"
#include "recovery/snapshot.hh"
#include "svc/cache.hh"
#include "svc/jobrunner.hh"
#include "svc/jobspec.hh"
#include "svc/protocol.hh"
#include "svc/service.hh"
#include "svc/targets.hh"
#include "transport/link.hh"

using namespace fireaxe;

namespace {

std::string
tempDir(const std::string &tag)
{
    // Per process, so concurrent runs of this suite never share a
    // snapshot directory.
    auto dir = std::filesystem::temp_directory_path() /
               ("fireaxe_svc_test_" + tag + "_" +
                std::to_string(getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** Render a submit request line exactly the way svc::Client does. */
std::string
submitLine(const svc::JobSpec &spec)
{
    std::ostringstream body;
    obs::JsonWriter bw(body);
    spec.writeJson(bw);

    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.key("type");
    w.value("submit");
    w.key("schema");
    w.value(svc::kJobSchema);
    w.key("job");
    w.raw(body.str());
    w.endObject();
    return os.str();
}

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

} // namespace

// --- protocol ------------------------------------------------------

TEST(SvcProtocol, SubmitRoundTrip)
{
    svc::JobSpec spec;
    spec.target = "bus-soc";
    spec.mode = "fast";
    spec.engine = "compiled";
    spec.cycles = 12345;
    spec.faultRate = 0.25;
    spec.seed = 0xDEADBEEFCAFEF00Dull;
    spec.snapshotEvery = 500;
    spec.snapshotDir = "/tmp/snaps";
    spec.resume = true;
    spec.hashFrom = 42;
    spec.stream = true;
    spec.sampleEvery = 8;
    spec.streamEvery = 100;
    spec.channelCapacity = 7;

    svc::Request req;
    std::string error;
    ASSERT_TRUE(svc::parseRequest(submitLine(spec), req, error))
        << error;
    ASSERT_EQ(req.kind, svc::Request::Kind::Submit);
    EXPECT_EQ(req.job.target, spec.target);
    EXPECT_EQ(req.job.mode, spec.mode);
    EXPECT_EQ(req.job.engine, spec.engine);
    EXPECT_EQ(req.job.cycles, spec.cycles);
    EXPECT_DOUBLE_EQ(req.job.faultRate, spec.faultRate);
    EXPECT_EQ(req.job.seed, spec.seed);
    EXPECT_EQ(req.job.snapshotEvery, spec.snapshotEvery);
    EXPECT_EQ(req.job.snapshotDir, spec.snapshotDir);
    EXPECT_EQ(req.job.resume, spec.resume);
    EXPECT_EQ(req.job.hashFrom, spec.hashFrom);
    EXPECT_EQ(req.job.stream, spec.stream);
    EXPECT_EQ(req.job.sampleEvery, spec.sampleEvery);
    EXPECT_EQ(req.job.streamEvery, spec.streamEvery);
    EXPECT_EQ(req.job.channelCapacity, spec.channelCapacity);
    EXPECT_EQ(req.job.elabSignature(), spec.elabSignature());
}

TEST(SvcProtocol, StatusAndShutdownRoundTrip)
{
    svc::Request req;
    std::string error;
    ASSERT_TRUE(
        svc::parseRequest("{\"type\":\"status\"}", req, error));
    EXPECT_EQ(req.kind, svc::Request::Kind::Status);
    ASSERT_TRUE(
        svc::parseRequest("{\"type\":\"shutdown\"}", req, error));
    EXPECT_EQ(req.kind, svc::Request::Kind::Shutdown);
}

TEST(SvcProtocol, MalformedRequestsRejectedWithDiagnostics)
{
    const char *fixtures[] = {
        // not JSON at all
        "run the thing",
        // JSON, but not an object
        "[1,2,3]",
        // no type
        "{\"schema\":\"fireaxe.job.v1\"}",
        // unknown type
        "{\"type\":\"purge\"}",
        // submit without schema
        "{\"type\":\"submit\",\"job\":{\"target\":\"fig2\"}}",
        // submit with the wrong schema
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v9\","
        "\"job\":{\"target\":\"fig2\"}}",
        // submit without a job object
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v1\"}",
        // unknown job key (strict parse)
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v1\","
        "\"job\":{\"target\":\"fig2\",\"cylces\":100}}",
        // wrong value kind
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v1\","
        "\"job\":{\"target\":\"fig2\",\"cycles\":\"many\"}}",
        // negative cycle count
        "{\"type\":\"submit\",\"schema\":\"fireaxe.job.v1\","
        "\"job\":{\"target\":\"fig2\",\"cycles\":-5}}",
    };
    for (const char *line : fixtures) {
        svc::Request req;
        std::string error;
        EXPECT_FALSE(svc::parseRequest(line, req, error))
            << "accepted: " << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

namespace {

/** Parse @p job_json both directly and inside a submit request line;
 *  returns the two diagnostics (empty on acceptance). */
std::pair<std::string, std::string>
parseBothWays(const std::string &job_json)
{
    obs::JsonValue v;
    std::string perr;
    EXPECT_TRUE(obs::parseJson(job_json, v, perr)) << perr;
    svc::JobSpec spec;
    std::string direct;
    if (!svc::parseJobSpec(v, spec, direct) && direct.empty())
        direct = "(rejected without a diagnostic)";

    svc::Request req;
    std::string wire;
    std::string line = "{\"type\":\"submit\",\"schema\":\"" +
                       std::string(svc::kJobSchema) +
                       "\",\"job\":" + job_json + "}";
    if (!svc::parseRequest(line, req, wire) && wire.empty())
        wire = "(rejected without a diagnostic)";
    return {direct, wire};
}

} // namespace

// Every integer key must fit its field: an out-of-range double is
// rejected before any conversion (which would be undefined
// behaviour), and a value past 32 bits never truncates into an
// unsigned field. The error text is asserted because no sanitizer
// flags float-to-integer overflow by default.
TEST(SvcProtocol, OutOfRangeIntegersRejected)
{
    const struct
    {
        const char *key;
        const char *value;
        const char *error;
    } cases[] = {
        {"cycles", "1e20", "key 'cycles' must be at most"},
        {"snapshot_every", "1e20", "key 'snapshot_every' must be at most"},
        {"hash_from", "1e20", "key 'hash_from' must be at most"},
        {"stream_every", "1e20", "key 'stream_every' must be at most"},
        {"seed", "1e20", "key 'seed' must be at most"},
        {"cycles", "18446744073709551616",
         "key 'cycles' must be at most 18446744073709551615"},
        {"channel_capacity", "1e300",
         "key 'channel_capacity' must be in [-1, 2147483647]"},
        {"channel_capacity", "-1e300",
         "key 'channel_capacity' must be in [-1, 2147483647]"},
        {"batch_depth", "4294967304",
         "key 'batch_depth' must be at most 4294967295"},
        {"sample_every", "4294967304",
         "key 'sample_every' must be at most 4294967295"},
    };
    for (const auto &c : cases) {
        std::string job = "{\"target\":\"fig2\",\"" +
                          std::string(c.key) + "\":" + c.value + "}";
        auto [direct, wire] = parseBothWays(job);
        EXPECT_NE(direct.find(c.error), std::string::npos)
            << job << " -> '" << direct << "'";
        EXPECT_NE(wire.find(c.error), std::string::npos)
            << job << " -> '" << wire << "'";
    }

    // The largest values that fit are still accepted.
    obs::JsonValue v;
    std::string error;
    ASSERT_TRUE(obs::parseJson(
        "{\"target\":\"fig2\",\"batch_depth\":4294967295,"
        "\"sample_every\":4294967295,\"channel_capacity\":2147483647,"
        "\"cycles\":9223372036854775808}",
        v, error));
    svc::JobSpec spec;
    ASSERT_TRUE(svc::parseJobSpec(v, spec, error)) << error;
    EXPECT_EQ(spec.batchDepth, 4294967295u);
    EXPECT_EQ(spec.sampleEvery, 4294967295u);
    EXPECT_EQ(spec.channelCapacity, 2147483647);
    EXPECT_EQ(spec.cycles, uint64_t(1) << 63);
}

// The channel-capacity override is bounded: every channel allocates
// its token rings up front, so a capacity the parser accepts can
// still be an allocation no host can make. validate() answers it
// with a structured error before anything is built.
TEST(SvcProtocol, ChannelCapacityOverrideIsBounded)
{
    const struct
    {
        const char *value;
        bool valid;
    } cases[] = {
        {"-1", true},          {"0", true},     {"16", true},
        {"4096", true},        {"4097", false}, {"65536", false},
        {"2147483647", false},
    };
    for (const auto &c : cases) {
        std::string job = "{\"target\":\"fig2\",\"channel_capacity\":" +
                          std::string(c.value) + "}";
        obs::JsonValue v;
        std::string error;
        ASSERT_TRUE(obs::parseJson(job, v, error)) << error;
        svc::JobSpec spec;
        ASSERT_TRUE(svc::parseJobSpec(v, spec, error)) << error;
        std::string bad = spec.validate();
        if (c.valid) {
            EXPECT_EQ(bad, "") << job;
        } else {
            EXPECT_NE(bad.find("channel capacity must be in [0, 4096]"),
                      std::string::npos)
                << job << " -> '" << bad << "'";
            EXPECT_NE(bad.find(c.value), std::string::npos) << bad;
        }
    }
}

// Existing clients (the benchmark's job plans among them) still send
// the keys of the removed parallel backend with the values that
// select the sequential loop; those parse and are not stored.
TEST(SvcProtocol, SequentialBackendKeysAccepted)
{
    auto [direct, wire] = parseBothWays(
        "{\"target\":\"fig2\",\"backend\":\"sequential\","
        "\"workers\":0}");
    EXPECT_EQ(direct, "");
    EXPECT_EQ(wire, "");
}

TEST(SvcProtocol, ParallelBackendKeysRejected)
{
    for (const char *job :
         {"{\"target\":\"fig2\",\"backend\":\"parallel\"}",
          "{\"target\":\"fig2\",\"workers\":3}"}) {
        auto [direct, wire] = parseBothWays(job);
        for (const std::string &err : {direct, wire}) {
            EXPECT_NE(err.find("the parallel backend was removed"),
                      std::string::npos)
                << job << " -> '" << err << "'";
        }
    }
}

TEST(SvcProtocol, HexHashSurvivesRoundTrip)
{
    // The wire form exists because doubles drop bits above 2^53;
    // check a hash with the top bit set survives intact.
    uint64_t h = 0xF1A5C0DE12345678ull;
    EXPECT_EQ(svc::parseHexHash(svc::hexHash(h)), h);
    EXPECT_EQ(svc::hexHash(h), "0xf1a5c0de12345678");
    EXPECT_EQ(svc::parseHexHash("garbage"), 0u);
}

TEST(SvcProtocol, ResultLineCarriesIdentityHashes)
{
    svc::RunOutcome o;
    o.ok = true;
    o.traceHash = 0xAAAAAAAAAAAAAAAAull;
    o.artifactHash = 0xBBBBBBBBBBBBBBBBull;
    std::string line = svc::resultLine(7, "fig2", o);
    EXPECT_NE(line.find("\"type\":\"result\""), std::string::npos);
    EXPECT_NE(line.find("\"job\":7"), std::string::npos);
    EXPECT_NE(line.find("\"trace_hash\":\"0xaaaaaaaaaaaaaaaa\""),
              std::string::npos);
    EXPECT_NE(line.find("\"artifact_hash\":\"0xbbbbbbbbbbbbbbbb\""),
              std::string::npos);
}

// --- artifact cache ------------------------------------------------

TEST(SvcCache, HitMissAndLruEviction)
{
    svc::CacheBudgets budgets;
    budgets.elabBytes = 1000; // room for two 400-byte entries
    svc::ArtifactCache cache(budgets);

    unsigned builds = 0;
    auto entry = [&](uint64_t key, size_t bytes = 400) {
        return [&builds, key, bytes]() {
            ++builds;
            auto e = std::make_shared<svc::Elaboration>();
            e->contentHash = key;
            e->byteSize = bytes;
            return std::shared_ptr<const svc::Elaboration>(e);
        };
    };
    // Fetch @p key, building it on a miss; true on a hit.
    auto fetch = [&](uint64_t key, size_t bytes = 400) {
        bool hit = false;
        auto e = cache.elaboration(key, entry(key, bytes), hit);
        EXPECT_EQ(e->contentHash, key);
        return hit;
    };

    EXPECT_FALSE(fetch(1));
    EXPECT_FALSE(fetch(2));
    EXPECT_TRUE(fetch(1));
    EXPECT_TRUE(fetch(2));
    EXPECT_EQ(builds, 2u);

    auto stats = cache.elabStats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.bytes, 800u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.inflightWaits, 0u);

    // Touch 1 so 2 becomes least-recently-used, then insert 3:
    // the budget forces 2 out, 1 stays.
    EXPECT_TRUE(fetch(1));
    EXPECT_FALSE(fetch(3));
    EXPECT_TRUE(fetch(1));
    EXPECT_TRUE(fetch(3));
    stats = cache.elabStats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_FALSE(fetch(2));

    // An entry bigger than the whole budget is never admitted.
    EXPECT_FALSE(fetch(9, 4000));
    EXPECT_FALSE(fetch(9, 4000));
    EXPECT_EQ(cache.elabStats().bytes, 800u);
}

TEST(SvcCache, ShardsAreIndependent)
{
    svc::ArtifactCache cache;
    bool hit = false;
    auto elab = std::make_shared<svc::Elaboration>();
    elab->byteSize = 64;
    cache.elaboration(
        5, [&] { return std::shared_ptr<const svc::Elaboration>(elab); },
        hit);
    // Same key in a different shard must not alias.
    auto none = [] { return std::shared_ptr<const verify::Report>(); };
    EXPECT_EQ(cache.report(5, none, hit), nullptr);
    EXPECT_FALSE(hit);
    auto no_programs = [] {
        return std::shared_ptr<const svc::ArtifactCache::ProgramSet>();
    };
    EXPECT_EQ(cache.programs(5, no_programs, hit), nullptr);
    EXPECT_FALSE(hit);
    auto fail = []() -> std::shared_ptr<const svc::Elaboration> {
        throw std::runtime_error("must hit");
    };
    EXPECT_EQ(cache.elaboration(5, fail, hit), elab);
    EXPECT_TRUE(hit);
}

TEST(SvcCache, ConcurrentMissesBuildOnce)
{
    svc::ArtifactCache cache;
    constexpr unsigned kThreads = 4;
    std::atomic<unsigned> builds{0};
    auto build = [&]() -> std::shared_ptr<const svc::Elaboration> {
        ++builds;
        // Hold the build open until every other lookup is waiting on
        // it, so the test does not depend on thread timing.
        for (int i = 0; i < 10000 &&
                        cache.elabStats().inflightWaits < kThreads - 1;
             ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        auto e = std::make_shared<svc::Elaboration>();
        e->contentHash = 42;
        e->byteSize = 64;
        return e;
    };

    std::vector<std::thread> threads;
    std::atomic<unsigned> hits{0};
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            bool hit = false;
            auto e = cache.elaboration(7, build, hit);
            EXPECT_NE(e, nullptr);
            EXPECT_EQ(e->contentHash, 42u);
            hits += hit;
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(builds.load(), 1u);
    EXPECT_EQ(hits.load(), kThreads - 1);
    auto stats = cache.elabStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, kThreads - 1);
    EXPECT_EQ(stats.inflightWaits, kThreads - 1);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(SvcCache, FailedBuildHandsOverToNextCaller)
{
    svc::ArtifactCache cache;
    bool hit = true;
    auto failing = []() -> std::shared_ptr<const verify::Report> {
        throw std::runtime_error("build failed");
    };
    EXPECT_THROW(cache.report(3, failing, hit), std::runtime_error);
    EXPECT_FALSE(hit);
    // Nothing was cached and nobody is left building: the next
    // caller builds (a null artifact is not cached either).
    auto none = [] { return std::shared_ptr<const verify::Report>(); };
    EXPECT_EQ(cache.report(3, none, hit), nullptr);
    auto good = [] { return std::make_shared<const verify::Report>(); };
    EXPECT_NE(cache.report(3, good, hit), nullptr);
    EXPECT_FALSE(hit);
    EXPECT_NE(cache.report(3, none, hit), nullptr);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.reportStats().misses, 3u);
    EXPECT_EQ(cache.reportStats().hits, 1u);
}

// --- job runner ----------------------------------------------------

TEST(SvcJobRunner, WarmCacheSkipsSetupAndPreservesResults)
{
    svc::JobSpec spec;
    spec.target = "fig2";
    spec.cycles = 800;
    spec.engine = "compiled";

    svc::ArtifactCache cache;
    svc::RunOutcome cold = svc::runJob(spec, &cache);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.elabCacheHit);
    EXPECT_FALSE(cold.verifyCacheHit);
    EXPECT_FALSE(cold.programCacheHit);
    EXPECT_NE(cold.traceHash, 0u);
    EXPECT_NE(cold.artifactHash, 0u);

    svc::RunOutcome warm = svc::runJob(spec, &cache);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.elabCacheHit);
    EXPECT_TRUE(warm.verifyCacheHit);
    EXPECT_TRUE(warm.programCacheHit);

    // Cached artifacts must not perturb the simulation.
    EXPECT_EQ(warm.traceHash, cold.traceHash);
    EXPECT_EQ(warm.finalSig, cold.finalSig);
    EXPECT_EQ(warm.planHash, cold.planHash);
    EXPECT_EQ(warm.artifactHash, cold.artifactHash);
}

TEST(SvcJobRunner, RejectsInvalidPlanWithRenderedReport)
{
    svc::JobSpec spec;
    spec.target = "fig2";
    spec.cycles = 100;
    spec.channelCapacity = 0; // PLAN007: source can never enqueue

    svc::RunOutcome o = svc::runJob(spec);
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.exitCode, 3);
    EXPECT_NE(o.error.find("static verification"),
              std::string::npos);
    EXPECT_NE(o.verifyReport.find("PLAN007"), std::string::npos);
}

TEST(SvcJobRunner, RejectsMalformedSpec)
{
    svc::JobSpec spec;
    spec.target = "no-such-target";
    svc::RunOutcome o = svc::runJob(spec);
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.exitCode, 2);
    EXPECT_FALSE(o.error.empty());
}

// --- graceful stop -------------------------------------------------

TEST(SvcStop, RequestStopQuiescesWithResumableSnapshot)
{
    const svc::TargetInfo *target = svc::findTarget("fig2");
    ASSERT_NE(target, nullptr);
    auto circuit = target->build();
    auto plan = ripper::partition(circuit, target->spec(circuit));
    const size_t nparts = plan.partitions.size();
    auto fpgas = std::vector<platform::FpgaSpec>(
        nparts, platform::alveoU250(100.0));
    const uint64_t cycles = 3000;

    // Golden: uninterrupted run.
    uint64_t golden_sig = 0;
    {
        platform::MultiFpgaSim sim(plan, fpgas,
                                   transport::qsfpAurora());
        sim.init();
        auto r = sim.run(cycles);
        ASSERT_FALSE(r.deadlocked);
        golden_sig = finalStateSignature(sim, nparts);
    }

    // Interrupted: a monitor fires requestStop() mid-run (the same
    // sticky flag a drain broadcast sets); the run must stop at a
    // quiesce boundary short of the limit and snapshot cleanly.
    std::string dir = tempDir("stop");
    {
        platform::MultiFpgaSim sim(plan, fpgas,
                                   transport::qsfpAurora());
        sim.setMonitor(0, [&sim](rtlsim::Simulator &, unsigned,
                                 uint64_t cycle) {
            if (cycle >= 1000)
                sim.requestStop();
        });
        sim.init();
        auto r = sim.run(cycles);
        ASSERT_FALSE(r.deadlocked);
        EXPECT_TRUE(r.stopped);
        EXPECT_LT(r.targetCycles, cycles);
        EXPECT_GE(r.targetCycles, 1000u);
        std::string err;
        ASSERT_TRUE(sim.snapshot(dir, err)) << err;
    }

    // Resume from the stop-point snapshot and run to the original
    // limit: final state must be bit-identical to the golden run.
    {
        platform::MultiFpgaSim sim(plan, fpgas,
                                   transport::qsfpAurora());
        std::string err;
        ASSERT_TRUE(sim.restore(dir, err)) << err;
        auto r = sim.run(cycles);
        ASSERT_FALSE(r.deadlocked);
        EXPECT_FALSE(r.stopped);
        EXPECT_EQ(finalStateSignature(sim, nparts), golden_sig);
    }
    std::filesystem::remove_all(dir);
}

// --- service -------------------------------------------------------

namespace {

/** Collects one job's protocol lines and parses the terminal line. */
struct JobProbe
{
    std::mutex mtx;
    std::condition_variable cv;
    std::vector<std::string> lines;
    bool terminal = false;

    svc::SimService::EventSink
    sink()
    {
        return [this](const std::string &line) {
            std::lock_guard<std::mutex> lock(mtx);
            lines.push_back(line);
            if (line.find("\"type\":\"result\"") !=
                    std::string::npos ||
                line.find("\"type\":\"error\"") !=
                    std::string::npos) {
                terminal = true;
                cv.notify_all();
            }
        };
    }

    void
    waitTerminal()
    {
        std::unique_lock<std::mutex> lock(mtx);
        cv.wait(lock, [this] { return terminal; });
    }

    bool
    sawState(const std::string &state)
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const auto &l : lines)
            if (l.find("\"state\":\"" + state + "\"") !=
                std::string::npos)
                return true;
        return false;
    }

    /** Value of a "0x..." field on the terminal line (0 if absent). */
    uint64_t
    hashField(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (const auto &l : lines) {
            auto at = l.find("\"" + key + "\":\"");
            if (at != std::string::npos)
                return svc::parseHexHash(
                    l.substr(at + key.size() + 4, 18));
        }
        return 0;
    }

    std::string
    terminalLine()
    {
        std::lock_guard<std::mutex> lock(mtx);
        return lines.empty() ? "" : lines.back();
    }
};

} // namespace

TEST(SvcService, ConcurrentJobsMatchSequentialGolden)
{
    svc::JobSpec spec;
    spec.target = "fig2";
    spec.cycles = 600;

    // Sequential golden.
    svc::ArtifactCache golden_cache;
    svc::RunOutcome golden = svc::runJob(spec, &golden_cache);
    ASSERT_TRUE(golden.ok) << golden.error;

    constexpr unsigned kJobs = 4;
    svc::ServiceConfig cfg;
    cfg.workers = kJobs;
    svc::SimService service(cfg);

    JobProbe probes[kJobs];
    for (auto &probe : probes)
        service.submit(spec, probe.sink());
    service.waitAll();

    for (auto &probe : probes) {
        probe.waitTerminal();
        EXPECT_TRUE(probe.sawState("queued"));
        EXPECT_TRUE(probe.sawState("running"));
        EXPECT_EQ(probe.hashField("trace_hash"), golden.traceHash)
            << probe.terminalLine();
        EXPECT_EQ(probe.hashField("final_sig"), golden.finalSig);
        EXPECT_EQ(probe.hashField("artifact_hash"),
                  golden.artifactHash);
    }
    EXPECT_EQ(service.jobsCompleted(), kJobs);
    // All four ran the same shape: the shared cache saw exactly one
    // elaboration miss.
    EXPECT_EQ(service.cache().elabStats().misses, 1u);
    EXPECT_EQ(service.cache().elabStats().hits, kJobs - 1u);
}

TEST(SvcService, StructuredRejectionForInvalidPlan)
{
    svc::JobSpec spec;
    spec.target = "fig2";
    spec.cycles = 100;
    spec.channelCapacity = 0;

    svc::SimService service;
    JobProbe probe;
    uint64_t id = service.submit(spec, probe.sink());
    ASSERT_TRUE(service.waitJob(id));
    probe.waitTerminal();
    std::string line = probe.terminalLine();
    EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos);
    EXPECT_NE(line.find("\"code\":\"verify\""), std::string::npos);
    EXPECT_NE(line.find("PLAN007"), std::string::npos);
}

TEST(SvcService, OversizedChannelCapacityIsABadRequest)
{
    svc::Request req;
    std::string error;
    ASSERT_TRUE(svc::parseRequest(
        "{\"type\":\"submit\",\"schema\":\"" +
            std::string(svc::kJobSchema) +
            "\",\"job\":{\"target\":\"fig2\",\"cycles\":100,"
            "\"channel_capacity\":2147483647}}",
        req, error))
        << error;

    svc::SimService service;
    JobProbe probe;
    uint64_t id = service.submit(req.job, probe.sink());
    ASSERT_TRUE(service.waitJob(id));
    probe.waitTerminal();
    std::string line = probe.terminalLine();
    EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"code\":\"bad_request\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("channel capacity must be in [0, 4096]"),
              std::string::npos)
        << line;
}

TEST(SvcService, DrainStopsInFlightJobAndLeavesResumableSnapshot)
{
    std::string dir = tempDir("drain");

    // A job far too long to finish: the drain must stop it.
    svc::JobSpec spec;
    spec.target = "fig2";
    spec.cycles = 200000000ull;
    spec.snapshotDir = dir;

    svc::ServiceConfig cfg;
    cfg.workers = 1;
    svc::SimService service(cfg);

    JobProbe running_probe;
    service.submit(spec, running_probe.sink());
    // A second job queued behind it must be rejected by the drain.
    JobProbe queued_probe;
    service.submit(spec, queued_probe.sink());

    // Wait until the first job is actually running.
    while (service.jobsActive() == 0)
        std::this_thread::yield();

    service.drain();
    running_probe.waitTerminal();
    queued_probe.waitTerminal();

    std::string stopped_line = running_probe.terminalLine();
    EXPECT_NE(stopped_line.find("\"type\":\"result\""),
              std::string::npos)
        << stopped_line;
    EXPECT_NE(stopped_line.find("\"stopped\":true"),
              std::string::npos)
        << stopped_line;

    std::string rejected_line = queued_probe.terminalLine();
    EXPECT_NE(rejected_line.find("\"type\":\"error\""),
              std::string::npos)
        << rejected_line;
    EXPECT_NE(rejected_line.find("draining"), std::string::npos);

    // The stop-point snapshot must restore into a working sim.
    const svc::TargetInfo *target = svc::findTarget("fig2");
    auto circuit = target->build();
    auto plan = ripper::partition(circuit, target->spec(circuit));
    platform::MultiFpgaSim sim(
        plan,
        std::vector<platform::FpgaSpec>(plan.partitions.size(),
                                        platform::alveoU250(100.0)),
        transport::qsfpAurora());
    std::string err;
    ASSERT_TRUE(sim.restore(dir, err)) << err;
    // The stop may land anywhere — including cycle 0 if the drain
    // won the race with the first cycle. Wherever it quiesced, the
    // snapshot must resume and run on cleanly.
    uint64_t resumed_at = sim.model(0).minTargetCycle();
    auto r = sim.run(resumed_at + 500);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.targetCycles, resumed_at + 500);
    std::filesystem::remove_all(dir);
}

TEST(SvcService, SubmitAfterDrainIsRejected)
{
    svc::SimService service;
    service.drain();
    svc::JobSpec spec;
    spec.target = "fig2";
    JobProbe probe;
    service.submit(spec, probe.sink());
    probe.waitTerminal();
    EXPECT_NE(probe.terminalLine().find("\"type\":\"error\""),
              std::string::npos);
}

TEST(SvcService, StreamedTelemetryArrivesAsProtocolLines)
{
    svc::JobSpec spec;
    spec.target = "fig2";
    spec.cycles = 400;
    spec.stream = true;
    spec.sampleEvery = 1;

    svc::SimService service;
    JobProbe probe;
    uint64_t id = service.submit(spec, probe.sink());
    ASSERT_TRUE(service.waitJob(id));
    probe.waitTerminal();

    size_t stream_lines = 0;
    bool header_seen = false;
    {
        std::lock_guard<std::mutex> lock(probe.mtx);
        for (const auto &l : probe.lines)
            if (l.find("\"type\":\"stream\"") != std::string::npos) {
                ++stream_lines;
                if (l.find("fireaxe.stream.v1") != std::string::npos)
                    header_seen = true;
            }
    }
    EXPECT_GT(stream_lines, 0u);
    EXPECT_TRUE(header_seen);
}
