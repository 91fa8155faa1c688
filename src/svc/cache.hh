/**
 * @file
 * The content-addressed compiled-artifact cache at the centre of the
 * simulation service.
 *
 * Three artifact kinds are cached, each in its own LRU shard with its
 * own byte budget:
 *
 *  - Elaboration — the FireRipper PartitionPlan for a job shape,
 *    keyed by JobSpec::elabSignature() (target + mode + capacity
 *    override): what elaboration *produces* is determined by what it
 *    was asked to build.
 *  - Verify reports — the static verifier's Report for a plan, keyed
 *    by platform::contentHash(plan): the checks are pure functions of
 *    the elaborated IR + plan structure.
 *  - Compiled programs — the per-partition rtlsim bytecode programs
 *    (rtlsim::CompiledProgram, immutable and shareable), keyed by the
 *    same content hash: flattening and compilation are deterministic,
 *    so a program compiled from one construction of a partition is
 *    valid for every other construction of the same content.
 *
 * A repeat submission of the same job shape therefore skips straight
 * to execution: elaboration, verification, and bytecode compilation
 * all come out of the cache (see svc::JobRunner). Entries are plain
 * shared_ptr-to-const values — a hit pins the artifact for the using
 * job while eviction stays O(1) and never invalidates users.
 *
 * Thread safety: one mutex per cache instance; every operation is a
 * short map lookup + list splice. The service's worker pool shares
 * one instance. The build-through lookups (elaboration(), report(),
 * programs()) are single-flight: when several jobs miss on one key
 * at once, the first builds and the others wait for its artifact
 * instead of building it again.
 */

#ifndef FIREAXE_SVC_CACHE_HH
#define FIREAXE_SVC_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ripper/partition.hh"
#include "rtlsim/compiled.hh"
#include "verify/diag.hh"

namespace fireaxe::svc {

/** Cached elaboration result: the plan plus its content identity. */
struct Elaboration
{
    ripper::PartitionPlan plan;
    /** platform::contentHash(plan), computed once at insertion. */
    uint64_t contentHash = 0;
    /** Rough memory footprint (bytes) used for budget accounting. */
    size_t byteSize = 0;
};

/** Per-shard accounting (also summed into service status lines). */
struct CacheShardStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /** Lookups that waited for a concurrent build of the same key
     *  (single-flight) instead of building it again. */
    uint64_t inflightWaits = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t budget = 0;
};

/** Shard budgets; 0 disables a shard (every lookup misses). */
struct CacheBudgets
{
    size_t elabBytes = size_t(64) << 20;
    size_t verifyBytes = size_t(8) << 20;
    size_t programBytes = size_t(64) << 20;
};

class ArtifactCache
{
  public:
    using ProgramSet =
        std::vector<std::shared_ptr<const rtlsim::CompiledProgram>>;

    explicit ArtifactCache(const CacheBudgets &budgets = {});

    /** Builds one artifact on a miss; null means it could not be
     *  built (nothing is cached, and the next waiter builds). */
    template <typename T>
    using Builder = std::function<std::shared_ptr<const T>()>;

    // --- build-through lookups, one per shard ---------------------
    //
    // Elaborations are keyed by JobSpec::elabSignature(), verify
    // reports and compiled program sets by platform::contentHash.
    // A hit returns the cached artifact. The first miss on a key
    // runs @p build outside the lock and caches its result; misses
    // on the same key while that build runs wait for it (counted in
    // CacheShardStats::inflightWaits) and then count as hits
    // (single-flight). @p hit tells whether this call got the
    // artifact without building it. Exceptions from @p build
    // propagate to its caller and release the waiters, one of which
    // then builds.
    std::shared_ptr<const Elaboration>
    elaboration(uint64_t key, const Builder<Elaboration> &build,
                bool &hit);
    std::shared_ptr<const verify::Report>
    report(uint64_t key, const Builder<verify::Report> &build,
           bool &hit);
    std::shared_ptr<const ProgramSet>
    programs(uint64_t key, const Builder<ProgramSet> &build, bool &hit);

    CacheShardStats elabStats() const;
    CacheShardStats reportStats() const;
    CacheShardStats programStats() const;

    /** Drop everything (budgets and lifetime hit/miss counters
     *  survive). */
    void clear();

  private:
    /**
     * One LRU shard: insertion-keyed map over a recency list. The
     * payload is type-erased; the typed accessors above are the only
     * way in and out, so a key can never alias across kinds.
     */
    struct Shard
    {
        struct Entry
        {
            uint64_t key = 0;
            std::shared_ptr<const void> value;
            size_t bytes = 0;
        };

        size_t budget = 0;
        size_t bytes = 0;
        std::list<Entry> lru; ///< front = most recently used
        std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
        /** Keys a single-flight lookup is building right now. */
        std::unordered_set<uint64_t> building;
        CacheShardStats stats;

        /** Entry for @p key (refreshing its recency) or null. */
        std::shared_ptr<const void> lookup(uint64_t key);
        void put(uint64_t key, std::shared_ptr<const void> value,
                 size_t bytes);
        void clear();
        CacheShardStats snapshot() const;
    };

    /** Single-flight core of the typed build-through lookups;
     *  @p bytes sizes a built artifact for the shard budget. */
    std::shared_ptr<const void>
    findOrBuild(Shard &shard, uint64_t key,
                const std::function<std::shared_ptr<const void>()> &build,
                size_t (*bytes)(const void *), bool &hit);

    mutable std::mutex mtx_;
    /** Signalled whenever a single-flight build finishes. */
    std::condition_variable built_;
    Shard elab_;
    Shard report_;
    Shard program_;
};

/** Rough footprint of a partition plan (for budget accounting):
 *  printed-text length of every partition circuit plus the plan's
 *  net/channel tables. */
size_t estimatePlanBytes(const ripper::PartitionPlan &plan);

/** Rough footprint of a verify report. */
size_t estimateReportBytes(const verify::Report &report);

} // namespace fireaxe::svc

#endif // FIREAXE_SVC_CACHE_HH
