#include "svc/cache.hh"

#include <sstream>

#include "firrtl/printer.hh"

namespace fireaxe::svc {

// --- Shard --------------------------------------------------------

std::shared_ptr<const void>
ArtifactCache::Shard::lookup(uint64_t key)
{
    auto it = map.find(key);
    if (it == map.end())
        return nullptr;
    lru.splice(lru.begin(), lru, it->second);
    return it->second->value;
}

void
ArtifactCache::Shard::put(uint64_t key,
                          std::shared_ptr<const void> value,
                          size_t entry_bytes)
{
    // An entry larger than the whole budget would evict everything
    // and still not fit; don't let one giant artifact flush the
    // shard.
    if (entry_bytes > budget)
        return;
    auto it = map.find(key);
    if (it != map.end()) {
        bytes -= it->second->bytes;
        lru.erase(it->second);
        map.erase(it);
    }
    while (bytes + entry_bytes > budget && !lru.empty()) {
        const Entry &victim = lru.back();
        bytes -= victim.bytes;
        map.erase(victim.key);
        lru.pop_back();
        ++stats.evictions;
    }
    lru.push_front(Entry{key, std::move(value), entry_bytes});
    map[key] = lru.begin();
    bytes += entry_bytes;
    ++stats.insertions;
}

void
ArtifactCache::Shard::clear()
{
    lru.clear();
    map.clear();
    bytes = 0;
}

CacheShardStats
ArtifactCache::Shard::snapshot() const
{
    CacheShardStats s = stats;
    s.entries = map.size();
    s.bytes = bytes;
    s.budget = budget;
    return s;
}

// --- ArtifactCache ------------------------------------------------

namespace {

size_t
elabBytes(const void *e)
{
    return static_cast<const Elaboration *>(e)->byteSize;
}

size_t
reportBytes(const void *r)
{
    return estimateReportBytes(*static_cast<const verify::Report *>(r));
}

size_t
programSetBytes(const void *s)
{
    size_t bytes = sizeof(ArtifactCache::ProgramSet);
    for (const auto &p : *static_cast<const ArtifactCache::ProgramSet *>(s))
        if (p)
            bytes += p->byteSize();
    return bytes;
}

} // namespace

ArtifactCache::ArtifactCache(const CacheBudgets &budgets)
{
    elab_.budget = budgets.elabBytes;
    report_.budget = budgets.verifyBytes;
    program_.budget = budgets.programBytes;
}

std::shared_ptr<const void>
ArtifactCache::findOrBuild(
    Shard &shard, uint64_t key,
    const std::function<std::shared_ptr<const void>()> &build,
    size_t (*bytes)(const void *), bool &hit)
{
    std::unique_lock<std::mutex> lock(mtx_);
    // A disabled shard caches nothing, so there is nothing to share.
    bool shared = shard.budget > 0;
    while (shared) {
        if (std::shared_ptr<const void> value = shard.lookup(key)) {
            ++shard.stats.hits;
            hit = true;
            return value;
        }
        if (!shard.building.count(key))
            break;
        ++shard.stats.inflightWaits;
        built_.wait(lock, [&] { return !shard.building.count(key); });
    }
    ++shard.stats.misses;
    hit = false;
    if (shared)
        shard.building.insert(key);
    lock.unlock();

    std::shared_ptr<const void> value;
    try {
        value = build();
    } catch (...) {
        lock.lock();
        shard.building.erase(key);
        built_.notify_all();
        throw;
    }
    lock.lock();
    if (shared) {
        if (value)
            shard.put(key, value, bytes(value.get()));
        shard.building.erase(key);
        built_.notify_all();
    }
    return value;
}

std::shared_ptr<const Elaboration>
ArtifactCache::elaboration(uint64_t key,
                           const Builder<Elaboration> &build,
                           bool &hit)
{
    return std::static_pointer_cast<const Elaboration>(
        findOrBuild(elab_, key, build, elabBytes, hit));
}

std::shared_ptr<const verify::Report>
ArtifactCache::report(uint64_t key,
                      const Builder<verify::Report> &build, bool &hit)
{
    return std::static_pointer_cast<const verify::Report>(
        findOrBuild(report_, key, build, reportBytes, hit));
}

std::shared_ptr<const ArtifactCache::ProgramSet>
ArtifactCache::programs(uint64_t key, const Builder<ProgramSet> &build,
                        bool &hit)
{
    return std::static_pointer_cast<const ProgramSet>(
        findOrBuild(program_, key, build, programSetBytes, hit));
}

CacheShardStats
ArtifactCache::elabStats() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return elab_.snapshot();
}

CacheShardStats
ArtifactCache::reportStats() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return report_.snapshot();
}

CacheShardStats
ArtifactCache::programStats() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return program_.snapshot();
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> lock(mtx_);
    elab_.clear();
    report_.clear();
    program_.clear();
}

// --- footprint estimates ------------------------------------------

size_t
estimatePlanBytes(const ripper::PartitionPlan &plan)
{
    size_t bytes = sizeof(ripper::PartitionPlan);
    for (const auto &circuit : plan.partitions) {
        std::ostringstream os;
        firrtl::printCircuit(os, circuit);
        // The in-memory IR is node objects, not text; the printed
        // form underestimates it, so scale it up.
        bytes += os.str().size() * 4;
    }
    bytes += plan.nets.size() * sizeof(ripper::BoundaryNet);
    for (const auto &ch : plan.channels)
        bytes += sizeof(ripper::ChannelPlan) +
                 ch.netIndices.size() * sizeof(int);
    return bytes;
}

size_t
estimateReportBytes(const verify::Report &report)
{
    size_t bytes = sizeof(verify::Report);
    for (const auto &d : report.diagnostics())
        bytes += sizeof(verify::Diagnostic) + d.code.size() +
                 d.message.size() + d.loc.partition.size() +
                 d.loc.module.size() + d.loc.signal.size();
    return bytes;
}

} // namespace fireaxe::svc
