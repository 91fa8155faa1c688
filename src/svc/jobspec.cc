#include "svc/jobspec.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "recovery/snapshot.hh"
#include "svc/targets.hh"

namespace fireaxe::svc {

std::string
JobSpec::validate() const
{
    if (target.empty())
        return "job needs a target";
    if (!findTarget(target))
        return "unknown target '" + target + "'";
    if (mode != "exact" && mode != "fast")
        return "mode must be exact or fast, got '" + mode + "'";
    if (!engine.empty() && engine != "interpret" &&
        engine != "compiled")
        return "engine must be interpret or compiled, got '" +
               engine + "'";
    if (resume && snapshotDir.empty())
        return "resume needs a snapshot directory";
    if (faultRate < 0.0 || faultRate > 1.0)
        return "fault rate must be in [0, 1]";
    if (channelCapacity < -1 || channelCapacity > kMaxChannelCapacity)
        return "channel capacity must be in [0, " +
               std::to_string(kMaxChannelCapacity) +
               "] tokens (or -1 to keep the plan's), got " +
               std::to_string(channelCapacity);
    return "";
}

uint64_t
JobSpec::elabSignature() const
{
    uint64_t h = recovery::fnv1a("fireaxe-elab");
    h = recovery::fnv1aMix(h, recovery::fnv1a(target));
    h = recovery::fnv1aMix(h, recovery::fnv1a(mode));
    h = recovery::fnv1aMix(h, uint64_t(int64_t(channelCapacity)));
    return h;
}

void
JobSpec::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    w.key("target");
    w.value(target);
    w.key("mode");
    w.value(mode);
    if (!engine.empty()) {
        w.key("engine");
        w.value(engine);
    }
    if (batchDepth > 0) {
        w.key("batch_depth");
        w.value(uint64_t(batchDepth));
    }
    w.key("cycles");
    w.value(cycles);
    if (faultRate > 0.0) {
        w.key("fault_rate");
        w.value(faultRate);
        // Hex string, not a number: JSON numbers are doubles on the
        // far side and silently drop seed bits above 2^53.
        char hex[19];
        std::snprintf(hex, sizeof hex, "0x%llx",
                      (unsigned long long)seed);
        w.key("seed");
        w.value(hex);
    }
    if (snapshotEvery > 0) {
        w.key("snapshot_every");
        w.value(snapshotEvery);
    }
    if (!snapshotDir.empty()) {
        w.key("snapshot_dir");
        w.value(snapshotDir);
    }
    if (resume) {
        w.key("resume");
        w.value(true);
    }
    if (hashFrom > 0) {
        w.key("hash_from");
        w.value(hashFrom);
    }
    if (stream) {
        w.key("stream");
        w.value(true);
    }
    if (!streamPath.empty()) {
        w.key("stream_path");
        w.value(streamPath);
    }
    if (stream || !streamPath.empty()) {
        w.key("sample_every");
        w.value(uint64_t(sampleEvery));
        w.key("stream_every");
        w.value(streamEvery);
    }
    if (channelCapacity >= 0) {
        w.key("channel_capacity");
        w.value(channelCapacity);
    }
    w.endObject();
}

namespace {

bool
fail(std::string &error, const std::string &msg)
{
    error = msg;
    return false;
}

/** Non-negative integral number no larger than @p max, or a
 *  diagnostic. The range is checked on the double: converting one
 *  outside the destination's range is undefined behaviour. */
bool
takeU64(const obs::JsonValue &v, const std::string &key,
        uint64_t &out, std::string &error,
        uint64_t max = std::numeric_limits<uint64_t>::max())
{
    const obs::JsonValue *m = v.get(key);
    if (!m->isNumber())
        return fail(error, "key '" + key + "' must be a number");
    if (m->number < 0 || m->number != std::floor(m->number))
        return fail(error, "key '" + key +
                               "' must be a non-negative integer");
    // 2^64: the smallest double above every uint64_t.
    if (m->number >= 18446744073709551616.0 ||
        uint64_t(m->number) > max)
        return fail(error, "key '" + key + "' must be at most " +
                               std::to_string(max));
    out = uint64_t(m->number);
    return true;
}

bool
takeUnsigned(const obs::JsonValue &v, const std::string &key,
             unsigned &out, std::string &error)
{
    uint64_t u = 0;
    if (!takeU64(v, key, u, error,
                 std::numeric_limits<unsigned>::max()))
        return false;
    out = unsigned(u);
    return true;
}

bool
takeString(const obs::JsonValue &v, const std::string &key,
           std::string &out, std::string &error)
{
    const obs::JsonValue *m = v.get(key);
    if (!m->isString())
        return fail(error, "key '" + key + "' must be a string");
    out = m->str;
    return true;
}

bool
takeBool(const obs::JsonValue &v, const std::string &key, bool &out,
         std::string &error)
{
    const obs::JsonValue *m = v.get(key);
    if (!m->isBool())
        return fail(error, "key '" + key + "' must be a boolean");
    out = m->boolean;
    return true;
}

} // namespace

bool
parseJobSpec(const obs::JsonValue &v, JobSpec &spec,
             std::string &error)
{
    if (!v.isObject())
        return fail(error, "job must be a JSON object");
    spec = JobSpec{};
    const std::string removed =
        " (the parallel backend was removed; jobs run on the "
        "sequential loop)";
    for (const auto &[key, val] : v.obj) {
        uint64_t u = 0;
        if (key == "target") {
            if (!takeString(v, key, spec.target, error))
                return false;
        } else if (key == "mode") {
            if (!takeString(v, key, spec.mode, error))
                return false;
        } else if (key == "backend") {
            std::string backend;
            if (!takeString(v, key, backend, error))
                return false;
            if (backend != "sequential")
                return fail(error, "key 'backend' must be "
                                   "\"sequential\"" + removed);
        } else if (key == "engine") {
            if (!takeString(v, key, spec.engine, error))
                return false;
        } else if (key == "workers") {
            if (!takeU64(v, key, u, error))
                return false;
            if (u != 0)
                return fail(error, "key 'workers' must be 0" + removed);
        } else if (key == "batch_depth") {
            if (!takeUnsigned(v, key, spec.batchDepth, error))
                return false;
        } else if (key == "cycles") {
            if (!takeU64(v, key, spec.cycles, error))
                return false;
        } else if (key == "fault_rate") {
            if (!val.isNumber())
                return fail(error,
                            "key 'fault_rate' must be a number");
            spec.faultRate = val.number;
        } else if (key == "seed") {
            // Accept the hex-string wire form (full 64-bit fidelity)
            // or a plain number from hand-written clients.
            if (val.isString()) {
                char *end = nullptr;
                spec.seed = std::strtoull(val.str.c_str(), &end, 16);
                if (!end || *end != '\0')
                    return fail(error,
                                "key 'seed' must be a hex string "
                                "or number");
            } else if (!takeU64(v, key, spec.seed, error)) {
                return false;
            }
        } else if (key == "snapshot_every") {
            if (!takeU64(v, key, spec.snapshotEvery, error))
                return false;
        } else if (key == "snapshot_dir") {
            if (!takeString(v, key, spec.snapshotDir, error))
                return false;
        } else if (key == "resume") {
            if (!takeBool(v, key, spec.resume, error))
                return false;
        } else if (key == "hash_from") {
            if (!takeU64(v, key, spec.hashFrom, error))
                return false;
        } else if (key == "stream") {
            if (!takeBool(v, key, spec.stream, error))
                return false;
        } else if (key == "stream_path") {
            if (!takeString(v, key, spec.streamPath, error))
                return false;
        } else if (key == "sample_every") {
            if (!takeUnsigned(v, key, spec.sampleEvery, error))
                return false;
        } else if (key == "stream_every") {
            if (!takeU64(v, key, spec.streamEvery, error))
                return false;
        } else if (key == "channel_capacity") {
            if (!val.isNumber() ||
                val.number != std::floor(val.number))
                return fail(error, "key 'channel_capacity' must be "
                                   "an integer");
            if (val.number < -1 ||
                val.number > std::numeric_limits<int>::max())
                return fail(error, "key 'channel_capacity' must be "
                                   "in [-1, " +
                                   std::to_string(
                                       std::numeric_limits<int>::max()) +
                                   "]");
            spec.channelCapacity = int(val.number);
        } else {
            return fail(error, "unknown key '" + key + "'");
        }
    }
    if (spec.target.empty())
        return fail(error, "job needs a 'target' key");
    return true;
}

} // namespace fireaxe::svc
