#include "plan.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>

#include "obs/jsonparse.hh"

namespace perfbench {

namespace fs = std::filesystem;
using fireaxe::obs::JsonValue;

bool
loadPlan(const std::string &path, Plan &plan, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open plan " + path;
        return false;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    JsonValue root;
    if (!fireaxe::obs::parseJson(text, root, error))
        return false;
    if (!root.isObject()) {
        error = "plan must be a JSON object";
        return false;
    }
    plan.workload = root.text("workload");
    plan.runner = root.text("runner", "serial");
    plan.workers = unsigned(root.u64("workers", 1));
    if (plan.runner != "serial" && plan.runner != "service") {
        error = "unknown runner '" + plan.runner + "'";
        return false;
    }
    if (plan.workers == 0)
        plan.workers = 1;

    const JsonValue *groups = root.get("groups");
    if (!groups || !groups->isArray() || groups->arr.empty()) {
        error = "plan needs a non-empty 'groups' array";
        return false;
    }
    for (const JsonValue &g : groups->arr) {
        JobGroup group;
        group.copies = unsigned(g.u64("copies", 1));
        const JsonValue *spec = g.get("spec");
        if (group.copies == 0 || !spec) {
            error = "each group needs copies >= 1 and a spec";
            return false;
        }
        if (!fireaxe::svc::parseJobSpec(*spec, group.spec, error))
            return false;
        std::string bad = group.spec.validate();
        if (!bad.empty()) {
            error = "invalid spec: " + bad;
            return false;
        }
        plan.groups.push_back(std::move(group));
    }

    const JsonValue *rounds = root.get("rounds");
    if (!rounds || !rounds->isArray() || rounds->arr.empty()) {
        error = "plan needs a non-empty 'rounds' array";
        return false;
    }
    for (const JsonValue &r : rounds->arr) {
        if (!r.isArray()) {
            error = "each round is an array of group indices";
            return false;
        }
        std::vector<size_t> order;
        for (const JsonValue &idx : r.arr) {
            if (!idx.isNumber() || idx.number < 0 ||
                size_t(idx.number) >= plan.groups.size()) {
                error = "round refers to a group that does not exist";
                return false;
            }
            order.push_back(size_t(idx.number));
        }
        plan.rounds.push_back(std::move(order));
    }
    return true;
}

namespace {

std::mutex &
outputMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

Record::Record(const char *kind)
{
    w_.beginObject();
    put("kind", kind);
}

Record::~Record()
{
    w_.endObject();
    std::lock_guard<std::mutex> lock(outputMutex());
    std::fputs(os_.str().c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

Record &
Record::raw(const char *key, const std::string &json)
{
    w_.key(key);
    w_.raw(json);
    return *this;
}

void
clearJobFiles(const fireaxe::svc::JobSpec &spec)
{
    std::error_code ec;
    if (!spec.snapshotDir.empty())
        fs::remove_all(spec.snapshotDir, ec);
    if (!spec.streamPath.empty()) {
        fs::remove(spec.streamPath, ec);
        fs::create_directories(fs::path(spec.streamPath).parent_path(),
                               ec);
    }
}

} // namespace perfbench
