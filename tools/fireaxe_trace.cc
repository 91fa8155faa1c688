/**
 * @file
 * fireaxe-trace: offline critical-path profiler over a streaming
 * telemetry file ("fireaxe.stream.v1" JSONL, produced by
 * `fireaxe-run --stream` or any executor with
 * TelemetryConfig::streamPath set).
 *
 * Reads the stream back (header → channel table and run identity,
 * "tokens" chunks → causal token records, the last "metrics" line →
 * measured per-partition wall-clock wait), runs the critical-path
 * analyzer (obs/critpath.hh), and prints the human report: a
 * per-partition attribution-coverage table plus the top-N blocking
 * channels with wait decomposed into serialization / link flight /
 * retransmit / upstream-idle percentages.
 *
 *   --top N       channels to show in the text report (default 10)
 *   --json FILE   machine-readable report ("fireaxe.critpath.v1")
 *   --chrome FILE Chrome trace_event JSON with the critical path
 *                 highlighted (category "token.critical"/"critpath")
 *
 * Exit status: 0 ok, 2 usage errors, 3 unreadable/invalid stream.
 * Malformed lines (e.g. a line truncated by a crashed producer) are
 * skipped with a warning; a stream without a header is invalid.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/critpath.hh"
#include "obs/jsonparse.hh"
#include "obs/tokentrace.hh"

using namespace fireaxe;

namespace {

int
usage(std::ostream &os, int status)
{
    os << "usage: fireaxe-trace FILE [options]\n"
          "\n"
          "options:\n"
          "  --top N        blocking channels to print (default 10)\n"
          "  --json FILE    write the critical-path report as JSON\n"
          "  --chrome FILE  write an annotated Chrome trace\n";
    return status;
}

/** Parsed-back view of one stream file. */
struct Stream
{
    bool haveHeader = false;
    std::string target;
    std::string engine;
    uint64_t planHash = 0;
    obs::CritPathInput input;
    /** Last summary line (authoritative for a chunked run). */
    obs::JsonValue summary;
    bool haveSummary = false;
    uint64_t tokenLines = 0;
    uint64_t metricsLines = 0;
    uint64_t badLines = 0;
};

void
parseHeader(const obs::JsonValue &line, Stream &s)
{
    s.haveHeader = true;
    s.target = line.text("target");
    s.engine = line.text("engine");
    s.planHash = line.u64("plan_hash");
    s.input.sampleEvery = unsigned(line.u64("sample_every", 1));
    if (const obs::JsonValue *parts = line.get("partitions");
        parts && parts->isArray()) {
        for (const obs::JsonValue &p : parts->arr) {
            size_t id = size_t(p.u64("id"));
            if (s.input.partNames.size() <= id)
                s.input.partNames.resize(id + 1);
            s.input.partNames[id] = p.text("name");
        }
    }
    if (const obs::JsonValue *chans = line.get("channels");
        chans && chans->isArray()) {
        for (const obs::JsonValue &c : chans->arr) {
            obs::TokenChannelInfo info;
            info.id = int(c.u64("id"));
            info.name = c.text("name");
            info.srcPart = int(c.u64("src"));
            info.dstPart = int(c.u64("dst"));
            s.input.channels.push_back(std::move(info));
        }
    }
}

void
parseTokens(const obs::JsonValue &line, Stream &s)
{
    const obs::JsonValue *records = line.get("records");
    if (!records || !records->isArray())
        return;
    ++s.tokenLines;
    for (const obs::JsonValue &r : records->arr) {
        obs::TokenRecord rec;
        rec.channel = int(r.u64("chan"));
        rec.seq = r.u64("seq");
        rec.targetCycle =
            r.u64("cycle", obs::TokenRecord::kNoCycle);
        rec.produceNs = r.num("produce_ns");
        rec.departNs = r.num("depart_ns");
        rec.readyNs = r.num("ready_ns");
        rec.flightNs = r.num("flight_ns");
        rec.penaltyNs = r.num("penalty_ns");
        rec.nakNs = r.num("nak_ns");
        rec.naks = uint32_t(r.u64("naks"));
        rec.fireNs = r.num("fire_ns");
        rec.deliverNs = rec.fireNs;
        rec.fired = true; // only completed records are streamed
        if (rec.channel >= 0 &&
            size_t(rec.channel) < s.input.channels.size()) {
            rec.srcPart = s.input.channels[rec.channel].srcPart;
            rec.dstPart = s.input.channels[rec.channel].dstPart;
        }
        s.input.records.push_back(std::move(rec));
    }
}

/** Pull part.<name>.wait_ns gauges out of a metrics line. Later
 *  lines overwrite earlier ones, so the last snapshot wins. */
void
parseMetrics(const obs::JsonValue &line, Stream &s)
{
    const obs::JsonValue *metrics = line.get("metrics");
    if (!metrics || !metrics->isObject())
        return;
    ++s.metricsLines;
    for (size_t p = 0; p < s.input.partNames.size(); ++p) {
        const std::string key =
            "part." + s.input.partNames[p] + ".wait_ns";
        if (const obs::JsonValue *m = metrics->get(key))
            s.input.measuredWaitNs[int(p)] = m->num("value");
    }
}

bool
readStream(const std::string &path, Stream &s)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "fireaxe-trace: cannot open '" << path << "'\n";
        return false;
    }
    std::string line;
    uint64_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        obs::JsonValue v;
        std::string error;
        if (!obs::parseJson(line, v, error)) {
            // A producer killed mid-write leaves one truncated line;
            // skip it rather than losing the whole stream.
            std::cerr << "fireaxe-trace: " << path << ":" << lineno
                      << ": skipping malformed line (" << error
                      << ")\n";
            ++s.badLines;
            continue;
        }
        const std::string type = v.text("type");
        if (type == "header")
            parseHeader(v, s);
        else if (type == "tokens")
            parseTokens(v, s);
        else if (type == "metrics")
            parseMetrics(v, s);
        else if (type == "summary") {
            s.summary = std::move(v);
            s.haveSummary = true;
        }
    }
    if (!s.haveHeader) {
        std::cerr << "fireaxe-trace: " << path
                  << ": no fireaxe.stream.v1 header line\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path, json_path, chrome_path;
    size_t top_n = 10;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "fireaxe-trace: " << flag
                          << " needs a value\n";
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--top") {
            top_n = size_t(
                std::strtoull(value("--top").c_str(), nullptr, 0));
        } else if (arg == "--json") {
            json_path = value("--json");
        } else if (arg == "--chrome") {
            chrome_path = value("--chrome");
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "fireaxe-trace: unknown option '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "fireaxe-trace: extra argument '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        }
    }
    if (path.empty())
        return usage(std::cerr, 2);

    Stream s;
    if (!readStream(path, s))
        return 3;

    obs::CritPathReport report = obs::analyzeCriticalPath(s.input);

    std::cout << "stream " << path << "\n"
              << "target " << s.target << "\n"
              << "engine " << s.engine << "\n"
              << "plan_hash 0x" << std::hex << s.planHash << std::dec
              << "\n"
              << "sample_every " << s.input.sampleEvery << "\n"
              << "token_records " << s.input.records.size() << "\n";
    if (s.haveSummary) {
        std::cout << "target_cycle " << s.summary.u64("target_cycle")
                  << "\n"
                  << "host_time_ns " << s.summary.num("host_time_ns")
                  << "\n"
                  << "token_records_dropped "
                  << s.summary.u64("token_records_dropped") << "\n"
                  << "trace_events_dropped "
                  << s.summary.u64("trace_events_dropped") << "\n";
    }
    std::cout << "\n";
    report.writeText(std::cout, top_n);

    if (!json_path.empty()) {
        std::ofstream js(json_path);
        if (!js) {
            std::cerr << "fireaxe-trace: cannot write '" << json_path
                      << "'\n";
            return 3;
        }
        report.writeJson(js);
        js << "\n";
    }
    if (!chrome_path.empty()) {
        std::ofstream ct(chrome_path);
        if (!ct) {
            std::cerr << "fireaxe-trace: cannot write '"
                      << chrome_path << "'\n";
            return 3;
        }
        obs::writeAnnotatedChromeTrace(s.input, report, ct);
    }
    return 0;
}
