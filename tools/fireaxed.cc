/**
 * @file
 * fireaxed: the multi-tenant simulation service daemon. Listens on a
 * Unix-domain socket for fireaxe.job.v1 submissions (newline-
 * delimited JSON; see src/svc/protocol.hh), runs jobs on a fixed
 * worker pool over the shared content-addressed artifact cache, and
 * streams each job's status, telemetry, and result back to its
 * submitter incrementally.
 *
 * SIGTERM/SIGINT drain gracefully: intake stops, queued jobs are
 * rejected with structured errors, in-flight simulations quiesce at
 * their next run()-boundary (committing resumable snapshots for jobs
 * configured with a snapshot directory), and every result is
 * delivered before the process exits 0.
 *
 * Submit with `fireaxe-run --connect SOCKET --target ... `, or speak
 * the protocol directly with any line-oriented socket client.
 */

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "svc/server.hh"

using namespace fireaxe;

namespace {

svc::Server *g_server = nullptr;

void
onSignal(int)
{
    if (g_server)
        g_server->requestShutdown(); // async-signal-safe
}

/** The most concurrent jobs --workers may ask for: each one is a
 *  thread running a whole simulation. */
constexpr uint64_t kMaxWorkers = 256;
/** The largest --cache-mb / --verify-cache-mb whose byte count still
 *  fits in size_t. */
constexpr uint64_t kMaxCacheMb =
    std::numeric_limits<size_t>::max() >> 20;

int
usage(std::ostream &os, int status)
{
    os << "usage: fireaxed --socket PATH [options]\n"
          "\n"
          "options:\n"
          "  --socket PATH     Unix-domain socket to listen on "
          "(required)\n"
          "  --workers N       concurrent jobs, at most "
       << kMaxWorkers
       << " (default 2)\n"
          "  --cache-mb N      compiled-program + elaboration cache "
          "budget,\n"
          "                    each N megabytes, at most "
       << kMaxCacheMb
       << " (default 64)\n"
          "  --verify-cache-mb N\n"
          "                    verify-report cache budget, same "
          "bound (default 8)\n";
    return status;
}

/** Parse an unsigned flag value in [0, @p max]; anything else (not a
 *  number, negative, overflowing, or above @p max) exits 2 naming the
 *  flag and its range, before the server starts. */
uint64_t
parseU64(const std::string &flag, const std::string &text,
         uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (!end || end == text.c_str() || *end != '\0') {
        std::cerr << "fireaxed: " << flag
                  << " needs an integer, got '" << text << "'\n";
        exit(2);
    }
    // strtoull wraps a leading '-' and clamps overflow to its max.
    if (errno == ERANGE || text.find('-') != std::string::npos ||
        v > max) {
        std::cerr << "fireaxed: " << flag << " must be in [0, " << max
                  << "], got '" << text << "'\n";
        exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    svc::ServerConfig cfg;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "fireaxed: " << flag
                          << " needs a value\n";
                exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket") {
            cfg.socketPath = value("--socket");
        } else if (arg == "--workers") {
            cfg.service.workers = unsigned(
                parseU64(arg, value("--workers"), kMaxWorkers));
        } else if (arg == "--cache-mb") {
            size_t mb = size_t(
                parseU64(arg, value("--cache-mb"), kMaxCacheMb));
            cfg.service.cache.elabBytes = mb << 20;
            cfg.service.cache.programBytes = mb << 20;
        } else if (arg == "--verify-cache-mb") {
            cfg.service.cache.verifyBytes =
                size_t(parseU64(arg, value("--verify-cache-mb"),
                                kMaxCacheMb))
                << 20;
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else {
            std::cerr << "fireaxed: unknown option '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        }
    }
    if (cfg.socketPath.empty())
        return usage(std::cerr, 2);

    svc::Server server(cfg);
    std::string error;
    if (!server.start(error)) {
        std::cerr << "fireaxed: " << error << "\n";
        return 1;
    }

    g_server = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::cerr << "fireaxed: listening on " << cfg.socketPath
              << " (" << (cfg.service.workers ? cfg.service.workers
                                              : 1)
              << " workers)\n";
    server.run();
    std::cerr << "fireaxed: drained, exiting\n";
    g_server = nullptr;
    return 0;
}
