/**
 * @file
 * Low-overhead event tracer with a bounded ring buffer and Chrome
 * trace_event JSON export.
 *
 * Events are timestamped on the *simulated host timeline* (ns), the
 * same clock the executor schedules on, so a trace lines up exactly
 * with the token mechanics: per-partition fireFSM phases become
 * horizontal spans, reliability events (retransmits, NAKs, fault
 * injections) become instants on the emitting partition's track.
 * Wall-clock scoped spans (Tracer::span) are also available for
 * profiling host-side phases of a bench.
 *
 * The buffer is a fixed-capacity ring: when full, the oldest events
 * are overwritten, so a trace always holds the *last* capacity()
 * events of the run and memory stays bounded no matter how long the
 * simulation runs. totalEmitted() exposes how many events were seen
 * overall (and thus how many were dropped).
 *
 * writeChromeJson() emits the Trace Event Format understood by
 * about://tracing and https://ui.perfetto.dev: partitions map to
 * pids (named via process-name metadata), timestamps to microseconds.
 *
 * The tracer is safe under concurrent emitters and exporters: every
 * emit/export path takes a short internal lock. Tracing is off the
 * hot path by default and a bounded ring keeps the critical section
 * to a slot assignment, so contention only matters at pathological
 * trace rates.
 */

#ifndef FIREAXE_OBS_TRACE_HH
#define FIREAXE_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace fireaxe::obs {

/** One trace event (Chrome trace_event phases "X" and "i"). */
struct TraceEvent
{
    std::string name;
    std::string cat;
    char ph = 'i';     ///< 'X' complete, 'i' instant
    double tsNs = 0.0; ///< start timestamp (ns)
    double durNs = 0.0; ///< duration for 'X' events (ns)
    int pid = 0;       ///< partition index
    int tid = 0;       ///< thread (FAME-5 thread or 0)
    std::string args;  ///< pre-encoded JSON object, may be empty
};

class Tracer
{
  public:
    static constexpr size_t kDefaultCapacity = 1 << 15;

    explicit Tracer(size_t capacity = kDefaultCapacity);

    size_t capacity() const { return cap_; }

    /** Events currently held (<= capacity). */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return ring_.size();
    }

    /** Events emitted over the tracer's lifetime. */
    uint64_t
    totalEmitted() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return total_;
    }

    /** Oldest events overwritten by ring wraparound. */
    uint64_t
    dropped() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return total_ - ring_.size();
    }

    /** Has the ring ever wrapped (i.e. is the trace truncated)? A
     *  one-time warning is also emitted at the first overwrite. */
    bool
    wrapped() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return wrapped_;
    }

    /** Instant event at simulated host time @p ts_ns. */
    void instant(std::string name, std::string cat, double ts_ns,
                 int pid = 0, int tid = 0, std::string args = {});

    /** Complete (duration) event on the simulated host timeline. */
    void complete(std::string name, std::string cat, double ts_ns,
                  double dur_ns, int pid = 0, int tid = 0,
                  std::string args = {});

    /** Display name of a pid track (partition name). */
    void setProcessName(int pid, std::string name);

    /**
     * RAII wall-clock span: measures real elapsed time from
     * construction to destruction and emits one complete event
     * (category "host"). For host-side profiling of bench phases.
     */
    class Span
    {
      public:
        Span(Tracer *tracer, std::string name, int pid, int tid);
        Span(Span &&other) noexcept;
        Span &operator=(Span &&) = delete;
        Span(const Span &) = delete;
        ~Span();

      private:
        Tracer *tracer_;
        std::string name_;
        int pid_;
        int tid_;
        std::chrono::steady_clock::time_point start_;
    };

    Span span(std::string name, int pid = 0, int tid = 0)
    {
        return Span(this, std::move(name), pid, tid);
    }

    /** Visit held events oldest-first (wraparound-corrected). */
    void forEachOrdered(
        const std::function<void(const TraceEvent &)> &fn) const;

    /** Chrome trace_event JSON ({"traceEvents":[...]}). */
    void writeChromeJson(std::ostream &os) const;

    void clear();

  private:
    friend class Span;

    void push(TraceEvent ev);
    /** ns since tracer construction on the wall clock. */
    double wallNowNs() const;

    size_t cap_;
    mutable std::mutex mtx_;
    std::vector<TraceEvent> ring_;
    size_t next_ = 0; ///< overwrite cursor once the ring is full
    uint64_t total_ = 0;
    bool wrapped_ = false;
    std::map<int, std::string> processNames_;
    std::chrono::steady_clock::time_point epoch_;
};

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_TRACE_HH
