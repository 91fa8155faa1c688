/**
 * @file
 * Hierarchical metrics registry for simulation telemetry.
 *
 * Metrics live in a dotted-path namespace ("chan.c01.token_latency_ns",
 * "part.tiles.fmr", "sim.sim_rate_mhz") and come in three kinds:
 *
 *  - Counter   — monotonically increasing integer (token counts,
 *                retransmissions, fault events);
 *  - Gauge     — last-written scalar (FMR, sim rate, host time);
 *  - Histogram — bounded-memory sample distribution with percentile
 *                extraction (token latency, channel occupancy), built
 *                on the capped reservoir of base/stats.hh.
 *
 * The registry hands out stable handle pointers: instrumented code
 * resolves a path once and then updates through the handle, which is
 * a single add/store on the hot path. Code that may run without
 * telemetry holds nullable handles and uses the inline add()/set()/
 * observe() helpers, which compile to a null check when telemetry is
 * disabled — near-zero cost for unregistered metrics.
 *
 * snapshot() freezes every metric into a plain-value MetricsSnapshot
 * (returned in platform::RunResult::metrics) which exports to JSON
 * (flat object keyed by dotted path) and CSV.
 */

#ifndef FIREAXE_OBS_METRICS_HH
#define FIREAXE_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "base/stats.hh"

namespace fireaxe::obs {

// A registry may be shared between threads (the service's worker
// pool), so metric handles are thread-safe: counters and gauges are
// single atomics (relaxed — they are statistics, not
// synchronization), histograms take a short internal lock per
// sample. Handles are therefore neither copyable nor movable; the
// registry's node-based map keeps their addresses stable for the
// lifetime of the registry.

/** Monotonic integer metric. */
class Counter
{
  public:
    void
    add(uint64_t delta = 1)
    {
        v_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Last-written scalar metric. */
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return v_.load(std::memory_order_relaxed);
    }
    void reset() { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Sample-distribution metric with bounded memory: exact percentiles
 * up to the reservoir cap, documented reservoir approximation above
 * it (see base/stats.hh Distribution).
 */
class Histogram
{
  public:
    static constexpr size_t kDefaultCap = 4096;

    explicit Histogram(size_t reservoir_cap = kDefaultCap)
        : dist_(reservoir_cap)
    {}

    void
    observe(double v)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        dist_.sample(v);
    }

    uint64_t
    count() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return dist_.count();
    }

    double
    mean() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return dist_.mean();
    }

    double
    min() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return dist_.min();
    }

    double
    max() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return dist_.max();
    }

    double
    percentile(double p) const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return dist_.percentile(p);
    }

    bool
    exact() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return dist_.exact();
    }

    size_t reservoirCap() const { return dist_.reservoirCap(); }

    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mtx_);
        dist_.reset();
    }

  private:
    mutable std::mutex mtx_;
    Distribution dist_;
};

// Nullable-handle helpers: no-ops when the handle is null, so
// instrumented code pays one branch when telemetry is off.
inline void
add(Counter *c, uint64_t delta = 1)
{
    if (c)
        c->add(delta);
}

inline void
set(Gauge *g, double v)
{
    if (g)
        g->set(v);
}

inline void
observe(Histogram *h, double v)
{
    if (h)
        h->observe(v);
}

enum class MetricKind { Counter, Gauge, Histogram };

/** One metric's frozen value. */
struct MetricValue
{
    MetricKind kind = MetricKind::Counter;
    /** Counter/gauge value (counters as double for uniform access;
     *  use count for the exact integer). */
    double value = 0.0;
    /** Counter value / histogram sample count. */
    uint64_t count = 0;
    // Histogram-only fields.
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

class JsonWriter;

/** A frozen, value-only copy of a registry. */
struct MetricsSnapshot
{
    std::map<std::string, MetricValue> values;

    bool empty() const { return values.empty(); }
    bool has(const std::string &path) const
    {
        return values.count(path) > 0;
    }

    /** nullptr when absent. */
    const MetricValue *find(const std::string &path) const;

    /** Counter value; 0 when absent or not a counter. */
    uint64_t counter(const std::string &path) const;
    /** Gauge value; 0.0 when absent or not a gauge. */
    double gauge(const std::string &path) const;

    /** Flat JSON object keyed by dotted path, wrapped in a schema
     *  envelope: {"schema":"fireaxe.metrics.v1","metrics":{...}}. */
    void writeJson(std::ostream &os) const;
    /** The per-metric members only, emitted into an object scope the
     *  caller has already opened — lets other exporters (the
     *  telemetry stream) embed the snapshot without the envelope. */
    void writeValues(JsonWriter &w) const;
    /** CSV: path,kind,value,count,mean,min,max,p50,p90,p95,p99. */
    void writeCsv(std::ostream &os) const;
};

/**
 * The registry. Resolving a path registers the metric on first use
 * and returns the same handle on re-registration; resolving an
 * existing path as a different kind is a caller error (fatal).
 *
 * Registration, lookup, and snapshotting lock an internal mutex, so
 * threads may resolve and snapshot concurrently; the handles
 * themselves are lock-free on the counter/gauge hot path.
 */
class MetricsRegistry
{
  public:
    explicit MetricsRegistry(
        size_t histogram_cap = Histogram::kDefaultCap)
        : histogramCap_(histogram_cap)
    {}

    Counter &counter(const std::string &path);
    Gauge &gauge(const std::string &path);
    /** @p reservoir_cap 0 = registry default. */
    Histogram &histogram(const std::string &path,
                         size_t reservoir_cap = 0);

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return metrics_.size();
    }

    bool
    has(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return metrics_.count(path) > 0;
    }

    MetricsSnapshot snapshot() const;
    void writeJson(std::ostream &os) const;
    void writeCsv(std::ostream &os) const;

    /** Reset every metric's value (registrations are kept and the
     *  handles stay valid). */
    void reset();

  private:
    struct Metric
    {
        MetricKind kind = MetricKind::Counter;
        Counter counter;
        Gauge gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Metric &resolve(const std::string &path, MetricKind kind,
                    size_t reservoir_cap);

    // std::map: node-based, so handle addresses are stable across
    // later registrations.
    std::map<std::string, Metric> metrics_;
    size_t histogramCap_;
    mutable std::mutex mtx_;
};

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_METRICS_HH
