#include "obs/metrics.hh"

#include "base/logging.hh"
#include "obs/json.hh"

namespace fireaxe::obs {

namespace {

const char *
kindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

/** One metric's member of a metrics object: the serializer behind
 *  both MetricsSnapshot::writeValues and MetricsRegistry::writeValues. */
void
writeMetric(JsonWriter &w, std::string_view path, const MetricValue &v)
{
    w.key(path);
    w.beginObject();
    w.key("kind");
    w.value(kindName(v.kind));
    switch (v.kind) {
      case MetricKind::Counter:
        w.key("value");
        w.value(v.count);
        break;
      case MetricKind::Gauge:
        w.key("value");
        w.value(v.value);
        break;
      case MetricKind::Histogram:
        w.key("count");
        w.value(v.count);
        w.key("mean");
        w.value(v.mean);
        w.key("min");
        w.value(v.min);
        w.key("max");
        w.value(v.max);
        w.key("p50");
        w.value(v.p50);
        w.key("p90");
        w.value(v.p90);
        w.key("p95");
        w.value(v.p95);
        w.key("p99");
        w.value(v.p99);
        break;
    }
    w.endObject();
}

} // namespace

MetricValue
Histogram::value() const
{
    static constexpr double kPs[] = {50.0, 90.0, 95.0, 99.0};
    double ps[4];
    MetricValue v;
    v.kind = MetricKind::Histogram;
    std::lock_guard<std::mutex> lock(mtx_);
    dist_.percentiles(kPs, ps);
    v.count = dist_.count();
    v.mean = dist_.mean();
    v.min = dist_.min();
    v.max = dist_.max();
    v.p50 = ps[0];
    v.p90 = ps[1];
    v.p95 = ps[2];
    v.p99 = ps[3];
    v.value = v.mean;
    return v;
}

const MetricValue *
MetricsSnapshot::find(const std::string &path) const
{
    auto it = values.find(path);
    return it == values.end() ? nullptr : &it->second;
}

uint64_t
MetricsSnapshot::counter(const std::string &path) const
{
    const MetricValue *v = find(path);
    return v && v->kind == MetricKind::Counter ? v->count : 0;
}

double
MetricsSnapshot::gauge(const std::string &path) const
{
    const MetricValue *v = find(path);
    return v && v->kind == MetricKind::Gauge ? v->value : 0.0;
}

void
MetricsSnapshot::writeValues(JsonWriter &w) const
{
    for (const auto &[path, v] : values)
        writeMetric(w, path, v);
}

void
MetricsSnapshot::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value("fireaxe.metrics.v1");
    w.key("metrics");
    w.beginObject();
    writeValues(w);
    w.endObject();
    w.endObject();
    os << "\n";
}

void
MetricsSnapshot::writeCsv(std::ostream &os) const
{
    os << "path,kind,value,count,mean,min,max,p50,p90,p95,p99\n";
    for (const auto &[path, v] : values) {
        os << path << ',' << kindName(v.kind) << ',';
        if (v.kind == MetricKind::Counter)
            os << v.count;
        else
            jsonNumber(os, v.value);
        os << ',' << v.count << ',';
        jsonNumber(os, v.mean);
        os << ',';
        jsonNumber(os, v.min);
        os << ',';
        jsonNumber(os, v.max);
        os << ',';
        jsonNumber(os, v.p50);
        os << ',';
        jsonNumber(os, v.p90);
        os << ',';
        jsonNumber(os, v.p95);
        os << ',';
        jsonNumber(os, v.p99);
        os << '\n';
    }
}

MetricsRegistry::Metric &
MetricsRegistry::resolve(const std::string &path, MetricKind kind,
                         size_t reservoir_cap)
{
    if (path.empty())
        fatal("metrics: empty metric path");
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = metrics_.find(path);
    if (it != metrics_.end()) {
        if (it->second.kind != kind) {
            fatal("metrics: '", path, "' re-registered as ",
                  kindName(kind), " but exists as ",
                  kindName(it->second.kind));
        }
        return it->second;
    }
    // In-place construction: Metric holds atomics, so it cannot be
    // built outside the map and moved in.
    Metric &m = metrics_.try_emplace(path).first->second;
    m.kind = kind;
    if (kind == MetricKind::Histogram) {
        m.histogram = std::make_unique<Histogram>(
            reservoir_cap ? reservoir_cap : histogramCap_);
    }
    return m;
}

Counter &
MetricsRegistry::counter(const std::string &path)
{
    return resolve(path, MetricKind::Counter, 0).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    return resolve(path, MetricKind::Gauge, 0).gauge;
}

Histogram &
MetricsRegistry::histogram(const std::string &path,
                           size_t reservoir_cap)
{
    return *resolve(path, MetricKind::Histogram, reservoir_cap)
                .histogram;
}

MetricValue
MetricsRegistry::Metric::value() const
{
    if (kind == MetricKind::Histogram)
        return histogram->value();
    MetricValue v;
    v.kind = kind;
    if (kind == MetricKind::Counter) {
        v.count = counter.value();
        v.value = double(v.count);
    } else {
        v.value = gauge.value();
    }
    return v;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    MetricsSnapshot snap;
    for (const auto &[path, m] : metrics_)
        snap.values.emplace_hint(snap.values.end(), path, m.value());
    return snap;
}

void
MetricsRegistry::writeValues(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mtx_);
    for (const auto &[path, m] : metrics_)
        writeMetric(w, path, m.value());
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    snapshot().writeJson(os);
}

void
MetricsRegistry::writeCsv(std::ostream &os) const
{
    snapshot().writeCsv(os);
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mtx_);
    for (auto &[path, m] : metrics_) {
        m.counter.reset();
        m.gauge.reset();
        if (m.histogram)
            m.histogram->reset();
    }
}

} // namespace fireaxe::obs
