/**
 * @file
 * Lightweight statistics collection: running means, histograms with
 * percentile extraction, and named counters. Used by the uarch model,
 * the NIC latency counters, and the Go-runtime tail-latency benchmark.
 */

#ifndef FIREAXE_BASE_STATS_HH
#define FIREAXE_BASE_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/random.hh"

namespace fireaxe {

/** Running scalar statistic: count / sum / min / max / mean. */
class RunningStat
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        sum_ += v;
        ++count_;
    }

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
        min_ = max_ = 0.0;
    }

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Sample distribution with percentile extraction and bounded memory.
 *
 * Up to the reservoir cap every sample is stored and percentiles are
 * exact (nearest-rank). Beyond the cap the store switches to uniform
 * reservoir sampling (Vitter's Algorithm R with a fixed internal
 * seed, so results are deterministic): each of the N observed samples
 * is retained with probability cap/N, and percentiles become an
 * unbiased approximation whose error shrinks as the cap grows.
 * count()/mean()/min()/max() stay exact at any scale — they are
 * tracked as running scalars, not derived from the reservoir. This
 * bounds memory for million-cycle runs with per-token sampling.
 *
 * Percentiles are read from one ordered view of the reservoir, built
 * on the first read and cached by sample count, so repeated reads of
 * an unchanged distribution cost a lookup each. A later read patches
 * the view instead of re-sorting it: the samples appended since (all
 * new samples while exact()) are sorted and merged in, and past the
 * cap the values written over slots the view already holds are
 * logged as (evicted, new) pairs and applied in the same merge. The
 * log holds at most cap/4 pairs; past that the view is dropped and
 * the next read sorts the reservoir afresh. Every sample ordering
 * yields the same view, so the values are those of sorting a copy of
 * the reservoir on each read (the one exception: +0.0 and -0.0
 * compare equal, so which of the two sits at a rank is unspecified
 * here as it is for any sort). Samples must not be NaN.
 *
 * Reads mutate the cached view, so concurrent readers of one
 * Distribution need an external lock (obs::Histogram holds one).
 */
class Distribution
{
  public:
    static constexpr size_t kDefaultReservoirCap = 1 << 16;

    explicit Distribution(size_t reservoir_cap = kDefaultReservoirCap)
        : cap_(reservoir_cap ? reservoir_cap : 1)
    {
        samples_.reserve(std::min<size_t>(cap_, 1024));
    }

    void
    sample(double v)
    {
        exact_.sample(v);
        if (samples_.size() < cap_) {
            samples_.push_back(v);
            return;
        }
        // Algorithm R: keep each of the N samples seen so far with
        // probability cap/N.
        uint64_t j = rng_.below(exact_.count());
        if (j >= cap_)
            return;
        if (j < view_.size()) {
            if (evicted_.size() < cap_ / 4) {
                evicted_.push_back(samples_[size_t(j)]);
                written_.push_back(v);
            } else {
                dropView();
            }
        }
        samples_[size_t(j)] = v;
    }

    /** Total samples observed (exact, not the reservoir size). */
    uint64_t count() const { return exact_.count(); }

    double mean() const { return exact_.mean(); }
    double min() const { return exact_.min(); }

    /** True while every observed sample is retained, i.e.
     *  percentiles are exact. */
    bool exact() const { return exact_.count() <= cap_; }

    size_t reservoirCap() const { return cap_; }

    /**
     * Percentiles (nearest-rank over the reservoir) for each p in
     * @p ps, written to the same index of @p out. Every p in
     * [0, 100]. Exact while count() <= reservoirCap(); an unbiased
     * approximation above it, except p = 0 and p = 100 which always
     * return the exact min/max. All 0 when nothing was sampled.
     */
    void
    percentiles(std::span<const double> ps, std::span<double> out) const
    {
        FIREAXE_ASSERT(ps.size() == out.size(), "ps=", ps.size(),
                       " out=", out.size());
        for (size_t i = 0; i < ps.size(); ++i) {
            double p = ps[i];
            FIREAXE_ASSERT(p >= 0.0 && p <= 100.0, "p=", p);
            if (samples_.empty()) {
                out[i] = 0.0;
            } else if (p == 0.0) {
                out[i] = exact_.min();
            } else if (p == 100.0) {
                out[i] = exact_.max();
            } else {
                const std::vector<double> &sorted = ordered();
                size_t rank = static_cast<size_t>(
                    (p / 100.0) * (sorted.size() - 1) + 0.5);
                out[i] = sorted[std::min(rank, sorted.size() - 1)];
            }
        }
    }

    /** One percentile; see percentiles(). */
    double
    percentile(double p) const
    {
        double v = 0.0;
        percentiles({&p, 1}, {&v, 1});
        return v;
    }

    double max() const { return exact_.max(); }

    void
    reset()
    {
        samples_.clear();
        exact_.reset();
        rng_.reseed(kReservoirSeed);
        dropView();
    }

    /** The retained reservoir (all samples while exact()). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    // Fixed seed: reservoir contents are deterministic per insertion
    // order, independent of any simulation-level seeding.
    static constexpr uint64_t kReservoirSeed = 0xD157D157D157ULL;

    /** The reservoir in ascending order, brought up to date. */
    const std::vector<double> &
    ordered() const
    {
        if (viewAt_ == exact_.count())
            return view_;
        // view_ holds the first view_.size() reservoir slots as they
        // were when it was built. New values: the log's, plus every
        // slot appended since.
        written_.insert(written_.end(),
                        samples_.begin() + view_.size(),
                        samples_.end());
        std::sort(written_.begin(), written_.end());
        std::sort(evicted_.begin(), evicted_.end());
        if (!patchView()) {
            // Unreachable for NaN-free samples; a plain sort keeps
            // the view right whatever was observed.
            view_.assign(samples_.begin(), samples_.end());
            std::sort(view_.begin(), view_.end());
        }
        evicted_.clear();
        written_.clear();
        viewAt_ = exact_.count();
        return view_;
    }

    /**
     * One ascending pass: view_ plus written_ minus evicted_ (both
     * sorted), as multisets. An evicted value is matched with an
     * equal written value when both are next, else with an equal
     * view value. False if some eviction had no match.
     */
    bool
    patchView() const
    {
        merged_.resize(view_.size() + written_.size());
        auto out = merged_.begin();
        auto v = view_.cbegin(), w = written_.cbegin();
        auto e = evicted_.cbegin();
        const auto ve = view_.cend(), we = written_.cend();
        const auto ee = evicted_.cend();
        while (w != we || e != ee) {
            bool evict = w == we || (e != ee && *e <= *w);
            double next = evict ? *e : *w;
            while (v != ve && *v < next)
                *out++ = *v++;
            if (!evict) {
                *out++ = *w++;
            } else if (w != we && *w == next) {
                ++w;
                ++e;
            } else if (v != ve && *v == next) {
                ++v;
                ++e;
            } else {
                return false;
            }
        }
        out = std::copy(v, ve, out);
        merged_.resize(size_t(out - merged_.begin()));
        if (merged_.size() != samples_.size())
            return false;
        view_.swap(merged_);
        return true;
    }

    void
    dropView()
    {
        view_.clear();
        evicted_.clear();
        written_.clear();
        viewAt_ = 0;
    }

    size_t cap_;
    std::vector<double> samples_;
    RunningStat exact_;
    Rng rng_{kReservoirSeed};

    // The cached ordered view, valid for count() == viewAt_, and the
    // edit log of reservoir slots below view_.size() overwritten
    // since (evicted_[i] was replaced by written_[i]). merged_ is the
    // scratch the next view is built in.
    mutable std::vector<double> view_;
    mutable uint64_t viewAt_ = 0;
    mutable std::vector<double> evicted_;
    mutable std::vector<double> written_;
    mutable std::vector<double> merged_;
};

/** A named bag of integer counters (e.g. CPI-stack cycle attribution). */
class CounterSet
{
  public:
    void add(const std::string &name, uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    uint64_t
    total() const
    {
        uint64_t t = 0;
        for (const auto &kv : counters_)
            t += kv.second;
        return t;
    }

    const std::map<std::string, uint64_t> &all() const { return counters_; }

    void reset() { counters_.clear(); }

  private:
    std::map<std::string, uint64_t> counters_;
};

} // namespace fireaxe

#endif // FIREAXE_BASE_STATS_HH
