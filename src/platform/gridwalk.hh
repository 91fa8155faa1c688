/**
 * @file
 * Walking a partition's host-period grid over idle ticks.
 *
 * The co-simulation loop advances a partition's tick time with
 * repeated `t += period` sums, so modeled host times stay bit-exact
 * for clocks whose period is not an integer. Skipping idle ticks
 * must land on exactly the tick that walk would reach. walkGrid()
 * does so in O(log k) predicate evaluations when the sums are exact,
 * and takes the k steps one by one otherwise.
 */

#ifndef FIREAXE_PLATFORM_GRIDWALK_HH
#define FIREAXE_PLATFORM_GRIDWALK_HH

#include <cstdint>

namespace fireaxe::platform {

/** Result of walkGrid(). */
struct GridWalk
{
    /** First grid tick at which the predicate fails. */
    double end = 0.0;
    /** Last grid tick at which it held (the start when steps == 0). */
    double last = 0.0;
    /** Number of `+= period` steps from the start to end. */
    uint64_t steps = 0;
};

/**
 * Walk `t += period` from @p t while `holds(t)`, exactly as the loop
 *
 *     while (holds(t)) { last = t; t += period; ++steps; }
 *
 * does. @p holds must be monotone in t: once false, false at every
 * later grid tick.
 *
 * When @p t and @p period are non-negative integers and every tick
 * visited stays below 2^53, each partial sum is an exact integer, so
 * t + k·period equals k repeated additions bit for bit. The end is
 * then found by galloping and binary search on @p holds itself, which
 * keeps any bound it encodes exact. Otherwise (a non-integer clock,
 * or a walk reaching 2^53) the loop above runs.
 */
template <class Holds>
GridWalk
walkGrid(double t, double period, Holds holds)
{
    constexpr double kExactLimit = 0x1p53;
    auto integral = [](double x) {
        return x >= 0.0 && x < kExactLimit && x == double(int64_t(x));
    };
    GridWalk w{t, t, 0};
    if (!holds(t))
        return w;
    if (integral(t) && integral(period) && period > 0.0) {
        auto tick = [&](uint64_t k) { return t + double(k) * period; };
        // Gallop until holds(tick(hi)) fails, then bisect; throughout,
        // holds(tick(lo)) is true.
        uint64_t lo = 0;
        uint64_t hi = 1;
        while (tick(hi) < kExactLimit && holds(tick(hi))) {
            lo = hi;
            hi *= 2;
        }
        if (tick(hi) < kExactLimit) {
            while (hi - lo > 1) {
                uint64_t mid = lo + (hi - lo) / 2;
                if (holds(tick(mid)))
                    lo = mid;
                else
                    hi = mid;
            }
            return {tick(hi), tick(lo), hi};
        }
    }
    while (holds(w.end)) {
        w.last = w.end;
        w.end += period;
        ++w.steps;
    }
    return w;
}

} // namespace fireaxe::platform

#endif // FIREAXE_PLATFORM_GRIDWALK_HH
