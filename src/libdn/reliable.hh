/**
 * @file
 * Reliable delivery on top of TokenChannel (link-level ARQ).
 *
 * An LI-BDN simulation is only correct if every channel delivers its
 * token stream losslessly and in order; a single dropped or corrupted
 * token desynchronizes the partitions forever. On real hardware the
 * transports of src/transport fail in exactly those ways, so this
 * layer wraps each channel in the classic reliability machinery:
 *
 *  - every token carries a sequence number and a CRC-32 over its
 *    payload;
 *  - the producer keeps a bounded retransmit buffer of unacked
 *    tokens (a full buffer is recoverable backpressure, not a fatal
 *    overflow — the producer's output FSM simply retries on a later
 *    host cycle);
 *  - the consumer verifies CRC and sequence on every delivery;
 *    corruption triggers a NAK and a retransmission from the buffer,
 *    loss is recovered by the producer's retransmit timeout;
 *  - repeated failures back off exponentially, and a token that
 *    exhausts its retry budget marks the link failed so the executor
 *    can fail it over to a different transport mid-run.
 *
 * Faults only ever delay delivery — the consumer-visible stream is
 * bit-exact and in-order under any injected fault schedule, which is
 * what keeps a partitioned run bit-matching the monolithic reference
 * with only the simulation rate degrading.
 *
 * ## Side ownership
 *
 * Each channel has one producing and one consuming partition:
 * tryEnqTimed() and failover() act for the producer; poll(),
 * scheduleRetransmit() and deq() for the consumer. Each side draws
 * faults from its own RNG substream (see
 * transport::FaultModel::channelRng) and counts into its own counter
 * set (merged on demand by stats()), so the fault schedule of one
 * side never depends on how often the other side polls.
 */

#ifndef FIREAXE_LIBDN_RELIABLE_HH
#define FIREAXE_LIBDN_RELIABLE_HH

#include <cstdint>
#include <deque>

#include "base/stats.hh"
#include "libdn/channel.hh"
#include "transport/fault.hh"

namespace fireaxe::libdn {

/** CRC-32 (IEEE 802.3 polynomial) over a token payload. */
uint32_t tokenCrc(const Token &token);

/**
 * A TokenChannel with sequence numbers, payload CRC, and
 * NAK/timeout-driven retransmission, exercised against a
 * transport::FaultModel.
 */
class ReliableTokenChannel : public TokenChannel
{
  public:
    /** Recovery-timing knobs. Zeros mean "derive from the channel's
     *  link timing once it is configured". */
    struct Params
    {
        /** Producer retransmit timeout for lost tokens (ns);
         *  0 = 4 * (serTime + latency). */
        double timeoutNs = 0.0;
        /** NAK flight time from consumer back to producer (ns);
         *  0 = link latency. */
        double nakNs = 0.0;
        /** Producer-side retransmit-buffer bound (unacked tokens);
         *  0 = channel capacity. */
        size_t retransmitWindow = 0;
    };

    ReliableTokenChannel(std::string name, unsigned width_bits,
                         transport::FaultModel faults, Params params,
                         size_t capacity = 16);

    ReliableTokenChannel(std::string name, unsigned width_bits,
                         transport::FaultModel faults = {})
        : ReliableTokenChannel(std::move(name), width_bits,
                               std::move(faults), Params{})
    {}

    // --- TokenChannel interface -----------------------------------
    bool full() const override;
    bool
    empty() const override
    {
        return replayFront_.empty() && queue2_.empty();
    }
    size_t
    size() const override
    {
        return replayFront_.size() + queue2_.size();
    }
    bool tryEnq(Token &token, double ready_time) override;
    bool tryEnqTimed(Token &token, double now) override;
    bool headReady(double now) const override;
    double headReadyTime() const override;
    const Token &head() const override;
    double headEnqueueTime() const override;
    void deq() override;
    uint64_t tokensEnqueued() const override { return enqCount2_; }
    uint64_t tokensRetired() const override { return deqCount2_; }

    // --- reliability introspection --------------------------------
    /** Reliability / fault counters (merged producer+consumer view):
     *  tokens_dropped, tokens_corrupted, tokens_duplicated,
     *  link_stalls, stall_ns_total, crc_errors, naks,
     *  duplicates_discarded, retransmits, retransmits_timeout,
     *  retransmits_nak, retry_budget_exhausted, failovers.
     *  Returned by value: the two sides' counter sets are merged
     *  into a fresh set here. */
    CounterSet stats() const;

    /** A token exhausted its retry budget; the executor should fail
     *  the channel over to a fallback transport. */
    bool linkFailed() const { return failed_; }

    /**
     * Mid-run graceful degradation: retime the channel onto a
     * fallback transport (fresh private serializer), stop injecting
     * faults, and clear the failure flag. In-flight and queued
     * tokens are preserved. Runs on the producing side.
     */
    void failover(double ser_time, double latency);

    /** Unacked producer-side copies currently buffered. */
    size_t retransmitBufferSize() const { return rtxBuf_.size(); }

    /**
     * Consumer-side NAK recovery state: the retransmission currently
     * in flight, if any. pendingSeq == 0 means no NAK is outstanding.
     * Owned by the consuming side; snapshotted with the channel so a
     * restore mid-retransmission completes the recovery exactly.
     */
    struct NakRecovery
    {
        /** Sequence number being recovered (0 = none). */
        uint64_t pendingSeq = 0;
        /** Host time the retransmitted copy becomes visible (ns). */
        double resendReadyNs = 0.0;
        /** Resend attempts consumed by this recovery (drives the
         *  exponential backoff). */
        unsigned backoffTries = 0;
        /** Total recovery delay charged (NAK flight + resends +
         *  backoff), ns. */
        double backoffNs = 0.0;
    };
    const NakRecovery &nakRecovery() const { return nak_; }

    /** Highest sequence number delivered in order (consumer side);
     *  recorded in recovery cuts for single-partition restart. */
    uint64_t
    lastDeliveredSeq() const override
    {
        return lastDelivered_;
    }

    // --- checkpointing (src/recovery) -----------------------------
    void saveCkpt(std::ostream &os) const override;
    bool tryLoadCkpt(std::istream &is, std::string &error) override;

    // --- single-partition restart (src/recovery) ------------------

    /**
     * Keep the last @p n delivered tokens in a bounded replay log so
     * a condemned consumer partition can be restarted from a cut and
     * re-fed its inbound stream (0 disables; shrinking trims the
     * oldest entries). Consumer-side state.
     */
    void setReplayLogCapacity(size_t n);
    size_t replayLogCapacity() const { return replayCap_; }

    /**
     * Rewind the consumer side to a recovery point: deliveries past
     * @p cut_deq_count are re-presented from the replay log (in
     * order, ahead of the live queue), and the delivery counters
     * rewind to the cut. Producer-side state — sequence numbers,
     * retransmit buffer, fault RNG, serializer — stays at its
     * current (post-cut) position, which is exactly what the
     * restarted consumer's re-execution converges to. Fails (false,
     * diagnostic in @p error, channel unchanged) when the log no
     * longer covers the cut. Only legal at a quiesce point.
     */
    bool replayFromLog(uint64_t cut_deq_count,
                       uint64_t cut_last_delivered,
                       std::string &error);

    /** Would replayFromLog(@p cut_deq_count, ...) succeed? Lets the
     *  executor pre-validate every inbound channel of a condemned
     *  partition before mutating any of them. */
    bool
    canReplayFrom(uint64_t cut_deq_count) const
    {
        return replayFront_.empty() && cut_deq_count <= deqCount2_ &&
               deqCount2_ - cut_deq_count <= replayLog_.size();
    }

    /**
     * Suppress the next @p n accepted tokens on the producer side:
     * tryEnq/tryEnqTimed report success without touching any channel
     * state. Used when a restarted producer partition re-executes
     * cycles whose tokens were already transmitted before the crash —
     * the channel (and its fault schedule) already reflects them.
     */
    void suppressProducedTokens(uint64_t n) { suppress_ += n; }
    uint64_t suppressedTokensLeft() const { return suppress_; }

  private:
    struct RelEntry
    {
        Token payload; ///< as seen on the wire (possibly corrupted)
        double readyTime = 0.0;
        uint64_t seq = 0;
        uint32_t crc = 0; ///< computed by the producer pre-transmit
        /** CRC already checked good (payloads are immutable after
         *  transmission, so one check per delivery suffices). */
        bool verified = false;
        /** Host time the producer enqueued the token (survives
         *  retransmission, so latency includes recovery time). */
        double enqTime = 0.0;
    };

    double effTimeoutNs() const;
    double effNakNs() const;
    size_t effWindow() const;
    transport::FaultEvent drawFault(Rng &rng) const;
    /** Resolve dup/stale/corrupt entries at the head so that a
     *  visible head is always a verified in-order token. */
    void poll(double now) const;
    /** NAK path: requeue seq's pristine copy from the retransmit
     *  buffer, charging recovery latency and backoff. */
    void scheduleRetransmit(uint64_t seq, double now) const;
    /** Append one delivered token to the bounded replay log. */
    void logDelivered(const RelEntry &e) const;

    transport::FaultModel faults_;
    Params params_;
    /** Producer-side fault stream (transmit attempts). */
    mutable Rng txRng_;
    /** Consumer-side fault stream (NAK-driven resends). */
    mutable Rng rxRng_;
    bool faultsActive_;

    mutable Ring<RelEntry> queue2_; ///< in-flight+delivered
    mutable Ring<RelEntry> rtxBuf_; ///< unacked copies
    uint64_t nextSeq_ = 1;
    mutable uint64_t lastDelivered_ = 0;
    uint64_t enqCount2_ = 0;
    mutable uint64_t deqCount2_ = 0;
    /** Physical pushes into queue2_ (producer side; counts link-layer
     *  duplicates, unlike enqCount2_). */
    uint64_t qPushes2_ = 0;
    mutable bool failed_ = false;
    mutable CounterSet txStats_;
    mutable CounterSet rxStats_;
    /** Consumer-side NAK recovery in flight (see NakRecovery). */
    mutable NakRecovery nak_;

    // --- single-partition restart state ---------------------------
    // All consumer-side except suppress_ (producer-side).
    /** Replayed deliveries served ahead of queue2_ (restart). */
    mutable std::deque<RelEntry> replayFront_;
    /** Last replayCap_ delivered tokens, newest at the back. */
    mutable std::deque<RelEntry> replayLog_;
    size_t replayCap_ = 0;
    /** Producer-side count of enqueues to swallow (restart). */
    uint64_t suppress_ = 0;
};

} // namespace fireaxe::libdn

#endif // FIREAXE_LIBDN_RELIABLE_HH
