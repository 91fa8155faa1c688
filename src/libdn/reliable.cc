#include "libdn/reliable.hh"

#include <algorithm>
#include <array>
#include <istream>
#include <ostream>

#include "base/serial.hh"

namespace fireaxe::libdn {

namespace {

/** Slicing-by-8 tables for the reflected CRC-32 polynomial
 *  0xEDB88320: kCrcTables[0] is the classic byte table, and
 *  kCrcTables[k][b] advances byte b through k further zero bytes. */
constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t b = 0; b < 256; ++b) {
        uint32_t crc = b;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
        t[0][b] = crc;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    return t;
}();

} // namespace

uint32_t
tokenCrc(const Token &token)
{
    // CRC-32 (IEEE 802.3, reflected 0xEDB88320) over the
    // little-endian bytes of each payload word, eight bytes per
    // step (slicing-by-8).
    const auto &t = kCrcTables;
    uint32_t crc = 0xFFFFFFFFu;
    for (uint64_t word : token) {
        uint32_t lo = crc ^ uint32_t(word);
        uint32_t hi = uint32_t(word >> 32);
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
              t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
              t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    return ~crc;
}

ReliableTokenChannel::ReliableTokenChannel(
    std::string name, unsigned width_bits,
    transport::FaultModel faults, Params params, size_t capacity)
    : TokenChannel(std::move(name), width_bits, capacity),
      faults_(std::move(faults)), params_(params),
      txRng_(faults_.channelRng(TokenChannel::name(), "tx")),
      rxRng_(faults_.channelRng(TokenChannel::name(), "rx")),
      faultsActive_(faults_.enabled()),
      // Physical occupancy can exceed the logical capacity bound by
      // the link-layer duplicate pushed in the same attempt; pad the
      // rings a little beyond their proven bounds.
      queue2_(capacity + 6),
      rtxBuf_((params.retransmitWindow > 0 ? params.retransmitWindow
                                           : capacity) +
              4)
{}

double
ReliableTokenChannel::effTimeoutNs() const
{
    if (params_.timeoutNs > 0.0)
        return params_.timeoutNs;
    return 4.0 * (serTime() + latency());
}

double
ReliableTokenChannel::effNakNs() const
{
    return params_.nakNs > 0.0 ? params_.nakNs : latency();
}

size_t
ReliableTokenChannel::effWindow() const
{
    return params_.retransmitWindow > 0 ? params_.retransmitWindow
                                        : capacity_;
}

transport::FaultEvent
ReliableTokenChannel::drawFault(Rng &rng) const
{
    if (!faultsActive_)
        return {};
    return faults_.draw(rng, widthBits_ ? widthBits_ : 1);
}

bool
ReliableTokenChannel::full() const
{
    return queue2_.size() >= capacity_ ||
           rtxBuf_.size() >= effWindow();
}

bool
ReliableTokenChannel::tryEnq(Token &token, double ready_time)
{
    if (suppress_ > 0) {
        // Restarted-producer replay: this token was already
        // transmitted before the crash and every producer-side
        // effect (sequence number, serializer slot, fault draws,
        // retransmit-buffer entry) is already in the channel.
        --suppress_;
        return true;
    }
    // Untimed path (reset seeding): no link, no faults — but the
    // token still enters the sequence/ack machinery so delivery
    // bookkeeping stays consistent.
    if (full())
        return false;
    uint64_t seq = nextSeq_++;
    uint32_t crc = tokenCrc(token);
    rtxBuf_.pushBack({token, 0.0, seq, crc, false, ready_time});
    queue2_.pushBack(
        {std::move(token), ready_time, seq, crc, false, ready_time});
    ++enqCount2_;
    ++qPushes2_;
    if (probe_ && probe_->countsTokens())
        probe_->onEnqueue(ready_time, queue2_.size());
    return true;
}

bool
ReliableTokenChannel::tryEnqTimed(Token &token, double now)
{
    if (suppress_ > 0) {
        // See tryEnq: the channel already reflects this token.
        --suppress_;
        return true;
    }
    producerNowNs_ = std::max(producerNowNs_, now);
    if (full())
        return false;
    unsigned depth = batchDepth();
    if (depth > 1 && !pipelined_ && batchPos_ == 0 &&
        now < stallUntil_)
        return false; // stop-and-wait: last epoch's frame still flying

    uint64_t seq = nextSeq_++;
    uint32_t crc = tokenCrc(token);
    rtxBuf_.pushBack({token, 0.0, seq, crc, false, now});
    ++enqCount2_;

    if (depth > 1 && batchPos_ + 1 < depth) {
        // Within-epoch token of a batched channel: the consumer
        // reproduces it locally from the last epoch-boundary image,
        // so it never traverses the physical link — no serializer
        // slot, no fault draw, payload evaluation cost only. It still
        // enters the sequence/CRC/ack machinery: a frame-granular
        // retransmission replays the whole epoch from rtxBuf_.
        ++batchPos_;
        double ready = now + payloadSerNs();
        queue2_.pushBack({std::move(token), ready, seq, crc, false,
                          now});
        ++qPushes2_;
        if (probe_) {
            if (probe_->countsTokens())
                probe_->onEnqueue(now, queue2_.size());
            if (probe_->tokenSampled(seq))
                probe_->onTokenEnqueue(seq, now, ready, ready, 0.0,
                                       0.0);
        }
        return true;
    }
    // Unbatched token, or a batched channel's epoch boundary: the
    // transmission unit (token or whole frame) occupies the shared
    // link and is exposed to the fault model. frameSerNs() is
    // serTime() when batchDepth is 1, so the two cases share one
    // path — at frame granularity, drops and corruption hit the
    // boundary token and every recovery charge is a frame
    // serialization.
    double unit_ser = frameSerNs();
    if (depth > 1)
        batchPos_ = 0;

    transport::FaultEvent ev = drawFault(txRng_);

    // A transient link stall holds the token at the transmitter.
    double stall = ev.stallNs;
    if (stall > 0.0) {
        txStats_.add("link_stalls");
        txStats_.add("stall_ns_total", uint64_t(stall));
        if (probe_)
            probe_->onEvent("stall", now);
    }

    double depart = std::max(now, serializer_->lastDepart) + stall +
                    unit_ser;
    serializer_->lastDepart = depart;

    // Lost tokens are recovered by the producer's retransmit timer:
    // each attempt waits out the (exponentially backed-off) timeout,
    // reoccupies the link, and may fault again.
    double penalty = 0.0;
    unsigned tries = 0;
    while (ev.drop) {
        txStats_.add("tokens_dropped");
        if (probe_)
            probe_->onEvent("drop", now);
        if (tries >= faults_.config().maxRetries) {
            txStats_.add("retry_budget_exhausted");
            if (probe_)
                probe_->onEvent("retry_exhausted", now);
            failed_ = true;
            break;
        }
        penalty += effTimeoutNs() *
                   double(uint64_t(1) << std::min(tries, 10u));
        ++tries;
        txStats_.add("retransmits");
        txStats_.add("retransmits_timeout");
        if (probe_)
            probe_->onEvent("retransmit_timeout", now);
        serializer_->lastDepart += unit_ser;
        ev = drawFault(txRng_);
    }

    RelEntry entry{std::move(token), depart + latency() + penalty,
                   seq, crc, false, now};
    if (ev.corrupt && !entry.payload.empty()) {
        // Flip one payload bit in flight; the consumer's CRC check
        // will catch it and NAK.
        txStats_.add("tokens_corrupted");
        if (probe_)
            probe_->onEvent("corrupt", now);
        size_t word = (ev.corruptBit / 64) % entry.payload.size();
        entry.payload[word] ^= uint64_t(1) << (ev.corruptBit % 64);
    }
    bool duplicate = ev.duplicate;
    double dup_ready = entry.readyTime + unit_ser;
    Token dup_payload;
    if (duplicate) {
        txStats_.add("tokens_duplicated");
        if (probe_)
            probe_->onEvent("duplicate", now);
        serializer_->lastDepart += unit_ser;
        dup_payload = entry.payload;
    }
    if (depth > 1 && !pipelined_)
        stallUntil_ = entry.readyTime;
    queue2_.pushBack(std::move(entry));
    ++qPushes2_;
    if (duplicate) {
        queue2_.pushBack({std::move(dup_payload), dup_ready, seq,
                          crc, false, now});
        ++qPushes2_;
    }
    if (probe_) {
        if (probe_->countsTokens())
            probe_->onEnqueue(now, queue2_.size());
        if (probe_->tokenSampled(seq)) {
            probe_->onTokenEnqueue(seq, now, depart,
                                   depart + latency() + penalty,
                                   latency(), penalty);
        }
    }
    return true;
}

void
ReliableTokenChannel::poll(double now) const
{
    consumerNowNs_ = std::max(consumerNowNs_, now);
    // Replayed deliveries (single-partition restart) sit ahead of
    // the live queue and are already verified in-order tokens.
    if (!replayFront_.empty())
        return;
    while (!queue2_.empty()) {
        RelEntry &e = queue2_.front();
        if (e.readyTime > now)
            break;
        if (e.seq <= lastDelivered_) {
            // Sequence-number check: a link-layer replay of an
            // already-delivered token.
            rxStats_.add("duplicates_discarded");
            if (probe_)
                probe_->onEvent("duplicate_discarded", now);
            queue2_.popFront();
            continue;
        }
        if (!e.verified) {
            if (tokenCrc(e.payload) != e.crc) {
                // CRC mismatch: NAK and wait for retransmission.
                rxStats_.add("crc_errors");
                rxStats_.add("naks");
                if (probe_) {
                    probe_->onEvent("crc_error", now);
                    probe_->onEvent("nak", now);
                }
                uint64_t seq = e.seq;
                queue2_.popFront();
                scheduleRetransmit(seq, now);
                continue;
            }
            e.verified = true;
        }
        break; // verified, in-order token at the head
    }
}

void
ReliableTokenChannel::scheduleRetransmit(uint64_t seq,
                                         double now) const
{
    const RelEntry *pristine = nullptr;
    for (size_t i = 0; i < rtxBuf_.size(); ++i) {
        const RelEntry &e = rtxBuf_.at(i);
        if (e.seq == seq) {
            pristine = &e;
            break;
        }
    }
    FIREAXE_ASSERT(pristine, "channel '", name_, "' seq ", seq,
                   " NAKed but not in the retransmit buffer");

    // NAK flies back, then the buffered copy is resent; a resend
    // that faults again backs off exponentially until the retry
    // budget runs out.
    double delay = effNakNs();
    unsigned tries = 0;
    while (true) {
        ++tries;
        rxStats_.add("retransmits");
        rxStats_.add("retransmits_nak");
        if (probe_)
            probe_->onEvent("retransmit_nak", now);
        // Batched channels retransmit at frame granularity: a NAKed
        // boundary token resends the whole epoch's frame.
        delay += frameSerNs() + latency();
        transport::FaultEvent ev = drawFault(rxRng_);
        if (!ev.damagesToken())
            break;
        rxStats_.add(ev.drop ? "tokens_dropped"
                             : "tokens_corrupted");
        if (probe_)
            probe_->onEvent(ev.drop ? "drop" : "corrupt", now);
        if (tries >= faults_.config().maxRetries) {
            rxStats_.add("retry_budget_exhausted");
            if (probe_)
                probe_->onEvent("retry_exhausted", now);
            failed_ = true;
            break;
        }
        delay += effTimeoutNs() *
                 double(uint64_t(1) << std::min(tries - 1, 10u));
    }
    nak_ = {seq, now + delay, tries, delay};
    if (probe_ && probe_->tokenSampled(seq))
        probe_->onTokenNak(seq, now, delay);
    queue2_.pushFront({pristine->payload, now + delay, seq,
                       pristine->crc, false, pristine->enqTime});
}

bool
ReliableTokenChannel::headReady(double now) const
{
    poll(now);
    if (!replayFront_.empty())
        return replayFront_.front().readyTime <= now;
    return !queue2_.empty() && queue2_.front().readyTime <= now;
}

double
ReliableTokenChannel::headReadyTime() const
{
    if (!replayFront_.empty())
        return replayFront_.front().readyTime;
    if (queue2_.empty())
        return std::numeric_limits<double>::infinity();
    return queue2_.front().readyTime;
}

const Token &
ReliableTokenChannel::head() const
{
    if (!replayFront_.empty())
        return replayFront_.front().payload;
    FIREAXE_ASSERT(!queue2_.empty(), "channel '", name_,
                   "' head of empty queue");
    return queue2_.front().payload;
}

double
ReliableTokenChannel::headEnqueueTime() const
{
    if (!replayFront_.empty())
        return replayFront_.front().enqTime;
    FIREAXE_ASSERT(!queue2_.empty(), "channel '", name_,
                   "' headEnqueueTime of empty queue");
    return queue2_.front().enqTime;
}

void
ReliableTokenChannel::deq()
{
    if (!replayFront_.empty()) {
        // Re-delivery of a logged token during a single-partition
        // restart: the physical queue and the producer's retransmit
        // buffer already account for it (its seq precedes the
        // rolled-forward acknowledgment horizon), so only the
        // consumer's delivery counters move.
        RelEntry e = std::move(replayFront_.front());
        replayFront_.pop_front();
        lastDelivered_ = e.seq;
        ++deqCount2_;
        logDelivered(e);
        return;
    }
    FIREAXE_ASSERT(!queue2_.empty(), "channel '", name_,
                   "' deq of empty queue");
    lastDelivered_ = queue2_.front().seq;
    if (nak_.pendingSeq != 0 && lastDelivered_ >= nak_.pendingSeq)
        nak_ = {}; // the NAKed token's recovery completed
    logDelivered(queue2_.front());
    queue2_.popFront();
    ++deqCount2_;
    // Delivery is the in-process acknowledgment: retire the
    // producer-side copies up to the delivered sequence number.
    while (!rtxBuf_.empty() &&
           rtxBuf_.front().seq <= lastDelivered_)
        rtxBuf_.popFront();
}

void
ReliableTokenChannel::logDelivered(const RelEntry &e) const
{
    if (replayCap_ == 0)
        return;
    replayLog_.push_back(e);
    if (replayLog_.size() > replayCap_)
        replayLog_.pop_front();
}

void
ReliableTokenChannel::setReplayLogCapacity(size_t n)
{
    replayCap_ = n;
    while (replayLog_.size() > replayCap_)
        replayLog_.pop_front();
}

bool
ReliableTokenChannel::replayFromLog(uint64_t cut_deq_count,
                                    uint64_t cut_last_delivered,
                                    std::string &error)
{
    if (!replayFront_.empty()) {
        error = "channel '" + name_ +
                "': a replay is already in progress";
        return false;
    }
    if (cut_deq_count > deqCount2_) {
        error = "channel '" + name_ +
                "': recovery point is ahead of the channel";
        return false;
    }
    uint64_t n = deqCount2_ - cut_deq_count;
    if (n > replayLog_.size()) {
        error = "channel '" + name_ + "': replay log holds " +
                std::to_string(replayLog_.size()) + " of the " +
                std::to_string(n) +
                " deliveries since the recovery point (raise "
                "the replay log depth or restore the whole run)";
        return false;
    }
    // Move the since-the-cut suffix of the log into the replay
    // front; re-delivery will log them again, converging the log
    // back to its pre-restart contents.
    for (uint64_t i = 0; i < n; ++i) {
        replayFront_.push_front(std::move(replayLog_.back()));
        replayLog_.pop_back();
    }
    deqCount2_ = cut_deq_count;
    lastDelivered_ = cut_last_delivered;
    error.clear();
    return true;
}

void
ReliableTokenChannel::failover(double ser_time, double latency)
{
    setTiming(ser_time, latency, nullptr);
    // The fallback transport has no epoch-batching gateware: revert
    // to per-token transmission. Tokens already stamped keep their
    // ready times; future enqueues pay the per-token cost.
    batchDepth_ = 1;
    batchPos_ = 0;
    stallUntil_ = 0.0;
    faultsActive_ = false;
    failed_ = false;
    txStats_.add("failovers");
}

CounterSet
ReliableTokenChannel::stats() const
{
    CounterSet merged = txStats_;
    for (const auto &kv : rxStats_.all())
        merged.add(kv.first, kv.second);
    return merged;
}

namespace {

void
writeRelEntry(std::ostream &os, const ReliableTokenChannel &,
              const Token &payload, double ready_time, uint64_t seq,
              uint32_t crc, bool verified, double enq_time)
{
    os << payload.size();
    for (uint64_t w : payload)
        os << " " << w;
    os << " " << doubleBits(ready_time) << " " << seq << " " << crc
       << " " << (verified ? 1 : 0) << " " << doubleBits(enq_time)
       << "\n";
}

void
writeCounters(std::ostream &os, const CounterSet &cs)
{
    os << cs.all().size();
    for (const auto &kv : cs.all())
        os << " " << kv.first << " " << kv.second;
    os << "\n";
}

void
writeRng(std::ostream &os, const Rng &rng)
{
    auto s = rng.state();
    os << s[0] << " " << s[1] << " " << s[2] << " " << s[3] << "\n";
}

} // namespace

void
ReliableTokenChannel::saveCkpt(std::ostream &os) const
{
    TokenChannel::saveCkpt(os);
    os << "fireaxe-relchan 1\n";
    os << nextSeq_ << " " << lastDelivered_ << " " << enqCount2_
       << " " << deqCount2_ << " " << qPushes2_ << " "
       << (failed_ ? 1 : 0) << " " << (faultsActive_ ? 1 : 0) << " "
       << suppress_ << " " << replayCap_ << "\n";
    os << nak_.pendingSeq << " " << doubleBits(nak_.resendReadyNs)
       << " " << nak_.backoffTries << " "
       << doubleBits(nak_.backoffNs) << "\n";
    writeRng(os, txRng_);
    writeRng(os, rxRng_);
    writeCounters(os, txStats_);
    writeCounters(os, rxStats_);
    os << queue2_.size() << "\n";
    for (size_t i = 0; i < queue2_.size(); ++i) {
        const RelEntry &e = queue2_.at(i);
        writeRelEntry(os, *this, e.payload, e.readyTime, e.seq,
                      e.crc, e.verified, e.enqTime);
    }
    os << rtxBuf_.size() << "\n";
    for (size_t i = 0; i < rtxBuf_.size(); ++i) {
        const RelEntry &e = rtxBuf_.at(i);
        writeRelEntry(os, *this, e.payload, e.readyTime, e.seq,
                      e.crc, e.verified, e.enqTime);
    }
}

bool
ReliableTokenChannel::tryLoadCkpt(std::istream &is,
                                  std::string &error)
{
    if (!TokenChannel::tryLoadCkpt(is, error))
        return false;
    auto fail = [&](std::string msg) {
        error = "channel '" + name_ + "': " + std::move(msg);
        return false;
    };
    auto readEntries = [&](size_t ring_cap,
                           std::vector<RelEntry> &out) {
        size_t n = 0;
        is >> n;
        if (!is || n > ring_cap)
            return false;
        out.resize(n);
        for (auto &e : out) {
            size_t words = 0;
            is >> words;
            if (!is || words > 4096)
                return false;
            e.payload.resize(words);
            for (auto &w : e.payload)
                is >> w;
            uint64_t ready_b = 0, enq_b = 0;
            unsigned verified = 0;
            is >> ready_b >> e.seq >> e.crc >> verified >> enq_b;
            if (!is)
                return false;
            e.readyTime = bitsToDouble(ready_b);
            e.verified = verified != 0;
            e.enqTime = bitsToDouble(enq_b);
        }
        return true;
    };
    auto readCounters = [&](CounterSet &cs) {
        size_t n = 0;
        is >> n;
        if (!is || n > 1024)
            return false;
        cs.reset();
        for (size_t i = 0; i < n; ++i) {
            std::string name;
            uint64_t value = 0;
            is >> name >> value;
            if (!is)
                return false;
            cs.add(name, value);
        }
        return true;
    };
    auto readRng = [&](Rng &rng) {
        std::array<uint64_t, 4> s{};
        is >> s[0] >> s[1] >> s[2] >> s[3];
        if (!is)
            return false;
        rng.setState(s);
        return true;
    };

    std::string magic;
    unsigned version = 0;
    is >> magic >> version;
    if (magic != "fireaxe-relchan" || version != 1)
        return fail("not a reliable-channel checkpoint stream");

    uint64_t next_seq = 0, last_delivered = 0, enq2 = 0, deq2 = 0,
             pushes2 = 0, suppress = 0;
    unsigned failed = 0, faults_active = 0;
    size_t replay_cap = 0;
    is >> next_seq >> last_delivered >> enq2 >> deq2 >> pushes2 >>
        failed >> faults_active >> suppress >> replay_cap;
    NakRecovery nak;
    uint64_t resend_b = 0, backoff_b = 0;
    is >> nak.pendingSeq >> resend_b >> nak.backoffTries >>
        backoff_b;
    if (!is)
        return fail("truncated reliable-channel checkpoint");
    nak.resendReadyNs = bitsToDouble(resend_b);
    nak.backoffNs = bitsToDouble(backoff_b);

    Rng tx_rng(0), rx_rng(0);
    if (!readRng(tx_rng) || !readRng(rx_rng))
        return fail("truncated fault-RNG state");
    CounterSet tx_stats, rx_stats;
    if (!readCounters(tx_stats) || !readCounters(rx_stats))
        return fail("truncated reliability counters");
    std::vector<RelEntry> queue_entries, rtx_entries;
    if (!readEntries(queue2_.capacity(), queue_entries))
        return fail("truncated in-flight queue");
    if (!readEntries(rtxBuf_.capacity(), rtx_entries))
        return fail("truncated retransmit buffer");

    nextSeq_ = next_seq;
    lastDelivered_ = last_delivered;
    enqCount2_ = enq2;
    deqCount2_ = deq2;
    qPushes2_ = pushes2;
    suppress_ = suppress;
    replayCap_ = replay_cap;
    failed_ = failed != 0;
    faultsActive_ = faults_active != 0;
    nak_ = nak;
    txRng_ = tx_rng;
    rxRng_ = rx_rng;
    txStats_ = tx_stats;
    rxStats_ = rx_stats;
    while (!queue2_.empty())
        queue2_.popFront();
    for (auto &e : queue_entries)
        queue2_.pushBack(std::move(e));
    while (!rtxBuf_.empty())
        rtxBuf_.popFront();
    for (auto &e : rtx_entries)
        rtxBuf_.pushBack(std::move(e));
    // Restart-replay state is transient and never part of a durable
    // cut: a restore starts with a clean replay pipeline.
    replayFront_.clear();
    replayLog_.clear();
    error.clear();
    return true;
}

} // namespace fireaxe::libdn
