#include "libdn/channel.hh"

#include <istream>
#include <ostream>

#include "base/serial.hh"

namespace fireaxe::libdn {

void
TokenChannel::saveCkpt(std::ostream &os) const
{
    os << "fireaxe-chan 2\n";
    os << name_ << " " << widthBits_ << " " << capacity_ << "\n";
    os << enqCount_ << " " << deqCount_ << " "
       << doubleBits(serTime()) << " " << doubleBits(latency()) << " "
       << doubleBits(serializer_->lastDepart) << " "
       << doubleBits(producerNowNs_) << " "
       << doubleBits(consumerNowNs_) << "\n";
    // Epoch (batching) position: a snapshot may land mid-epoch, so
    // the frame phase and the stop-and-wait horizon are part of the
    // token schedule's state.
    os << batchPos_ << " " << doubleBits(stallUntil_) << "\n";
    os << queue_.size() << "\n";
    for (size_t i = 0; i < queue_.size(); ++i) {
        const Entry &e = queue_.at(i);
        os << e.token.size();
        for (uint64_t w : e.token)
            os << " " << w;
        os << " " << doubleBits(e.readyTime) << " "
           << doubleBits(e.enqTime) << "\n";
    }
}

bool
TokenChannel::tryLoadCkpt(std::istream &is, std::string &error)
{
    auto fail = [&](std::string msg) {
        error = "channel '" + name_ + "': " + std::move(msg);
        return false;
    };
    std::string magic;
    unsigned version = 0;
    is >> magic >> version;
    if (magic != "fireaxe-chan" || version != 2)
        return fail("not a channel checkpoint stream");
    std::string name;
    unsigned width = 0;
    size_t capacity = 0;
    is >> name >> width >> capacity;
    if (!is)
        return fail("truncated checkpoint header");
    if (name != name_ || width != widthBits_ || capacity != capacity_)
        return fail("checkpoint is for channel '" + name + "' (" +
                    std::to_string(width) + " bits, capacity " +
                    std::to_string(capacity) + ")");

    uint64_t enq = 0, deq = 0;
    uint64_t ser_b = 0, lat_b = 0, depart_b = 0, pnow_b = 0,
             cnow_b = 0;
    is >> enq >> deq >> ser_b >> lat_b >> depart_b >> pnow_b >>
        cnow_b;
    uint64_t batch_pos = 0, stall_b = 0;
    is >> batch_pos >> stall_b;
    size_t qsize = 0;
    is >> qsize;
    if (!is)
        return fail("truncated checkpoint counters");
    if (qsize > capacity_ + 4)
        return fail("checkpoint queue depth " +
                    std::to_string(qsize) + " exceeds the ring");
    std::vector<Entry> entries(qsize);
    for (auto &e : entries) {
        size_t words = 0;
        is >> words;
        if (!is || words > 4096)
            return fail("truncated checkpoint queue");
        e.token.resize(words);
        for (auto &w : e.token)
            is >> w;
        uint64_t ready_b = 0, enq_b = 0;
        is >> ready_b >> enq_b;
        if (!is)
            return fail("truncated checkpoint queue");
        e.readyTime = bitsToDouble(ready_b);
        e.enqTime = bitsToDouble(enq_b);
    }

    enqCount_ = enq;
    deqCount_ = deq;
    serTime_ = bitsToDouble(ser_b);
    latency_ = bitsToDouble(lat_b);
    serializer_->lastDepart = bitsToDouble(depart_b);
    producerNowNs_ = bitsToDouble(pnow_b);
    consumerNowNs_ = bitsToDouble(cnow_b);
    batchPos_ = batch_pos;
    stallUntil_ = bitsToDouble(stall_b);
    while (!queue_.empty())
        queue_.popFront();
    for (auto &e : entries)
        queue_.pushBack(std::move(e));
    error.clear();
    return true;
}

} // namespace fireaxe::libdn
