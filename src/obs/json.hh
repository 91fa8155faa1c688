/**
 * @file
 * Minimal streaming JSON writer shared by every telemetry exporter
 * (metrics JSON, Chrome trace_event files, bench row dumps). No DOM,
 * no allocation beyond the context stack: callers emit tokens in
 * order and the writer inserts separators and escapes strings.
 */

#ifndef FIREAXE_OBS_JSON_HH
#define FIREAXE_OBS_JSON_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/logging.hh"

namespace fireaxe::obs {

/** Write @p s with JSON string escaping (quotes not included).
 *  Runs of characters that need no escape go out in one write. */
inline void
jsonEscape(std::ostream &os, std::string_view s)
{
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const char *esc = nullptr;
        switch (s[i]) {
          case '"': esc = "\\\""; break;
          case '\\': esc = "\\\\"; break;
          case '\n': esc = "\\n"; break;
          case '\r': esc = "\\r"; break;
          case '\t': esc = "\\t"; break;
          default:
            if (static_cast<unsigned char>(s[i]) >= 0x20)
                continue;
        }
        os.write(s.data() + run, std::streamsize(i - run));
        run = i + 1;
        if (esc) {
            os << esc;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", s[i]);
            os << buf;
        }
    }
    os.write(s.data() + run, std::streamsize(s.size() - run));
}

/** Write an integer in plain decimal. */
template <typename Int>
inline void
jsonInteger(std::ostream &os, Int v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    os.write(buf, res.ptr - buf);
}

/** Format a double as a JSON number (inf/NaN become null, which
 *  keeps every exporter's output parseable). The bytes are those of
 *  printf("%.12g"), which std::to_chars with general format and
 *  precision 12 is defined to produce. */
inline void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 12);
    os.write(buf, res.ptr - buf);
}

/**
 * Context-tracking token writer: beginObject()/beginArray() push a
 * scope, key() names the next value inside an object, value()
 * emits a scalar. Separators are inserted automatically.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    void
    beginObject()
    {
        separator();
        os_ << '{';
        stack_.push_back(false);
    }

    void
    endObject()
    {
        FIREAXE_ASSERT(!stack_.empty(), "JSON scope underflow");
        stack_.pop_back();
        os_ << '}';
    }

    void
    beginArray()
    {
        separator();
        os_ << '[';
        stack_.push_back(false);
    }

    void
    endArray()
    {
        FIREAXE_ASSERT(!stack_.empty(), "JSON scope underflow");
        stack_.pop_back();
        os_ << ']';
    }

    void
    key(std::string_view k)
    {
        separator();
        os_ << '"';
        jsonEscape(os_, k);
        os_ << "\":";
        pendingKey_ = true;
    }

    void
    value(double v)
    {
        separator();
        jsonNumber(os_, v);
    }

    void
    value(uint64_t v)
    {
        separator();
        jsonInteger(os_, v);
    }

    void
    value(int v)
    {
        separator();
        jsonInteger(os_, v);
    }

    void
    value(bool v)
    {
        separator();
        os_ << (v ? "true" : "false");
    }

    void
    value(std::string_view v)
    {
        separator();
        os_ << '"';
        jsonEscape(os_, v);
        os_ << '"';
    }

    void value(const char *v) { value(std::string_view(v)); }

    /** Emit pre-encoded JSON verbatim (e.g. a nested args object). */
    void
    raw(std::string_view json)
    {
        separator();
        os_ << json;
    }

  private:
    void
    separator()
    {
        if (pendingKey_) {
            // A key was just written; the value follows directly.
            pendingKey_ = false;
            return;
        }
        if (!stack_.empty()) {
            if (stack_.back())
                os_ << ',';
            stack_.back() = true;
        }
    }

    std::ostream &os_;
    std::vector<bool> stack_;
    bool pendingKey_ = false;
};

} // namespace fireaxe::obs

#endif // FIREAXE_OBS_JSON_HH
