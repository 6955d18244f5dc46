#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace flywheel {

namespace {

const Json kEmpty;

/** Format one number deterministically (see Json::write docs). */
void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; emit null so output stays parseable.
        os << "null";
        return;
    }
    double r = std::nearbyint(v);
    if (r == v && std::fabs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        os << buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
writeString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** Recursive-descent parser over a raw character range. */
class Parser
{
  public:
    Parser(const char *p, const char *end) : p_(p), end_(end) {}

    bool
    parse(Json &out, std::string *error)
    {
        if (!value(out)) {
            if (error)
                *error = error_;
            return false;
        }
        skipWs();
        if (p_ != end_) {
            if (error)
                *error = "trailing characters after JSON value";
            return false;
        }
        return true;
    }

  private:
    void
    skipWs()
    {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                              *p_ == '\r'))
            ++p_;
    }

    bool
    fail(const std::string &msg)
    {
        if (error_.empty())
            error_ = msg;
        return false;
    }

    bool
    literal(const char *text, Json v, Json &out)
    {
        for (const char *t = text; *t; ++t, ++p_) {
            if (p_ == end_ || *p_ != *t)
                return fail(std::string("bad literal, expected ") + text);
        }
        out = std::move(v);
        return true;
    }

    bool
    value(Json &out)
    {
        skipWs();
        if (p_ == end_)
            return fail("unexpected end of input");
        switch (*p_) {
          case 'n': return literal("null", Json(), out);
          case 't': return literal("true", Json(true), out);
          case 'f': return literal("false", Json(false), out);
          case '"': return string(out);
          case '[': return array(out);
          case '{': return object(out);
          default:  return number(out);
        }
    }

    bool
    string(Json &out)
    {
        std::string s;
        if (!rawString(s))
            return false;
        out = Json(std::move(s));
        return true;
    }

    bool
    rawString(std::string &s)
    {
        ++p_; // opening quote
        while (p_ != end_ && *p_ != '"') {
            char c = *p_++;
            if (c != '\\') {
                s += c;
                continue;
            }
            if (p_ == end_)
                return fail("unterminated escape");
            char e = *p_++;
            switch (e) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                if (end_ - p_ < 4)
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = *p_++;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (no surrogate pairs;
                // our artifacts are ASCII).
                if (code < 0x80) {
                    s += char(code);
                } else if (code < 0x800) {
                    s += char(0xc0 | (code >> 6));
                    s += char(0x80 | (code & 0x3f));
                } else {
                    s += char(0xe0 | (code >> 12));
                    s += char(0x80 | ((code >> 6) & 0x3f));
                    s += char(0x80 | (code & 0x3f));
                }
                break;
              }
              default: return fail("unknown escape");
            }
        }
        if (p_ == end_)
            return fail("unterminated string");
        ++p_; // closing quote
        return true;
    }

    bool
    number(Json &out)
    {
        const char *start = p_;
        if (p_ != end_ && (*p_ == '-' || *p_ == '+'))
            ++p_;
        while (p_ != end_ &&
               (std::isdigit(static_cast<unsigned char>(*p_)) ||
                *p_ == '.' || *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                *p_ == '+'))
            ++p_;
        if (p_ == start)
            return fail("invalid number");
        std::string text(start, p_);
        char *endp = nullptr;
        double v = std::strtod(text.c_str(), &endp);
        if (endp != text.c_str() + text.size())
            return fail("invalid number: " + text);
        if (!std::isfinite(v))
            return fail("non-finite number: " + text);
        out = Json(v);
        return true;
    }

    /** RAII nesting-depth guard shared by array() and object(). */
    class DepthGuard
    {
      public:
        explicit DepthGuard(Parser &p) : p_(p) { ++p_.depth_; }
        ~DepthGuard() { --p_.depth_; }
        bool ok() const { return p_.depth_ <= Json::kMaxParseDepth; }

      private:
        Parser &p_;
    };

    bool
    array(Json &out)
    {
        DepthGuard depth(*this);
        if (!depth.ok())
            return fail("nesting deeper than the supported maximum");
        ++p_; // '['
        out = Json::array();
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        for (;;) {
            Json elem;
            if (!value(elem))
                return false;
            out.push(std::move(elem));
            skipWs();
            if (p_ == end_)
                return fail("unterminated array");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    object(Json &out)
    {
        DepthGuard depth(*this);
        if (!depth.ok())
            return fail("nesting deeper than the supported maximum");
        ++p_; // '{'
        out = Json::object();
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        for (;;) {
            skipWs();
            if (p_ == end_ || *p_ != '"')
                return fail("expected object key");
            std::string key;
            if (!rawString(key))
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':')
                return fail("expected ':' after object key");
            ++p_;
            Json member;
            if (!value(member))
                return false;
            // add(), not set(): the duplicate-key scan would make
            // parsing large objects quadratic.  On (invalid) repeated
            // keys the first occurrence wins at lookup.
            out.add(std::move(key), std::move(member));
            skipWs();
            if (p_ == end_)
                return fail("unterminated object");
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    const char *p_;
    const char *end_;
    int depth_ = 0;
    std::string error_;
};

} // namespace

const Json &
Json::at(std::size_t i) const
{
    return i < arr_.size() ? arr_[i] : kEmpty;
}

const Json &
Json::operator[](const std::string &key) const
{
    for (const auto &m : obj_)
        if (m.first == key)
            return m.second;
    return kEmpty;
}

bool
Json::has(const std::string &key) const
{
    for (const auto &m : obj_)
        if (m.first == key)
            return true;
    return false;
}

void
Json::push(Json v)
{
    kind_ = Kind::Array;
    arr_.push_back(std::move(v));
}

void
Json::set(const std::string &key, Json v)
{
    kind_ = Kind::Object;
    for (auto &m : obj_) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

void
Json::add(std::string key, Json v)
{
    kind_ = Kind::Object;
    obj_.emplace_back(std::move(key), std::move(v));
}

void
Json::writeImpl(std::ostream &os, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            os << '\n';
            for (int i = 0; i < d * indent; ++i)
                os << ' ';
        }
    };
    switch (kind_) {
      case Kind::Null: os << "null"; break;
      case Kind::Bool: os << (bool_ ? "true" : "false"); break;
      case Kind::Number: writeNumber(os, num_); break;
      case Kind::String: writeString(os, str_); break;
      case Kind::Array:
        os << '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                os << (indent > 0 ? "," : ", ");
            newline(depth + 1);
            arr_[i].writeImpl(os, indent, depth + 1);
        }
        if (!arr_.empty())
            newline(depth);
        os << ']';
        break;
      case Kind::Object:
        os << '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                os << (indent > 0 ? "," : ", ");
            newline(depth + 1);
            writeString(os, obj_[i].first);
            os << ": ";
            obj_[i].second.writeImpl(os, indent, depth + 1);
        }
        if (!obj_.empty())
            newline(depth);
        os << '}';
        break;
    }
}

void
Json::write(std::ostream &os, int indent) const
{
    writeImpl(os, indent, 0);
}

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

bool
Json::parse(const std::string &text, Json &out, std::string *error)
{
    Parser p(text.data(), text.data() + text.size());
    return p.parse(out, error);
}

} // namespace flywheel
