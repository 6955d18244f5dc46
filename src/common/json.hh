/**
 * @file
 * Minimal JSON value type with a parser and a deterministic writer,
 * used for structured result export and the sweep result store.  No
 * third-party dependency: the subset implemented (null, bool, finite
 * numbers, strings, arrays, objects) is exactly what the simulator's
 * own artifacts need.
 *
 * Objects preserve insertion order so that serialization is
 * byte-stable: the same data always produces the same bytes,
 * regardless of how many threads produced the data.
 */

#ifndef FLYWHEEL_COMMON_JSON_HH
#define FLYWHEEL_COMMON_JSON_HH

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace flywheel {

/** One JSON value (recursive). */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Json() = default;
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(double d) : kind_(Kind::Number), num_(d) {}
    Json(int v) : kind_(Kind::Number), num_(v) {}
    Json(unsigned v) : kind_(Kind::Number), num_(v) {}
    Json(std::uint64_t v) : kind_(Kind::Number), num_(double(v)) {}
    Json(std::int64_t v) : kind_(Kind::Number), num_(double(v)) {}
    Json(const char *s) : kind_(Kind::String), str_(s) {}
    Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static Json array() { Json j; j.kind_ = Kind::Array; return j; }
    static Json object() { Json j; j.kind_ = Kind::Object; return j; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }

    bool asBool() const { return bool_; }
    double asDouble() const { return num_; }
    /**
     * Number as uint64, saturating: negative values clamp to 0 and
     * values at or beyond 2^64 clamp to UINT64_MAX (the double
     * nearest UINT64_MAX is exactly 2^64, so a serialized UINT64_MAX
     * round-trips through the clamp).  Avoids the undefined
     * out-of-range double->integer conversion.
     */
    std::uint64_t
    asU64() const
    {
        if (!(num_ > 0.0))
            return 0;
        if (num_ >= 18446744073709551616.0)  // 2^64
            return std::numeric_limits<std::uint64_t>::max();
        return std::uint64_t(num_);
    }
    const std::string &asString() const { return str_; }

    /** Array element access (empty Json if out of range). */
    const Json &at(std::size_t i) const;
    std::size_t size() const { return arr_.size(); }
    const std::vector<Json> &items() const { return arr_; }

    /** Object member access (empty Json if absent). */
    const Json &operator[](const std::string &key) const;
    bool has(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return obj_;
    }

    /** Append to an array value. */
    void push(Json v);
    /** Set (insert or overwrite) an object member. */
    void set(const std::string &key, Json v);
    /**
     * Append an object member without the duplicate-key scan.  O(1)
     * versus set()'s O(members); the caller guarantees @p key is not
     * already present (bulk building from known-unique keys).
     */
    void add(std::string key, Json v);

    /**
     * Serialize.  @p indent > 0 pretty-prints with that many spaces
     * per level; 0 emits the compact single-line form.  Number
     * formatting is locale-independent and value-deterministic:
     * integral values in the exactly-representable range print
     * without a decimal point, everything else as shortest-round-trip
     * %.17g.
     */
    void write(std::ostream &os, int indent = 0) const;
    std::string dump(int indent = 0) const;

    /**
     * Parse @p text.  On success returns true and fills @p out; on
     * failure returns false and describes the problem in @p error.
     * Non-finite numbers (NaN/Infinity literals or overflowing
     * exponents) are rejected, and container nesting deeper than
     * kMaxParseDepth fails cleanly instead of overflowing the stack.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *error = nullptr);

    /** Maximum array/object nesting depth parse() accepts. */
    static constexpr int kMaxParseDepth = 128;

  private:
    void writeImpl(std::ostream &os, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

} // namespace flywheel

#endif // FLYWHEEL_COMMON_JSON_HH
