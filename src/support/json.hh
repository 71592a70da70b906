/**
 * @file
 * JSON for bsyn: one streaming writer, one pull reader, and a small
 * value model (the DOM) built on the two. The statistical profile —
 * the artifact that crosses organizational walls in the paper's
 * Figure 1 and the content address of every cached clone — is encoded
 * and decoded straight through JsonWriter and JsonReader, so a
 * memory or disk cache hit never builds a tree. Reports, traces and
 * other small documents use the Json DOM, whose dump() and parse()
 * run the same writer and reader, so there is one number formatter
 * and one lexer.
 */

#ifndef BSYN_SUPPORT_JSON_HH
#define BSYN_SUPPORT_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bsyn
{

class JsonWriter;

/** A dynamically-typed JSON value (null/bool/number/string/array/object). */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Json() : kind_(Kind::Null) {}
    Json(bool b) : kind_(Kind::Bool), boolean(b) {}
    Json(double d) : kind_(Kind::Number), number(d) {}
    Json(int64_t i) : kind_(Kind::Number), number(double(i)) {}
    Json(uint64_t u) : kind_(Kind::Number), number(double(u)) {}
    Json(int i) : kind_(Kind::Number), number(double(i)) {}
    Json(const char *s) : kind_(Kind::String), str(s) {}
    Json(std::string s) : kind_(Kind::String), str(std::move(s)) {}

    /** Build an empty array value. */
    static Json array();
    /** Build an empty object value. */
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** @return the boolean payload; panics on kind mismatch. */
    bool asBool() const;
    /** @return the numeric payload; panics on kind mismatch. */
    double asNumber() const;
    /** @return the numeric payload truncated to int64. */
    int64_t asInt() const;
    /** @return the string payload; panics on kind mismatch. */
    const std::string &asString() const;

    /** Array access. */
    void push(Json v);
    size_t size() const;
    const Json &at(size_t i) const;

    /** Object access. */
    void set(const std::string &key, Json v);
    bool has(const std::string &key) const;
    const Json &get(const std::string &key) const;

    /** Object keys in insertion order (empty for non-objects) — lets
     *  consumers walk fields in the exact order a writer emitted them,
     *  which reproducible re-serialization (e.g. shard merging) needs. */
    std::vector<std::string> keys() const;

    /** Serialize; @p indent < 0 means compact. */
    std::string dump(int indent = 2) const;

    /** Parse a JSON document; fatal() on malformed input. */
    static Json parse(const std::string &text);

  private:
    void writeTo(JsonWriter &w) const;

    Kind kind_;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> items;
    // Keep insertion order for reproducible round-trips.
    std::vector<std::pair<std::string, Json>> fields;
};

/**
 * Streaming JSON emitter: appends one document to a string as the
 * caller walks its data, inserting separators and (for @p indent >= 0)
 * line breaks itself. Numbers print as Json::dump always has: a value
 * that is integral with magnitude below 9e15 as `%lld`, anything else
 * as `%.17g` (which round-trips every double).
 */
class JsonWriter
{
  public:
    /** Append to @p out; @p indent < 0 means compact. */
    explicit JsonWriter(std::string &out, int indent = -1)
        : out_(out), indent_(indent)
    {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Name the next value written inside the current object. */
    void key(std::string_view k);

    void null();
    void value(bool b);
    void value(double d);
    void value(int64_t i);
    void value(uint64_t u);
    void value(int i) { value(int64_t(i)); }
    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }

    /** key() then value(). */
    template <typename T>
    void
    field(std::string_view k, const T &v)
    {
        key(k);
        value(v);
    }

  private:
    /** Emit what precedes a value or key at the current position. */
    void separate();
    void newline(int depth);
    void writeString(std::string_view s);

    std::string &out_;
    int indent_;
    int depth_ = 0;
    bool first_ = true;     ///< nothing written yet in the open container
    bool afterKey_ = false; ///< the next value completes a member
};

/**
 * Pull lexer over one JSON document: the caller walks the structure it
 * expects (beginObject/nextKey, beginArray/nextItem) and reads each
 * scalar where it stands; skip() passes over anything it does not
 * want. Numbers must follow the JSON grammar and fit a double. Every
 * malformed input raises fatal() — nesting included, so untrusted
 * input cannot exhaust the stack of a recursive consumer.
 */
class JsonReader
{
  public:
    /** Deepest array/object nesting accepted (a multi-phase
     *  profile nests 8 levels). */
    static constexpr int maxDepth = 64;

    /** @p text must outlive the reader. */
    explicit JsonReader(std::string_view text) : src_(text) {}

    /** Kind of the next value; Number for any character that starts
     *  no other kind (number() then rejects it). */
    Json::Kind peek();

    void beginObject();
    /**
     * Advance to the next member of the open object: true with @p key
     * naming it, or false once the object closes. @p key stays valid
     * until the next call on this reader.
     */
    bool nextKey(std::string_view &key);

    void beginArray();
    /** true when another element follows, false once the array closes. */
    bool nextItem();

    void null();
    bool boolean();
    double number();
    /** number() rounded to nearest, as Json::asInt() rounds. */
    int64_t integer();
    std::string string();
    /** Pass over one value of any kind. */
    void skip();

    /** Require that only whitespace remains. */
    void finish();

  private:
    /** Skip whitespace and return the next character; fatal() at end. */
    char next();
    void expectWord(std::string_view w);
    /** Read a string token; a view of the text when it holds no
     *  escapes, else of the decoded copy in scratch_. */
    std::string_view stringView();
    void decodeString(std::string &out);
    unsigned hex4();
    /** Step into the container whose opening bracket is next. */
    void enter();
    /** After an opening bracket or an element: true when another
     *  element follows (its comma consumed), false once @p close is. */
    bool another(char close);

    std::string_view src_;
    size_t pos_ = 0;
    int depth_ = 0;
    bool first_ = false; ///< the open container has no element yet
    std::string scratch_;
};

/**
 * Bookkeeping for a streaming object decoder: match() maps a key to its
 * index in a static table of member names (recording it as seen) so the
 * decoder can switch on it, and require() fails exactly as Json::get
 * does — `json: missing key 'x'` — for the first of the table's leading
 * required names that never appeared.
 */
class JsonFields
{
  public:
    template <size_t N>
    explicit JsonFields(const char *const (&names)[N])
        : names_(names), count_(N)
    {
        static_assert(N <= 64, "one seen-bit per name");
    }

    /** Index of @p key among the names, or -1 for an unknown key. */
    int
    match(std::string_view key)
    {
        for (size_t i = 0; i < count_; ++i) {
            if (key == names_[i]) {
                seen_ |= uint64_t(1) << i;
                return static_cast<int>(i);
            }
        }
        return -1;
    }

    /** fatal() unless each of the first @p required names was seen. */
    void require(size_t required) const;

  private:
    const char *const *names_; ///< a static table, not a copy
    size_t count_;
    uint64_t seen_ = 0;
};

} // namespace bsyn

#endif // BSYN_SUPPORT_JSON_HH
