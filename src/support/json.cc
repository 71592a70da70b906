#include "support/json.hh"

#include <charconv>
#include <cmath>

#include "support/error.hh"

namespace bsyn
{

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool() const
{
    BSYN_ASSERT(kind_ == Kind::Bool, "json: not a bool");
    return boolean;
}

double
Json::asNumber() const
{
    BSYN_ASSERT(kind_ == Kind::Number, "json: not a number");
    return number;
}

int64_t
Json::asInt() const
{
    return static_cast<int64_t>(std::llround(asNumber()));
}

const std::string &
Json::asString() const
{
    BSYN_ASSERT(kind_ == Kind::String, "json: not a string");
    return str;
}

void
Json::push(Json v)
{
    BSYN_ASSERT(kind_ == Kind::Array, "json: push on non-array");
    items.push_back(std::move(v));
}

size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return items.size();
    if (kind_ == Kind::Object)
        return fields.size();
    return 0;
}

const Json &
Json::at(size_t i) const
{
    BSYN_ASSERT(kind_ == Kind::Array && i < items.size(),
                "json: bad array index");
    return items[i];
}

void
Json::set(const std::string &key, Json v)
{
    BSYN_ASSERT(kind_ == Kind::Object, "json: set on non-object");
    for (auto &kv : fields) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    }
    fields.emplace_back(key, std::move(v));
}

bool
Json::has(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return false;
    for (const auto &kv : fields)
        if (kv.first == key)
            return true;
    return false;
}

const Json &
Json::get(const std::string &key) const
{
    BSYN_ASSERT(kind_ == Kind::Object, "json: get on non-object");
    for (const auto &kv : fields)
        if (kv.first == key)
            return kv.second;
    fatal("json: missing key '%s'", key.c_str());
}

std::vector<std::string>
Json::keys() const
{
    std::vector<std::string> out;
    if (kind_ != Kind::Object)
        return out;
    out.reserve(fields.size());
    for (const auto &kv : fields)
        out.push_back(kv.first);
    return out;
}


void
JsonFields::require(size_t required) const
{
    for (size_t i = 0; i < required; ++i)
        if (!(seen_ >> i & 1))
            fatal("json: missing key '%s'", names_[i]);
}

void
Json::writeTo(JsonWriter &w) const
{
    switch (kind_) {
      case Kind::Null:
        w.null();
        break;
      case Kind::Bool:
        w.value(boolean);
        break;
      case Kind::Number:
        w.value(number);
        break;
      case Kind::String:
        w.value(str);
        break;
      case Kind::Array:
        w.beginArray();
        for (const auto &item : items)
            item.writeTo(w);
        w.endArray();
        break;
      case Kind::Object:
        w.beginObject();
        for (const auto &kv : fields) {
            w.key(kv.first);
            kv.second.writeTo(w);
        }
        w.endObject();
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    JsonWriter w(out, indent);
    writeTo(w);
    return out;
}

namespace
{

Json
readValue(JsonReader &r)
{
    switch (r.peek()) {
      case Json::Kind::Null:
        r.null();
        return Json();
      case Json::Kind::Bool:
        return Json(r.boolean());
      case Json::Kind::Number:
        return Json(r.number());
      case Json::Kind::String:
        return Json(r.string());
      case Json::Kind::Array: {
        Json arr = Json::array();
        r.beginArray();
        while (r.nextItem())
            arr.push(readValue(r));
        return arr;
      }
      case Json::Kind::Object: {
        Json obj = Json::object();
        r.beginObject();
        std::string_view k;
        while (r.nextKey(k)) {
            std::string key(k); // k dies with the next reader call
            obj.set(key, readValue(r));
        }
        return obj;
      }
    }
    panic("json: bad kind");
}

} // namespace

Json
Json::parse(const std::string &text)
{
    JsonReader r(text);
    Json v = readValue(r);
    r.finish();
    return v;
}

// ------------------------------------------------------------- writer

void
JsonWriter::newline(int depth)
{
    if (indent_ >= 0) {
        out_ += '\n';
        out_.append(static_cast<size_t>(indent_) * depth, ' ');
    }
}

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (depth_ == 0)
        return;
    if (!first_)
        out_ += ',';
    first_ = false;
    newline(depth_);
}

void
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    ++depth_;
    first_ = true;
}

void
JsonWriter::endObject()
{
    --depth_;
    if (!first_)
        newline(depth_);
    out_ += '}';
    first_ = false;
}

void
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    ++depth_;
    first_ = true;
}

void
JsonWriter::endArray()
{
    --depth_;
    if (!first_)
        newline(depth_);
    out_ += ']';
    first_ = false;
}

void
JsonWriter::key(std::string_view k)
{
    separate();
    writeString(k);
    out_ += indent_ >= 0 ? ": " : ":";
    afterKey_ = true;
}

void
JsonWriter::null()
{
    separate();
    out_ += "null";
}

void
JsonWriter::value(bool b)
{
    separate();
    out_ += b ? "true" : "false";
}

void
JsonWriter::value(double d)
{
    separate();
    // std::to_chars prints exactly what printf("%lld") / ("%.17g")
    // print, without the locale and format-string parsing.
    char buf[32];
    std::to_chars_result r;
    if (d == std::floor(d) && std::fabs(d) < 9.0e15)
        r = std::to_chars(buf, buf + sizeof(buf),
                          static_cast<long long>(d));
    else
        r = std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::general, 17);
    out_.append(buf, r.ptr);
}

namespace
{

/** Integers below this magnitude are exact as doubles and print as
 *  themselves; larger ones print as their double would. */
constexpr int64_t kExactInt = 9000000000000000;

} // namespace

void
JsonWriter::value(int64_t i)
{
    if (i <= -kExactInt || i >= kExactInt)
        return value(double(i));
    separate();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
}

void
JsonWriter::value(uint64_t u)
{
    if (u >= uint64_t(kExactInt))
        return value(double(u));
    value(static_cast<int64_t>(u));
}

void
JsonWriter::value(std::string_view s)
{
    separate();
    writeString(s);
}

void
JsonWriter::writeString(std::string_view s)
{
    out_ += '"';
    size_t run = 0; // start of the pending unescaped run
    for (size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out_.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out_ += "\\\""; break;
          case '\\': out_ += "\\\\"; break;
          case '\n': out_ += "\\n"; break;
          case '\t': out_ += "\\t"; break;
          case '\r': out_ += "\\r"; break;
          default: {
            static const char hex[] = "0123456789abcdef";
            char esc[] = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 15]};
            out_.append(esc, sizeof(esc));
          }
        }
    }
    out_.append(s.data() + run, s.size() - run);
    out_ += '"';
}

// ------------------------------------------------------------- reader

namespace
{

/** std::isspace in the C locale. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Characters that may continue a number token: a token is the longest
 *  run of these, so "12-5" is one (bad) number, not 12 then garbage. */
bool
isNumberChar(char c)
{
    return isDigit(c) || c == '-' || c == '+' || c == '.' || c == 'e' ||
           c == 'E';
}

/** Append @p code (a Unicode scalar value) as UTF-8. */
void
appendUtf8(std::string &out, unsigned code)
{
    if (code < 0x80) {
        out += static_cast<char>(code);
    } else if (code < 0x800) {
        out += static_cast<char>(0xc0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
        out += static_cast<char>(0xe0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    }
}

} // namespace

char
JsonReader::next()
{
    while (pos_ < src_.size() && isSpace(src_[pos_]))
        ++pos_;
    if (pos_ >= src_.size())
        fatal("json: unexpected end of input");
    return src_[pos_];
}

Json::Kind
JsonReader::peek()
{
    switch (next()) {
      case '{': return Json::Kind::Object;
      case '[': return Json::Kind::Array;
      case '"': return Json::Kind::String;
      case 't':
      case 'f': return Json::Kind::Bool;
      case 'n': return Json::Kind::Null;
      default: return Json::Kind::Number;
    }
}

void
JsonReader::enter()
{
    if (++depth_ > maxDepth)
        fatal("json: nesting deeper than %d at offset %zu", maxDepth,
              pos_);
    ++pos_;
    first_ = true;
}

void
JsonReader::beginObject()
{
    if (next() != '{')
        fatal("json: expected '{' at offset %zu", pos_);
    enter();
}

bool
JsonReader::another(char close)
{
    char c = next();
    if (first_) {
        first_ = false;
        if (c != close)
            return true;
    } else if (c == ',') {
        ++pos_;
        return true;
    } else if (c != close) {
        fatal("json: expected ',' or '%c' at offset %zu", close, pos_);
    }
    ++pos_;
    --depth_;
    return false;
}

bool
JsonReader::nextKey(std::string_view &key)
{
    if (!another('}'))
        return false;
    key = stringView();
    if (next() != ':')
        fatal("json: expected ':' at offset %zu", pos_);
    ++pos_;
    return true;
}

void
JsonReader::beginArray()
{
    if (next() != '[')
        fatal("json: expected '[' at offset %zu", pos_);
    enter();
}

bool
JsonReader::nextItem()
{
    return another(']');
}

void
JsonReader::expectWord(std::string_view w)
{
    next();
    if (src_.compare(pos_, w.size(), w) != 0)
        fatal("json: expected '%.*s' at offset %zu",
              static_cast<int>(w.size()), w.data(), pos_);
    pos_ += w.size();
}

void
JsonReader::null()
{
    expectWord("null");
}

bool
JsonReader::boolean()
{
    char c = next();
    if (c != 't' && c != 'f')
        fatal("json: expected a bool at offset %zu", pos_);
    expectWord(c == 't' ? "true" : "false");
    return c == 't';
}

double
JsonReader::number()
{
    next();
    // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and nothing after
    // it that could continue a number.
    const size_t start = pos_, n = src_.size();
    size_t i = start;
    auto digits = [&] {
        size_t from = i;
        while (i < n && isDigit(src_[i]))
            ++i;
        return i > from;
    };
    const bool negative = i < n && src_[i] == '-';
    if (negative)
        ++i;
    const size_t intStart = i;
    bool ok = true;
    if (i < n && src_[i] == '0')
        ++i;
    else
        ok = digits();
    const size_t intEnd = i;
    if (ok && i < n && src_[i] == '.') {
        ++i;
        ok = digits();
    }
    if (ok && i < n && (src_[i] == 'e' || src_[i] == 'E')) {
        ++i;
        if (i < n && (src_[i] == '+' || src_[i] == '-'))
            ++i;
        ok = digits();
    }
    if (!ok || (i < n && isNumberChar(src_[i])))
        fatal("json: bad number at offset %zu", start);
    pos_ = i;
    // Most profile numbers are counts: an integer of at most 15 digits
    // is exact in a double, so it needs no general conversion.
    if (i == intEnd && intEnd - intStart <= 15) {
        uint64_t v = 0;
        for (size_t k = intStart; k < intEnd; ++k)
            v = v * 10 + static_cast<uint64_t>(src_[k] - '0');
        return negative ? -double(v) : double(v);
    }
    double d = 0.0;
    auto r = std::from_chars(src_.data() + start, src_.data() + i, d);
    if (r.ec != std::errc() || r.ptr != src_.data() + i)
        fatal("json: bad number at offset %zu", start);
    return d;
}

int64_t
JsonReader::integer()
{
    return static_cast<int64_t>(std::llround(number()));
}

unsigned
JsonReader::hex4()
{
    if (pos_ + 4 > src_.size())
        fatal("json: bad \\u escape");
    unsigned code = 0;
    for (size_t k = 0; k < 4; ++k) {
        char h = src_[pos_ + k];
        unsigned v;
        if (h >= '0' && h <= '9')
            v = unsigned(h - '0');
        else if (h >= 'a' && h <= 'f')
            v = unsigned(h - 'a' + 10);
        else if (h >= 'A' && h <= 'F')
            v = unsigned(h - 'A' + 10);
        else
            fatal("json: non-hex digit in \\u escape at offset %zu",
                  pos_ + k);
        code = code * 16 + v;
    }
    pos_ += 4;
    return code;
}

void
JsonReader::decodeString(std::string &out)
{
    if (next() != '"')
        fatal("json: expected '\"' at offset %zu", pos_);
    ++pos_;
    const size_t n = src_.size();
    for (;;) {
        size_t run = pos_;
        while (pos_ < n && src_[pos_] != '"' && src_[pos_] != '\\')
            ++pos_;
        out.append(src_.data() + run, pos_ - run);
        if (pos_ >= n)
            fatal("json: unterminated string");
        if (src_[pos_++] == '"')
            return;
        if (pos_ >= n)
            fatal("json: bad escape");
        char e = src_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'u': {
            unsigned code = hex4();
            if (code >= 0xdc00 && code <= 0xdfff)
                fatal("json: unpaired low surrogate \\u%04x", code);
            if (code >= 0xd800 && code <= 0xdbff) {
                // High surrogate: a \uXXXX low surrogate must follow to
                // form one supplementary code point.
                if (pos_ + 2 > n || src_[pos_] != '\\' ||
                    src_[pos_ + 1] != 'u')
                    fatal("json: high surrogate \\u%04x not followed by "
                          "\\u low surrogate",
                          code);
                pos_ += 2;
                unsigned low = hex4();
                if (low < 0xdc00 || low > 0xdfff)
                    fatal("json: expected low surrogate after \\u%04x, "
                          "got \\u%04x",
                          code, low);
                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
            appendUtf8(out, code);
            break;
          }
          default:
            fatal("json: unknown escape '\\%c'", e);
        }
    }
}

std::string_view
JsonReader::stringView()
{
    if (next() != '"')
        fatal("json: expected '\"' at offset %zu", pos_);
    const size_t start = pos_ + 1, n = src_.size();
    size_t end = start;
    while (end < n && src_[end] != '"' && src_[end] != '\\')
        ++end;
    if (end < n && src_[end] == '"') {
        pos_ = end + 1;
        return src_.substr(start, end - start);
    }
    scratch_.clear();
    decodeString(scratch_);
    return scratch_;
}

std::string
JsonReader::string()
{
    std::string out;
    decodeString(out);
    return out;
}

void
JsonReader::skip()
{
    switch (peek()) {
      case Json::Kind::Null:
        null();
        break;
      case Json::Kind::Bool:
        boolean();
        break;
      case Json::Kind::Number:
        number();
        break;
      case Json::Kind::String:
        stringView();
        break;
      case Json::Kind::Array:
        beginArray();
        while (nextItem())
            skip();
        break;
      case Json::Kind::Object: {
        beginObject();
        std::string_view k;
        while (nextKey(k))
            skip();
        break;
      }
    }
}

void
JsonReader::finish()
{
    while (pos_ < src_.size() && isSpace(src_[pos_]))
        ++pos_;
    if (pos_ != src_.size())
        fatal("json: trailing garbage at offset %zu", pos_);
}

} // namespace bsyn
