#include "obs/json_reader.hh"

#include <cctype>
#include <cstdlib>

namespace grp
{
namespace obs
{

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = object_.find(name);
    return it == object_.end() ? nullptr : &it->second;
}

const JsonValue *
JsonValue::findPath(const std::string &dotted) const
{
    const JsonValue *node = this;
    size_t start = 0;
    while (node && start <= dotted.size()) {
        const size_t dot = dotted.find('.', start);
        const std::string part =
            dotted.substr(start, dot == std::string::npos
                                     ? std::string::npos
                                     : dot - start);
        node = node->find(part);
        if (dot == std::string::npos)
            return node;
        start = dot + 1;
    }
    return nullptr;
}

/** Recursive-descent parser over a string buffer (befriended by
 *  JsonValue; must live in grp::obs, not an anonymous namespace). */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out, std::string &error)
    {
        if (!parseValue(out, error, 0))
            return false;
        skipWs();
        if (pos_ != text_.size()) {
            error = "trailing characters at offset " +
                    std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    fail(std::string &error, const std::string &what)
    {
        error = what + " at offset " + std::to_string(pos_);
        return false;
    }

    bool
    literal(const char *word)
    {
        size_t len = 0;
        while (word[len])
            ++len;
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    bool
    parseString(std::string &out, std::string &error)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail(error, "expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail(error, "truncated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail(error, "truncated \\u escape");
                const unsigned code = static_cast<unsigned>(
                    std::strtoul(text_.substr(pos_, 4).c_str(),
                                 nullptr, 16));
                pos_ += 4;
                // The writer only emits \u for control characters;
                // decode the BMP subset as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail(error, "bad escape");
            }
        }
        if (pos_ >= text_.size())
            return fail(error, "unterminated string");
        ++pos_; // Closing quote.
        return true;
    }

    /** Skip a run of ASCII digits; false when there is none. */
    bool
    digits()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    /** A number in exactly the JSON grammar (no nan, inf, hex or
     *  leading '+', which strtod alone would take). */
    bool
    parseNumber(JsonValue &out, std::string &error)
    {
        const size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '0')
            ++pos_;
        else if (!digits())
            return fail(error, "expected value");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return fail(error, "expected fraction digits");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return fail(error, "expected exponent digits");
        }
        out.kind_ = JsonValue::Kind::Number;
        out.number_ =
            std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
        return true;
    }

    bool
    parseValue(JsonValue &out, std::string &error, unsigned depth)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail(error, "unexpected end of input");
        const char c = text_[pos_];
        // Every container recurses once; the writers nest at most 5
        // deep, and a corrupt line must not exhaust the stack.
        if ((c == '{' || c == '[') && depth >= kMaxDepth)
            return fail(error, "nesting deeper than " +
                                   std::to_string(kMaxDepth));
        if (c == '{') {
            ++pos_;
            out.kind_ = JsonValue::Kind::Object;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                std::string name;
                if (!parseString(name, error))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail(error, "expected ':'");
                ++pos_;
                JsonValue member;
                if (!parseValue(member, error, depth + 1))
                    return false;
                out.object_.emplace(std::move(name), std::move(member));
                skipWs();
                if (pos_ >= text_.size())
                    return fail(error, "unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail(error, "expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind_ = JsonValue::Kind::Array;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue element;
                if (!parseValue(element, error, depth + 1))
                    return false;
                out.array_.push_back(std::move(element));
                skipWs();
                if (pos_ >= text_.size())
                    return fail(error, "unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail(error, "expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind_ = JsonValue::Kind::String;
            return parseString(out.string_, error);
        }
        if (c == 't') {
            if (!literal("true"))
                return fail(error, "bad literal");
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return fail(error, "bad literal");
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return fail(error, "bad literal");
            out.kind_ = JsonValue::Kind::Null;
            return true;
        }
        return parseNumber(out, error);
    }

    static constexpr unsigned kMaxDepth = 64;

    const std::string &text_;
    size_t pos_ = 0;
};

std::unique_ptr<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    auto value = std::make_unique<JsonValue>();
    std::string local_error;
    JsonParser parser(text);
    if (!parser.parse(*value, local_error)) {
        if (error)
            *error = local_error;
        return nullptr;
    }
    return value;
}

} // namespace obs
} // namespace grp
