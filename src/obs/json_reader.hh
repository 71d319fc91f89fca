/**
 * @file
 * A minimal recursive-descent JSON parser.
 *
 * Exists so the test suite (and any downstream tooling) can validate
 * and inspect the JSON artefacts the observability layer emits —
 * stats exports, time-series dumps and trace records — without an
 * external dependency. Supports the full JSON grammar the writer
 * produces: objects, arrays, strings (with the writer's escapes),
 * numbers, booleans and null. Corrupt input is an error, never a
 * crash: numbers must follow the JSON grammar exactly, and nesting
 * is capped at 64 levels.
 */

#ifndef GRP_OBS_JSON_READER_HH
#define GRP_OBS_JSON_READER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace grp
{
namespace obs
{

/** One parsed JSON value (a small DOM node). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }

    double asNumber() const { return number_; }
    bool asBool() const { return bool_; }
    const std::string &asString() const { return string_; }
    const std::vector<JsonValue> &asArray() const { return array_; }
    const std::map<std::string, JsonValue> &asObject() const
    {
        return object_;
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    /** Member lookup through nested objects ("a.b.c"). */
    const JsonValue *findPath(const std::string &dotted) const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    double number_ = 0.0;
    bool bool_ = false;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/**
 * Parse @p text as one JSON document.
 *
 * @param[out] error Filled with a message on failure.
 * @return The parsed value, or std::nullopt on malformed input
 *         (including trailing garbage).
 */
std::unique_ptr<JsonValue> parseJson(const std::string &text,
                                     std::string *error = nullptr);

} // namespace obs
} // namespace grp

#endif // GRP_OBS_JSON_READER_HH
