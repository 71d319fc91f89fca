#include "sim/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "sim/logging.hh"

namespace grp
{

uint64_t
parseUint(const char *name, const char *text, uint64_t max)
{
    // Digits only: strtoull would silently accept "-1" (wrapping to
    // 2^64-1), leading whitespace and trailing garbage ("20k").
    fatal_if(!*text, "%s='' is not a non-negative integer", name);
    for (const char *p = text; *p; ++p) {
        fatal_if(!std::isdigit(static_cast<unsigned char>(*p)),
                 "%s='%s' is not a non-negative integer", name, text);
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    fatal_if(errno == ERANGE || *end != '\0' || parsed > max,
             "%s='%s' exceeds %llu", name, text,
             (unsigned long long)max);
    return static_cast<uint64_t>(parsed);
}

uint64_t
envInt(const char *name, uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    return parseUint(name, env);
}

} // namespace grp
