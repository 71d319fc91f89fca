/**
 * @file
 * Shared parsing for the simulator's numeric environment knobs and
 * command-line flags.
 *
 * Every GRP_* integer variable (GRP_INSTRUCTIONS, GRP_BENCH_THREADS,
 * GRP_TRACE_LEVEL, GRP_HOST_PROF, ...) and every numeric flag of the
 * command-line tools historically went through atoi-family parsing,
 * which silently turns "200M", "4x" or "-1" into something the user
 * did not ask for — at paper-scale budgets a mistyped instruction
 * count quietly runs the wrong experiment for hours. parseUint()
 * holds the one rule: anything that is not a plain non-negative
 * decimal integer is a fatal diagnostic naming the variable or flag.
 */

#ifndef GRP_SIM_ENV_HH
#define GRP_SIM_ENV_HH

#include <cstdint>

namespace grp
{

/**
 * Parse @p text as a plain non-negative decimal integer.
 *
 * @param name The variable or flag the text came from, for the
 *        diagnostic.
 * @param max The largest value the caller can hold.
 * @return The value. Anything else — empty text, non-digit
 *         characters, a sign, whitespace, trailing garbage, or a
 *         value above @p max — is a user error: fatal() with @p name
 *         and the offending text.
 */
uint64_t parseUint(const char *name, const char *text,
                   uint64_t max = UINT64_MAX);

/**
 * Read the integer environment variable @p name.
 *
 * @return @p fallback when the variable is unset or empty, its value
 *         (parsed by parseUint()) otherwise.
 */
uint64_t envInt(const char *name, uint64_t fallback);

} // namespace grp

#endif // GRP_SIM_ENV_HH
