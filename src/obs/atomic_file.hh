/**
 * @file
 * Atomic file publication for observability artefacts.
 *
 * The JSON/CSV exporters (stats, site profile, time series) are read
 * by concurrent consumers — bench_manifest.py, dashboards tailing
 * bench/out/, a second grpsim run into the same directory. Writing
 * in place exposes readers to truncated documents; instead the
 * content is written to "<path>.tmp" and published with one
 * std::rename(), which POSIX guarantees replaces the target
 * atomically on the same filesystem: readers see either the old
 * complete file or the new complete file, never a partial one.
 */

#ifndef GRP_OBS_ATOMIC_FILE_HH
#define GRP_OBS_ATOMIC_FILE_HH

#include <functional>
#include <ostream>
#include <string>

namespace grp
{
namespace obs
{

/**
 * Write @p emit's output to @p path atomically (tmp file + rename).
 *
 * @param what Short artefact description for warn() messages
 *             ("stats JSON", "site-profile", ...).
 * @return false (after a warn and tmp cleanup) when the temporary
 *         cannot be opened, the stream fails, or the rename fails.
 */
bool atomicWriteFile(const std::string &path,
                     const std::function<void(std::ostream &)> &emit,
                     const char *what);

/**
 * Publish an already-written temporary file: rename @p tmp_path over
 * @p path. For writers that stream incrementally (the trace sinks)
 * and so cannot use atomicWriteFile's callback shape — they write to
 * "<path>.tmp" themselves and publish here on close.
 *
 * @return false (after a warn and tmp cleanup) when the rename fails.
 */
bool publishTempFile(const std::string &tmp_path,
                     const std::string &path, const char *what);

} // namespace obs
} // namespace grp

#endif // GRP_OBS_ATOMIC_FILE_HH
