/**
 * @file
 * grptrace — offline analyzer for prefetch lifecycle traces.
 *
 *   grptrace TRACE [--chrome OUT.trace.json]
 *            [--timeseries TS.json] [--top N] [--quiet]
 *            [--site N] [--window A:B] [--ev NAME] [--no-index]
 *            [--jsonl PATH] [--summary-json PATH]
 *
 * Re-reads a .grpbin trace written by `grpsim --trace` — "-" reads
 * stdin, so `grpsim --trace - | grptrace --quiet -` works — validates
 * the lifecycle invariants (every fill was issued, every first-use
 * had a fill, no event touches a block that is not live, issues stay
 * inside enqueued windows), recomputes
 * per-hint-class and per-site accuracy/coverage/timeliness from the
 * raw events — an independent cross-check of the simulator's own
 * counters — and optionally converts the trace (plus a time-series
 * dump) to Chrome trace_event JSON for chrome://tracing or
 * ui.perfetto.dev.
 *
 * Query mode (--site / --window / --ev) prints the matching records
 * as JSONL instead of analyzing; on finalized traces with a window
 * lower bound the checkpoint directory seeks past the prefix instead
 * of decoding it. --jsonl renders the whole trace as JSONL, one line
 * per record; --summary-json writes the funnels and invariant
 * verdicts as one machine-readable document. Either path may be "-"
 * for stdout.
 *
 * Exit status: 0 for a consistent trace, 1 for parse errors,
 * invariant violations, truncated inputs, or unusable inputs.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/atomic_file.hh"
#include "obs/bintrace.hh"
#include "obs/chrome_trace.hh"
#include "obs/json_reader.hh"
#include "obs/json_writer.hh"
#include "obs/trace_reader.hh"
#include "sim/logging.hh"

using namespace grp;

namespace
{

void
usage()
{
    std::printf(
        "usage: grptrace TRACE [--chrome OUT.trace.json]\n"
        "                [--timeseries TS.json] [--top N] [--quiet]\n"
        "                [--site N] [--window A:B] [--ev NAME]\n"
        "                [--no-index] [--jsonl PATH]\n"
        "                [--summary-json PATH]\n"
        "  TRACE              .grpbin trace; '-' reads stdin\n"
        "  --chrome PATH      convert to Chrome trace_event JSON\n"
        "  --timeseries PATH  merge a grp-timeseries-v1 dump into the\n"
        "                     Chrome export as counter tracks\n"
        "  --top N            rows in the per-site table (default 10)\n"
        "  --quiet            only report violations\n"
        "  --site N           query: records attributed to site N\n"
        "                     (-1 selects unattributed records)\n"
        "  --window A:B       query: records with A <= tick <= B\n"
        "                     (either bound may be empty)\n"
        "  --ev NAME          query: records of one event type\n"
        "  --no-index         query: full scan, ignore checkpoints\n"
        "  --jsonl PATH       render the trace as JSONL ('-' stdout)\n"
        "  --summary-json PATH  machine-readable funnels + verdicts\n"
        "                     ('-' stdout)\n");
}

void
printFunnelRow(std::FILE *out, const char *label,
               const obs::FunnelStats &f)
{
    const uint64_t p90 =
        f.fillToUse.samples() ? f.fillToUse.percentile(90.0) : 0;
    std::fprintf(out,
                 "%-12s %8llu %8llu %7llu %7llu %8llu %8llu %7llu "
                 "%7llu %6.1f %8llu %7llu\n",
                 label, (unsigned long long)f.triggers,
                 (unsigned long long)f.enqueued,
                 (unsigned long long)f.dropped,
                 (unsigned long long)f.filtered,
                 (unsigned long long)f.issued,
                 (unsigned long long)f.fills,
                 (unsigned long long)f.useful,
                 (unsigned long long)f.evictedUnused,
                 100.0 * f.accuracy(), (unsigned long long)p90,
                 (unsigned long long)f.pollutionMisses);
}

void
printFunnelHeader(std::FILE *out, const char *key)
{
    std::fprintf(out,
                 "%-12s %8s %8s %7s %7s %8s %8s %7s %7s %6s %8s %7s\n",
                 key, "triggers", "enq", "drop", "filt", "issued",
                 "fills", "useful", "evict", "acc%", "p90lat",
                 "pollut");
}

/** Slurp the whole input ('-' is stdin); false on open failure. */
bool
slurp(const std::string &path, std::string &out)
{
    if (path == "-") {
        std::ostringstream text;
        text << std::cin.rdbuf();
        out = text.str();
        return true;
    }
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream text;
    text << is.rdbuf();
    out = text.str();
    return true;
}

void
writeFunnelJson(obs::JsonWriter &json, const obs::FunnelStats &f)
{
    json.beginObject();
    json.kv("triggers", f.triggers);
    json.kv("enqueued", f.enqueued);
    json.kv("dropped", f.dropped);
    json.kv("filtered", f.filtered);
    json.kv("issued", f.issued);
    json.kv("fills", f.fills);
    json.kv("useful", f.useful);
    json.kv("evictedUnused", f.evictedUnused);
    json.kv("warmFills", f.warmFills);
    json.kv("warmUseful", f.warmUseful);
    json.kv("pollutionMisses", f.pollutionMisses);
    json.kv("accuracy", f.accuracy());
    json.kv("fillToUseSamples", f.fillToUse.samples());
    if (f.fillToUse.samples())
        json.kv("fillToUseP90", f.fillToUse.percentile(90.0));
    json.endObject();
}

/** The --summary-json document: everything a CI gate needs to pass
 *  or fail a trace without parsing human-oriented stdout. */
void
writeSummaryJson(std::ostream &os, const std::string &input,
                 const obs::TraceParseResult &parsed,
                 const obs::TraceAnalysis &analysis, bool ok)
{
    obs::JsonWriter json(os);
    json.beginObject();
    json.kv("schema", "grp-trace-summary-v1");
    json.key("input");
    json.beginObject();
    json.kv("path", input);
    json.kv("truncated", parsed.truncated);
    json.kv("parseErrors", (uint64_t)parsed.errors.size());
    json.endObject();
    json.kv("records", analysis.records);
    json.kv("warmupRecords", analysis.warmupRecords);
    json.kv("liveAtEnd", analysis.liveAtEnd);
    json.kv("inFlightAtEnd", analysis.inFlightAtEnd);
    json.kv("coverageChecked", analysis.coverageChecked);
    json.kv("pollutionChecked", analysis.pollutionChecked);
    json.kv("controllerTransitions", analysis.controllerTransitions);
    json.kv("violationCount", (uint64_t)analysis.violations.size());
    json.key("violations");
    json.beginArray();
    size_t listed = 0;
    for (const obs::InvariantViolation &v : analysis.violations) {
        if (listed++ == 50) // Bound the artefact on broken traces.
            break;
        json.beginObject();
        json.kv("record", (uint64_t)v.line);
        json.kv("message", v.message);
        json.endObject();
    }
    json.endArray();
    json.key("byClass");
    json.beginObject();
    for (const auto &[hint, funnel] : analysis.byClass) {
        json.key(hint == obs::HintClass::None ? "unattributed"
                                              : obs::toString(hint));
        writeFunnelJson(json, funnel);
    }
    json.endObject();
    json.key("bySite");
    json.beginObject();
    for (const auto &[site, funnel] : analysis.bySite) {
        json.key(std::to_string(site));
        writeFunnelJson(json, funnel);
    }
    json.endObject();
    json.kv("ok", ok);
    json.endObject();
    os << "\n";
}

/** Parse the --window A:B bounds (either side may be empty). */
void
parseWindow(const std::string &spec, obs::bintrace::QueryFilter &filter)
{
    const size_t colon = spec.find(':');
    fatal_if(colon == std::string::npos,
             "--window wants A:B, got '%s'", spec.c_str());
    const std::string from = spec.substr(0, colon);
    const std::string to = spec.substr(colon + 1);
    if (!from.empty())
        filter.fromTick = std::strtoull(from.c_str(), nullptr, 0);
    if (!to.empty())
        filter.toTick = std::strtoull(to.c_str(), nullptr, 0);
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string trace_path;
    std::string chrome_path;
    std::string timeseries_path;
    std::string jsonl_path;
    std::string summary_path;
    obs::bintrace::QueryFilter filter;
    bool query_mode = false;
    bool use_index = true;
    size_t top = 10;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string inline_value;
        bool has_inline = false;
        if (const size_t eq = arg.find('='); eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_inline = true;
        }
        auto value = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc) {
                usage();
                fatal("%s needs a value", arg.c_str());
            }
            return argv[++i];
        };
        if (arg == "--chrome") {
            chrome_path = value();
        } else if (arg == "--timeseries") {
            timeseries_path = value();
        } else if (arg == "--top") {
            top = std::strtoull(value().c_str(), nullptr, 0);
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--site") {
            filter.site = std::strtoll(value().c_str(), nullptr, 0);
            query_mode = true;
        } else if (arg == "--window") {
            parseWindow(value(), filter);
            query_mode = true;
        } else if (arg == "--ev") {
            const std::string name = value();
            const auto event = obs::parseTraceEvent(name);
            if (!event)
                fatal("unknown event '%s'", name.c_str());
            filter.event = *event;
            query_mode = true;
        } else if (arg == "--no-index") {
            use_index = false;
        } else if (arg == "--jsonl") {
            jsonl_path = value();
        } else if (arg == "--summary-json") {
            summary_path = value();
        } else if (arg == "--help") {
            usage();
            return 0;
        } else if (arg == "-" && trace_path.empty()) {
            trace_path = arg;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            return 1;
        } else if (trace_path.empty()) {
            trace_path = arg;
        } else {
            usage();
            return 1;
        }
    }
    if (trace_path.empty()) {
        usage();
        return 1;
    }

    std::string data;
    if (!slurp(trace_path, data)) {
        std::fprintf(stderr, "grptrace: cannot open '%s'\n",
                     trace_path.c_str());
        return 1;
    }

    // Query mode prints matching records as JSONL and skips the
    // analysis; a finalized input with a window lower bound seeks via
    // the checkpoint directory instead of scanning.
    if (query_mode) {
        const obs::bintrace::QueryResult result =
            obs::bintrace::query(data, filter, use_index);
        for (const obs::TraceLine &line : result.lines)
            std::fputs(obs::jsonlLine(line).c_str(), stdout);
        for (const std::string &error : result.errors)
            std::fprintf(stderr, "grptrace: %s: %s\n",
                         trace_path.c_str(), error.c_str());
        std::fprintf(stderr,
                     "grptrace: matched %zu of %llu records scanned"
                     "%s\n",
                     result.lines.size(),
                     (unsigned long long)result.recordsScanned,
                     result.seeked ? " (seeked via checkpoint index)"
                                   : "");
        return result.errors.empty() && !result.truncated ? 0 : 1;
    }

    const obs::TraceParseResult parsed =
        obs::bintrace::readLifecycle(data);
    for (const std::string &error : parsed.errors)
        std::fprintf(stderr, "grptrace: %s: %s\n", trace_path.c_str(),
                     error.c_str());
    // Input that is not a lifecycle .grpbin decodes to one error and
    // nothing to analyze.
    if (parsed.lines.empty() && !parsed.errors.empty() &&
        !parsed.truncated)
        return 1;

    const obs::TraceAnalysis analysis =
        obs::analyzeTrace(parsed.lines);

    for (const obs::InvariantViolation &v : analysis.violations)
        std::fprintf(stderr, "grptrace: invariant: record %zu: %s\n",
                     v.line, v.message.c_str());

    const bool ok = parsed.errors.empty() &&
                    analysis.violations.empty() && !parsed.truncated;

    if (!jsonl_path.empty()) {
        const auto emit = [&parsed](std::ostream &os) {
            for (const obs::TraceLine &line : parsed.lines)
                os << obs::jsonlLine(line);
        };
        if (jsonl_path == "-") {
            emit(std::cout);
        } else if (!obs::atomicWriteFile(jsonl_path, emit,
                                         "JSONL conversion")) {
            return 1;
        }
    }

    if (!summary_path.empty()) {
        const auto emit = [&](std::ostream &os) {
            writeSummaryJson(os, trace_path, parsed, analysis, ok);
        };
        if (summary_path == "-") {
            emit(std::cout);
        } else if (!obs::atomicWriteFile(summary_path, emit,
                                         "trace summary")) {
            return 1;
        }
    }

    // With JSONL or the summary on stdout, the human report moves to
    // stderr so `grptrace T --jsonl - | jq` sees only the document.
    std::FILE *const out =
        jsonl_path == "-" || summary_path == "-" ? stderr : stdout;
    if (!quiet) {
        std::fprintf(out,
                     "%s: %llu records (%llu warmup-era), "
                     "%zu parse errors, %zu violations\n",
                     trace_path.c_str(),
                     (unsigned long long)analysis.records,
                     (unsigned long long)analysis.warmupRecords,
                     parsed.errors.size(), analysis.violations.size());
        std::fprintf(out,
                     "end of trace: %llu blocks resident unused, "
                     "%llu issues in flight%s\n",
                     (unsigned long long)analysis.liveAtEnd,
                     (unsigned long long)analysis.inFlightAtEnd,
                     analysis.coverageChecked
                         ? ""
                         : " (no enqueue events: issue coverage "
                           "not checked)");
        if (analysis.controllerTransitions)
            std::fprintf(out,
                         "adaptive controller: %llu knob "
                         "transitions\n",
                         (unsigned long long)
                             analysis.controllerTransitions);

        std::fprintf(out, "\nper hint class (measured window):\n");
        printFunnelHeader(out, "class");
        for (const auto &[hint, funnel] : analysis.byClass)
            printFunnelRow(out,
                           hint == obs::HintClass::None
                               ? "unattributed"
                               : obs::toString(hint),
                           funnel);

        std::fprintf(out,
                     "\nper site (top %zu by evicted-unused fills):\n",
                     top);
        printFunnelHeader(out, "site");
        std::vector<const std::pair<const int64_t,
                                    obs::FunnelStats> *> ranked;
        for (const auto &entry : analysis.bySite)
            ranked.push_back(&entry);
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto *a, const auto *b) {
                             if (a->second.evictedUnused !=
                                 b->second.evictedUnused)
                                 return a->second.evictedUnused >
                                        b->second.evictedUnused;
                             return a->second.accuracy() <
                                    b->second.accuracy();
                         });
        size_t shown = 0;
        for (const auto *entry : ranked) {
            if (shown++ >= top)
                break;
            char label[32];
            std::snprintf(label, sizeof label, "%lld",
                          (long long)entry->first);
            printFunnelRow(out, label, entry->second);
        }
    }

    if (!chrome_path.empty()) {
        std::unique_ptr<obs::JsonValue> timeseries;
        if (!timeseries_path.empty()) {
            std::ifstream ts(timeseries_path);
            if (!ts)
                fatal("cannot open time series '%s'",
                      timeseries_path.c_str());
            std::ostringstream text;
            text << ts.rdbuf();
            std::string error;
            timeseries = obs::parseJson(text.str(), &error);
            if (!timeseries)
                fatal("bad time series '%s': %s",
                      timeseries_path.c_str(), error.c_str());
        }
        if (!obs::writeChromeTraceFile(chrome_path, parsed.lines,
                                       timeseries.get()))
            fatal("cannot write '%s'", chrome_path.c_str());

        // Self-check: the export must itself be one valid JSON
        // document with a traceEvents array.
        std::ifstream back(chrome_path);
        std::ostringstream text;
        text << back.rdbuf();
        std::string error;
        auto doc = obs::parseJson(text.str(), &error);
        if (!doc || !doc->isObject() || !doc->find("traceEvents") ||
            !doc->find("traceEvents")->isArray()) {
            fatal("chrome export failed self-validation: %s",
                  error.empty() ? "missing traceEvents" : error.c_str());
        }
        if (!quiet)
            std::fprintf(out, "\nchrome trace: %s (%zu events)\n",
                         chrome_path.c_str(),
                         doc->find("traceEvents")->asArray().size());
    }

    return ok ? 0 : 1;
} catch (const std::exception &) {
    // fatal() already printed the message with its location.
    return 1;
}
