/**
 * @file
 * The traced run's span log: one record per timed call into a layer,
 * kept in memory and written out as JSON lines when the run ends.
 *
 * A span carries its name, start and end (nanoseconds since the log
 * was created), the span that caused it, and the id of the job (or
 * layer probe) it belongs to, so every span of one job shares that
 * id. Hot-loop layers that have no entry point outside runWorkload()
 * are recorded as phase records instead: the host profiler's self
 * time and call count for that phase inside one job.
 */

#ifndef GRPBENCH_SPANS_HH
#define GRPBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_writer.hh"

namespace grpbench
{

/** One timed call into a layer. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a root span.
    uint64_t job = 0;    ///< Shared by every span of one job or probe.
    std::string name;    ///< "<layer>.<call>", e.g. "compiler.hints".
    std::string label;   ///< Kernel or job label ("mcf/srp").
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** Host-profiler totals of one phase inside one job. */
struct PhaseRecord
{
    uint64_t job = 0;
    std::string phase; ///< Host-profiler phase name ("cpuTick").
    uint64_t selfNs = 0;
    uint64_t totalNs = 0;
    uint64_t calls = 0;
};

/** Thread-safe, in-memory span store. */
class SpanLog
{
  public:
    SpanLog() : t0_(std::chrono::steady_clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** A fresh span or job id (never 0). */
    uint64_t newId() { return next_.fetch_add(1); }

    /** Nanoseconds since the log was created. */
    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

    void
    add(Span span)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(span));
    }

    void
    addPhase(PhaseRecord record)
    {
        std::lock_guard<std::mutex> lock(mu_);
        phases_.push_back(std::move(record));
    }

    size_t
    spanCount() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_.size();
    }

    /** One JSON object per line: spans ("type":"span") first, then
     *  phase records ("type":"phase"). */
    void
    write(std::ostream &os) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const Span &s : spans_) {
            grp::obs::JsonWriter json(os, false);
            json.beginObject();
            json.kv("type", "span");
            json.kv("id", s.id);
            json.kv("parent", s.parent);
            json.kv("job", s.job);
            json.kv("name", s.name);
            json.kv("label", s.label);
            json.kv("start_ns", s.startNs);
            json.kv("end_ns", s.endNs);
            json.endObject();
            os << '\n';
        }
        for (const PhaseRecord &p : phases_) {
            grp::obs::JsonWriter json(os, false);
            json.beginObject();
            json.kv("type", "phase");
            json.kv("job", p.job);
            json.kv("phase", p.phase);
            json.kv("self_ns", p.selfNs);
            json.kv("total_ns", p.totalNs);
            json.kv("calls", p.calls);
            json.endObject();
            os << '\n';
        }
    }

  private:
    const std::chrono::steady_clock::time_point t0_;
    std::atomic<uint64_t> next_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<PhaseRecord> phases_;
};

/** Times the enclosing block as one span; a null log records
 *  nothing, which is how untraced passes run the same code. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string name, uint64_t parent,
               uint64_t job, std::string label = {})
        : log_(log)
    {
        if (!log_)
            return;
        span_.id = log_->newId();
        span_.parent = parent;
        span_.job = job;
        span_.name = std::move(name);
        span_.label = std::move(label);
        span_.startNs = log_->nowNs();
    }

    ~ScopedSpan()
    {
        if (!log_)
            return;
        span_.endNs = log_->nowNs();
        log_->add(std::move(span_));
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id, for children (0 when not recording). */
    uint64_t id() const { return span_.id; }

  private:
    SpanLog *log_;
    Span span_;
};

} // namespace grpbench

#endif // GRPBENCH_SPANS_HH
