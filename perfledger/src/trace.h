/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is (name, start, end, parent, id): the benchmark opens one
 * around each call it makes into a layer's public functions, nested
 * spans on one thread record their parent, and every span of one
 * request, search or query carries that operation's id. Spans stay in
 * per-thread buffers until the run ends; then they are summarized
 * (count, mean duration, mean self time = duration minus the time its
 * child spans cover) and written out as one tab-separated file.
 */

#ifndef PERFLEDGER_TRACE_H
#define PERFLEDGER_TRACE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfledger {

struct Span
{
    const char *name = "";
    uint64_t id = 0;
    int64_t parent = -1; ///< index in the same thread's buffer
    Clock::time_point start{};
    Clock::time_point end{};
};

/** One thread's span buffer; only its owning thread touches it. */
class ThreadTrace
{
  public:
    /** Open a span; returns its index for close(). */
    size_t open(const char *name, uint64_t id)
    {
        Span span;
        span.name = name;
        span.id = id;
        span.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
        span.start = Clock::now();
        spans_.push_back(span);
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void close(size_t index)
    {
        spans_[index].end = Clock::now();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** RAII span; a null trace records nothing (the untraced run). */
class SpanScope
{
  public:
    SpanScope(ThreadTrace *trace, const char *name, uint64_t id = 0)
        : trace_(trace), index_(trace ? trace->open(name, id) : 0)
    {}
    ~SpanScope()
    {
        if (trace_)
            trace_->close(index_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    ThreadTrace *trace_;
    size_t index_;
};

/** Per-name aggregate over every closed span. */
struct SpanSummary
{
    int64_t count = 0;
    double totalMicros = 0.0;
    double selfMicros = 0.0;

    double meanMicros() const { return count ? totalMicros / count : 0.0; }
    double meanSelfMicros() const { return count ? selfMicros / count : 0.0; }
};

/** Owner of every thread's buffer for one traced run. */
class Tracer
{
  public:
    /** A buffer for the calling thread (thread-safe). */
    ThreadTrace *thread();

    /** Aggregate by span name, self time included. */
    std::map<std::string, SpanSummary> summarize() const;

    /** Write every span as `thread id name parent start_ns end_ns`
     * (times relative to the earliest span). */
    void write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

} // namespace perfledger

#endif // PERFLEDGER_TRACE_H
