#include "trace.h"

#include <fstream>

namespace perfledger {

ThreadTrace *
Tracer::thread()
{
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<ThreadTrace>());
    return threads_.back().get();
}

std::map<std::string, SpanSummary>
Tracer::summarize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, SpanSummary> summary;
    for (const auto &thread : threads_) {
        const std::vector<Span> &spans = thread->spans();
        std::vector<double> childMicros(spans.size(), 0.0);
        for (size_t i = 0; i < spans.size(); ++i)
            if (spans[i].parent >= 0)
                childMicros[static_cast<size_t>(spans[i].parent)] +=
                    microsBetween(spans[i].start, spans[i].end);
        for (size_t i = 0; i < spans.size(); ++i) {
            double micros = microsBetween(spans[i].start, spans[i].end);
            SpanSummary &entry = summary[spans[i].name];
            ++entry.count;
            entry.totalMicros += micros;
            entry.selfMicros += micros - childMicros[i];
        }
    }
    return summary;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Clock::time_point origin = Clock::time_point::max();
    for (const auto &thread : threads_)
        for (const Span &span : thread->spans())
            origin = std::min(origin, span.start);
    std::ofstream out(path);
    out << "thread\tid\tname\tparent\tstart_ns\tend_ns\n";
    auto ns = [origin](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count();
    };
    for (size_t t = 0; t < threads_.size(); ++t)
        for (const Span &span : threads_[t]->spans())
            out << t << '\t' << span.id << '\t' << span.name << '\t'
                << span.parent << '\t' << ns(span.start) << '\t'
                << ns(span.end) << '\n';
}

} // namespace perfledger
