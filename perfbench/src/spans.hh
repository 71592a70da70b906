/**
 * @file
 * The benchmark's own span recorder. The traced pass wraps every call
 * it makes into a bsyn layer in a Span named "<layer>.<call>"; spans
 * carry a start, an end, the span that caused them and the id of the
 * instance (or round) they belong to. Spans stay in memory and are
 * written out as Chrome trace-event JSON when the run ends.
 *
 * A null recorder makes every Span a no-op, so the same code runs
 * traced and untraced.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** One finished span. Times are nanoseconds since the recorder began. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    int64_t group = -1;  ///< instance index, or -1 for run-level work
    std::string name;    ///< "<layer>.<call>"
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint32_t thread = 0;

    double seconds() const { return double(endNs - startNs) * 1e-9; }
};

/** Thread-safe in-memory span store. */
class SpanRecorder
{
  public:
    SpanRecorder();

    uint64_t nowNs() const;
    uint64_t nextId();
    void add(SpanRecord rec);

    /** Every finished span, in completion order. */
    std::vector<SpanRecord> spans() const;

    /** Drop every span recorded so far. */
    void clear();

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mtx_;
    std::vector<SpanRecord> spans_; // guarded by mtx_
    uint64_t nextId_ = 1;           // guarded by mtx_
};

/** RAII span; records on destruction. No-op with a null recorder. */
class Span
{
  public:
    Span(SpanRecorder *rec, const char *name, int64_t group,
         uint64_t parent = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when not recording) — the parent of calls
     *  made inside it. */
    uint64_t id() const { return rec_.id; }

  private:
    SpanRecorder *recorder_;
    SpanRecord rec_;
};

/** The layer a span belongs to: its name up to the first '.'. */
std::string layerOf(const std::string &name);

/**
 * Self time per layer in seconds: each span's duration minus the part
 * of its interval that its child spans cover (overlapping children are
 * counted once), summed over the layer's spans.
 */
std::map<std::string, double> selfSeconds(const std::vector<SpanRecord> &spans);

/** Summed duration of every span named exactly @p name, in seconds. */
double totalSeconds(const std::vector<SpanRecord> &spans,
                    const std::string &name);

/** Durations in seconds of every span named exactly @p name. */
std::vector<double> durations(const std::vector<SpanRecord> &spans,
                              const std::string &name);

/** Serialize as Chrome trace-event JSON ("ph":"X" complete events). */
std::string chromeTraceJson(const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
