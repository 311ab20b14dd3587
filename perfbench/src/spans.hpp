/**
 * @file
 * In-memory wall-clock span recorder of the benchmark's traced run.
 * Spans wrap the benchmark's own calls into each library layer: name,
 * start, end, parent and the run id shared by one workload run. They
 * stay in memory while the run measures and are written out once at
 * the end (writeJson). A disabled recorder records nothing, so the
 * untraced run pays one branch per would-be span.
 */

#ifndef VBB_SPANS_HPP
#define VBB_SPANS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vbb {

/** Monotonic wall clock in nanoseconds (std::chrono::steady_clock). */
std::int64_t nowNs();

/** Process CPU time (all threads) in nanoseconds. */
std::int64_t cpuNs();

/** One closed (or still open: endNs < 0) span. */
struct Span
{
    /** Static string literal naming the layer call. */
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = -1;
    /** Index of the enclosing span, -1 for a root. */
    int parent = -1;
};

/** Per-name totals over a set of spans. */
struct LayerTime
{
    /** Sum of span durations. */
    double totalS = 0.0;
    /** Sum of durations minus the time direct children cover. */
    double selfS = 0.0;
    std::uint64_t count = 0;
};

/** Single-threaded span stack: begin/end must nest. */
class SpanRecorder
{
  public:
    SpanRecorder(bool enabled, std::uint64_t run_id);

    std::uint64_t runId() const { return runId_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(const char *name);
    /** Close span `id` (must be the innermost open span). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Totals per span name over spans [from, to). */
    std::map<std::string, LayerTime> totals(std::size_t from,
                                            std::size_t to) const;

    /** Share of span `id` covered by its direct children. */
    double coverage(int id) const;

    /**
     * Write the spans as JSON. Spans with children are listed one by
     * one with their index; leaf spans are grouped per (parent, name)
     * into one record with count, first start, last end and summed
     * duration, which keeps per-word spans from bloating the file.
     */
    void writeJson(const std::string &path,
                   const std::string &workload) const;

  private:
    bool enabled_;
    std::uint64_t runId_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op on a disabled recorder. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name)
        : rec_(rec), id_(rec.begin(name))
    {
    }
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace vbb

#endif // VBB_SPANS_HPP
