/**
 * @file
 * The benchmark's span recorder.  Spans are taken from outside the
 * program, around calls into each layer's public functions; the
 * program's own telemetry::Collector is never attached to anything.
 * Spans live in memory and are written as a Chrome trace_event JSON
 * when the run ends.
 */

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct SpanRecord
{
    std::string layer;        ///< module: mesh, partition, ..., bench
    std::string name;         ///< the call, e.g. "generateMesh"
    std::int64_t startNs = 0; ///< relative to the tracer's origin
    std::int64_t endNs = 0;
    std::int64_t id = 0;      ///< 1-based
    std::int64_t parent = 0;  ///< 0 = root
    std::int64_t group = 0;   ///< one solve or one request; 0 = none
    int tid = 0;              ///< small per-thread index

    double
    seconds() const
    {
        return 1e-9 * static_cast<double>(endNs - startNs);
    }
};

/**
 * Thread-safe span recorder.  A null Tracer* everywhere means "not
 * tracing": Scope then records nothing and reads no clock.
 */
class Tracer
{
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** A fresh group id for one solve or one request. */
    std::int64_t newGroup();

    /**
     * One span, open from construction to end() or destruction.  Its
     * parent is the innermost open Scope on the same thread, or
     * `parent` when given (for spans opened on another thread); its
     * group is `group`, else the parent's.
     */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *layer, const char *name,
              std::int64_t group = 0, std::int64_t parent = -1);
        ~Scope() { end(); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        void end();
        std::int64_t id() const { return id_; }

      private:
        Tracer *tracer_;
        std::int64_t id_ = 0;
        bool open_ = false;
    };

    /** Copy of every closed span, in id order. */
    std::vector<SpanRecord> spans() const;

    /** Write the spans as Chrome trace_event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::int64_t open(const char *layer, const char *name,
                      std::int64_t group, std::int64_t parent);
    void close(std::int64_t id);

    const std::int64_t origin_ns_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_; ///< index id-1, guarded by mu_
    std::vector<bool> closed_;      ///< guarded by mu_
    std::int64_t groups_ = 0;       ///< guarded by mu_
};

/**
 * Union length, in seconds, of the parts of [begin, end) that the given
 * intervals cover.
 */
double coveredSeconds(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t begin, std::int64_t end);

/**
 * Self time per layer: each span's duration minus the part of it its
 * child spans cover, summed by layer.
 */
std::map<std::string, double> selfSecondsByLayer(
    const std::vector<SpanRecord> &spans);

/**
 * How much of the spans named `parent_name` (layer "bench") is covered
 * by their non-bench descendants, in seconds: {covered, total}.
 */
std::pair<double, double> layerCoverage(const std::vector<SpanRecord> &spans,
                                        const std::string &parent_name);

} // namespace perfbench

#endif // PERFBENCH_TRACER_H_
