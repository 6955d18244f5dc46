/**
 * @file
 * Pipeline event tracer: a per-run, category-masked, bounded
 * ring-buffer of simulation events, exported as Chrome trace-event
 * JSON (load the file in Perfetto or chrome://tracing).
 *
 * Hot-path contract: a core holds a plain `Tracer *` that is null
 * when tracing is off, so the disabled path is one pointer compare
 * per would-be event.  When enabled, emit() is a mask test plus a
 * ring-slot store — no allocation, no locking, no formatting.  Event
 * names must be string literals (the tracer stores the pointer).
 *
 * The ring is bounded (capacity fixed at construction); when full,
 * the oldest events are overwritten and `dropped()` counts how many
 * were lost, so a trace of a long run keeps its *tail* — usually the
 * region of interest — at a fixed memory cost.
 *
 * TraceSink collects the tracers of a multi-run session (one per
 * sweep cell) under a mutex and writes one Chrome JSON document, one
 * trace "thread" per run.
 */

#ifndef FLYWHEEL_OBS_TRACE_HH
#define FLYWHEEL_OBS_TRACE_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace flywheel::obs {

/** Schema tag embedded in exported trace documents. */
inline constexpr const char *kTraceSchema = "flywheel.trace.v1";

/**
 * Event categories, one bit each, combined into an enable mask.
 * The names (traceCatName) are what `--trace-cats` parses and what
 * the Chrome export writes in the "cat" field.
 */
enum class TraceCat : std::uint32_t {
    Fetch     = 1u << 0,  ///< instruction fetch groups
    Issue     = 1u << 1,  ///< issue groups leaving the window
    Complete  = 1u << 2,  ///< completions writing back
    Retire    = 1u << 3,  ///< retire groups
    EcMode    = 1u << 4,  ///< Execution Cache mode entry/exit
    Replay    = 1u << 5,  ///< EC replay start/finish
    Squash    = 1u << 6,  ///< divergence squashes
    CacheMiss = 1u << 7,  ///< icache/dcache/l2 misses
    ClockPlan = 1u << 8,  ///< clock-plan / redistribution edges
};

inline constexpr std::uint32_t kTraceCatAll = (1u << 9) - 1;

/** Canonical lowercase name of one category bit. */
const char *traceCatName(TraceCat cat);

/**
 * Parse a comma-separated category list ("retire,ecmode" or "all")
 * into a mask.  Returns false on an unknown name (mask untouched).
 */
bool parseTraceCats(const std::string &list, std::uint32_t *mask);

/** Human-readable list of every category name, for usage text. */
std::string traceCatUsageList();

/**
 * One recorded event.  `name` must point at a string literal.  For
 * duration events `dur` is the span in ticks; `dur == 0` records an
 * instant.  a0/a1 are free-form numeric arguments (exported as
 * "args": their meaning is per-event, e.g. instruction count or
 * trace id).
 */
struct TraceEvent
{
    Tick ts = 0;
    Tick dur = 0;
    const char *name = nullptr;
    TraceCat cat = TraceCat::Fetch;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
};

/** Bounded single-run event recorder (not thread-safe by design). */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t(1)
                                                    << 16;

    explicit Tracer(std::uint32_t mask = kTraceCatAll,
                    std::size_t capacity = kDefaultCapacity);

    bool wants(TraceCat cat) const
    {
        return (mask_ & std::uint32_t(cat)) != 0;
    }
    std::uint32_t mask() const { return mask_; }

    /** Record an instant event (if the category is enabled). */
    void
    instant(TraceCat cat, const char *name, Tick ts,
            std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        if (!wants(cat))
            return;
        record({ts, 0, name, cat, a0, a1});
    }

    /** Record a duration event spanning [ts, ts + dur). */
    void
    span(TraceCat cat, const char *name, Tick ts, Tick dur,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        if (!wants(cat))
            return;
        record({ts, dur, name, cat, a0, a1});
    }

    /** Events currently held, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    std::size_t size() const
    {
        return wrapped_ ? capacity_ : ring_.size();
    }
    std::size_t capacity() const { return capacity_; }
    std::uint64_t recorded() const { return recorded_; }
    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const
    {
        return recorded_ - std::uint64_t(size());
    }

  private:
    void
    record(TraceEvent e)
    {
        ++recorded_;
        if (ring_.size() < capacity_) {
            ring_.push_back(e);
            return;
        }
        ring_[head_] = e;
        head_ = (head_ + 1) % capacity_;
        wrapped_ = true;
    }

    std::uint32_t mask_;
    // capacity_ is the exact ring bound (vector::reserve may
    // over-allocate, and the kept-event window must be deterministic
    // for golden traces).
    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    bool wrapped_ = false;
    std::uint64_t recorded_ = 0;
};

/**
 * Thread-safe collector of per-run tracers for one Chrome trace
 * document.  Sweep workers add() their finished tracer's events under
 * the run's label; every add() is its own thread.  writeChrome()
 * orders threads by label, so the output is the same for any worker
 * completion order as long as runs that share a label recorded the
 * same events (the sweep engine names a cell after its config), and
 * emits `{"schema": .., "traceEvents": [..]}`.
 */
class TraceSink
{
  public:
    TraceSink() = default;

    /** Record @p tracer's current events as a new run @p label. */
    void add(const std::string &label, const Tracer &tracer);

    /** Runs added so far. */
    std::size_t runCount() const;
    /** Total events held across runs. */
    std::size_t eventCount() const;
    /** Total events lost to ring wrap across runs. */
    std::uint64_t droppedTotal() const;

    /** Serialize as a Chrome trace-event JSON document. */
    Json toChromeJson() const;
    void writeChrome(std::ostream &os) const;

  private:
    struct Run
    {
        std::string label;
        std::vector<TraceEvent> events;
        std::uint64_t dropped = 0;
    };

    mutable std::mutex mutex_;
    std::vector<Run> runs_;
};

/**
 * Validate a document produced by TraceSink::writeChrome (schema tag
 * plus Chrome trace-event structural rules on every event).
 */
bool validateTraceJson(const Json &doc, std::string *error = nullptr);

} // namespace flywheel::obs

#endif // FLYWHEEL_OBS_TRACE_HH
