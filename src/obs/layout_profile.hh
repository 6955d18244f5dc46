/**
 * @file
 * Field-access layout profiler for the hot simulator structs.
 *
 * The per-cycle loops (issue-window wake-up and select,
 * issued-pending completion gate, LSQ disambiguation walk, Execution
 * Cache replay) spend their time chasing a handful of struct fields;
 * which fields are hot decides where they belong in the struct (first
 * cache line) and which belong in the cold tail.
 * FW_LAYOUT_TOUCH(Struct, field) marks a field read/write at a hot
 * site; with the default build it compiles to nothing, and under
 * -DFLYWHEEL_PROFILE_LAYOUT (CMake option FLYWHEEL_PROFILE_LAYOUT)
 * every site keeps a relaxed atomic counter that
 * layoutProfileReport() aggregates into a "flywheel.layout.v1" JSON
 * document:
 *
 *     cmake -B build-layout -S . -DFLYWHEEL_PROFILE_LAYOUT=ON
 *     build-layout/flywheel_perf --layout-report layout.json
 *
 * The checked-in field orders of InFlightInst, Lsq::Entry and
 * TraceSlot were chosen from this report (hot fields first, cold
 * stats/debug last); re-run it after adding fields to a hot struct.
 */

#ifndef FLYWHEEL_OBS_LAYOUT_PROFILE_HH
#define FLYWHEEL_OBS_LAYOUT_PROFILE_HH

#include <atomic>
#include <cstdint>

#include "common/json.hh"

namespace flywheel::obs {

/**
 * One call site's access counter.  Sites self-register on first
 * execution (function-local static) into a global intrusive list, so
 * the report covers exactly the sites the profiled run reached.
 */
class LayoutCounter
{
  public:
    LayoutCounter(const char *strct, const char *field);

    void bump() { count_.fetch_add(1, std::memory_order_relaxed); }

    const char *structName() const { return struct_; }
    const char *fieldName() const { return field_; }

    std::uint64_t
    value() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    void reset() { count_.store(0, std::memory_order_relaxed); }

    LayoutCounter *next() const { return next_; }

  private:
    const char *struct_;
    const char *field_;
    std::atomic<std::uint64_t> count_{0};
    LayoutCounter *next_ = nullptr;
};

/** True when the build carries -DFLYWHEEL_PROFILE_LAYOUT. */
constexpr bool
layoutProfileEnabled()
{
#if defined(FLYWHEEL_PROFILE_LAYOUT)
    return true;
#else
    return false;
#endif
}

/**
 * Aggregate every registered counter into a "flywheel.layout.v1"
 * document: structs ordered by total touches (descending), each with
 * its fields ordered the same way.  In a non-profiling build the
 * document is well-formed with "enabled": false and no structs.
 */
Json layoutProfileReport();

/** Zero every registered counter (profiling several runs in-process). */
void layoutProfileReset();

} // namespace flywheel::obs

#if defined(FLYWHEEL_PROFILE_LAYOUT)
#define FW_LAYOUT_TOUCH(strct, field)                                   \
    do {                                                                \
        static ::flywheel::obs::LayoutCounter fw_layout_counter_(       \
            #strct, #field);                                            \
        fw_layout_counter_.bump();                                      \
    } while (0)
#else
#define FW_LAYOUT_TOUCH(strct, field)                                   \
    do {                                                                \
    } while (0)
#endif

#endif // FLYWHEEL_OBS_LAYOUT_PROFILE_HH
