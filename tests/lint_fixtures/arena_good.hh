#ifndef FLYWHEEL_FIXTURE_ARENA_GOOD_HH
#define FLYWHEEL_FIXTURE_ARENA_GOOD_HH

namespace flywheel {

using Tick = std::uint64_t;

struct Slot
{
    unsigned long seq = 0;
    bool live = false;
};

static_assert(std::is_trivially_copyable_v<Slot>,
              "arena containers memcpy entries on snapshot save");

class GoodArena
{
    ArenaVector<Slot> slots_;
    ArenaRing<Tick> ticks_;        ///< alias of a builtin: no assert needed
    ArenaVector<Slot *> cursor_;   ///< pointers are trivially copyable
};

} // namespace flywheel

#endif // FLYWHEEL_FIXTURE_ARENA_GOOD_HH
