#ifndef FLYWHEEL_FIXTURE_ARENA_BAD_HH
#define FLYWHEEL_FIXTURE_ARENA_BAD_HH

namespace flywheel {

struct Record
{
    unsigned long seq = 0;
    double weight = 1.0;
};

class BadArena
{
    ArenaVector<Record> records_;  ///< no is_trivially_copyable assert
};

} // namespace flywheel

#endif // FLYWHEEL_FIXTURE_ARENA_BAD_HH
