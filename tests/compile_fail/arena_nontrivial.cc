// Must not compile: the arena containers memcpy their elements on
// snapshot save, so each rejects an element type that is not trivially
// copyable.  The arena_rejects_nontrivial_types ctest compiles this
// file and passes only if both containers' static_assert messages
// appear in the compiler's output.

#include <string>

#include "common/arena.hh"

namespace {

struct Named
{
    std::string name;
};

static_assert(sizeof(flywheel::ArenaVector<Named>) > 0);
static_assert(sizeof(flywheel::ArenaRing<Named>) > 0);

} // namespace
