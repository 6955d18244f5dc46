/**
 * @file
 * The distributed sweep service's result store: the shared
 * `<store>/results` directory, one RunResult file per cell, read and
 * written through the same ResultStore a local sweep uses
 * (sweep/result_store.hh).
 *
 * This is the layer under the job journal, and a served result's one
 * copy: a worker publishes the cell result (an atomic rename into
 * place, without fsync) *before* reporting completion, and the server
 * journals the cell only once the file loads.  A server killed between
 * a worker finishing and the journal append re-leases the cell — and
 * the re-leased run is satisfied from this store instead of
 * re-simulating.  A published file survives a process kill but not
 * necessarily a power loss; a journaled cell whose file then does not
 * load re-pends on resume.
 */

#ifndef FLYWHEEL_SERVE_STORE_HH
#define FLYWHEEL_SERVE_STORE_HH

#include "sweep/result_store.hh"

namespace flywheel::serve {

using flywheel::ResultStore;

} // namespace flywheel::serve

#endif // FLYWHEEL_SERVE_STORE_HH
