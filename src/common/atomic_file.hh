/**
 * @file
 * Atomic whole-file replacement.
 *
 * Both on-disk stores that sweep processes share (the ResultStore's
 * per-key result files and the Checkpointer's snapshot blobs) are
 * published with write-to-temp + rename(2).  The temp name must be
 * unique per process *and* per call: several workers cold-starting
 * the same key concurrently with a fixed ".tmp" suffix would
 * interleave writes in one temp file and rename a torn hybrid into
 * place.
 */

#ifndef FLYWHEEL_COMMON_ATOMIC_FILE_HH
#define FLYWHEEL_COMMON_ATOMIC_FILE_HH

#include <string>

namespace flywheel {

/**
 * Atomically replace @p path with @p bytes: the content is written
 * to a unique temp file in the same directory and rename(2)d over
 * @p path, so a reader either sees the old file or the new one,
 * never a prefix.  False + *error on IO failure (the temp file is
 * unlinked).
 */
bool atomicWriteFile(const std::string &path, const std::string &bytes,
                     std::string *error = nullptr);

/**
 * mkdir -p: create @p dir and every missing parent; true if @p dir
 * exists as a directory afterwards.  Shared by every on-disk store
 * (checkpoints, serve results, job journals) so a nested store path
 * never makes persists fail silently.
 */
bool makeDirectories(const std::string &dir);

} // namespace flywheel

#endif // FLYWHEEL_COMMON_ATOMIC_FILE_HH
