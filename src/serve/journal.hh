/**
 * @file
 * Durable job journal for the distributed sweep service — the
 * resumability invariant made a file.
 *
 * Each job keeps one newline-delimited JSON file `job-<id>.json` in
 * the shared store:
 *
 *   line 1    {"v": "flywheel.serve.journal.v1", "job": "<16 hex>",
 *              "cells": N, "spec": { ...resolved ExperimentSpec... }}
 *   line 2..  {"cell": i, "key": "<configKey>", "wall": seconds}
 *             {"cancelled": true}           (each time the job is cancelled)
 *   last      {"complete": true}            (only when the job finished)
 *
 * A cancelled job's journal stays: resubmitting the spec resumes it
 * from the cells it holds.
 *
 * Each record opens the file with O_APPEND, writes once, calls
 * fdatasync and closes it, so a `kill -9` of the server loses at most
 * the record being written — never corrupts earlier ones — and no
 * job, queued, running or finished, holds a descriptor.  Replay is
 * correspondingly tolerant: a torn or garbage tail line (the one a
 * dying process was mid-write on) is counted and ignored, while a
 * readable prefix always loads.  Replaying a journal plus the result
 * store reconstructs exactly which cells are done; everything else
 * re-leases, and determinism makes the rerun byte-identical.
 *
 * Versioning: the "v" tag is checked on open and load; a future
 * format change bumps the tag and old journals are rejected (the job
 * simply reruns — journals are caches of progress, not results).
 */

#ifndef FLYWHEEL_SERVE_JOURNAL_HH
#define FLYWHEEL_SERVE_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment.hh"

namespace flywheel::serve {

/** Journal format tag (line-1 "v" member). */
inline constexpr const char *kJournalSchema =
    "flywheel.serve.journal.v1";

/** One replayed completed-cell record. */
struct JournalEntry
{
    std::size_t cell = 0;
    std::string key;
    double wallSeconds = 0.0;
};

/** Everything a journal file says about a job. */
struct JournalState
{
    std::string jobId;
    std::uint64_t cells = 0;
    ExperimentSpec spec;
    std::vector<JournalEntry> entries;
    bool complete = false;
    /** A cancel marker is present (complete wins over it). */
    bool cancelled = false;
    /** Torn/garbage lines ignored during replay (0 on a clean file). */
    std::size_t ignoredLines = 0;

    /** Distinct completed cell indices (entries may repeat a cell). */
    std::size_t uniqueCompleted() const;
};

/** "<dir>/job-<id>.json" */
std::string journalPath(const std::string &dir,
                        const std::string &jobId);

/** "job-<id>.json" -> id; false if @p name is not a journal name. */
bool journalIdFromName(const std::string &name, std::string *id);

/**
 * Replay @p path.  False + *error only when the file is missing,
 * unreadable, or its header line is unusable (bad JSON, wrong
 * version, wrong shape); damage *after* the header is tolerated and
 * reported via JournalState::ignoredLines.
 */
bool journalLoad(const std::string &path, JournalState *out,
                 std::string *error);

/**
 * Append-side handle: the journal's path, and no descriptor.  open()
 * creates the file with its header line (or validates the header of
 * an existing journal being resumed); append(), markComplete() and
 * markCancelled() add one durable line each.
 */
class JournalWriter
{
  public:
    /**
     * Open (creating or resuming) the journal for @p jobId under
     * @p dir.  A pre-existing journal must replay to the same job id
     * and cell count, else false + *error (the store holds a
     * different job under this hash — refuse to mix records).
     */
    bool open(const std::string &dir, const std::string &jobId,
              const ExperimentSpec &spec, std::uint64_t cells,
              std::string *error);

    /** Durably append one completed-cell record. */
    bool append(std::size_t cell, const std::string &key,
                double wallSeconds);

    /** Durably append the completion marker. */
    bool markComplete();

    /** Durably append a cancel marker. */
    bool markCancelled();

    const std::string &path() const { return path_; }

  private:
    /** One durable `{"<name>": true}` line. */
    bool appendMarker(const char *name);
    /** One durable line; @p create adds O_CREAT (the header only). */
    bool appendLine(const std::string &line, bool create = false);

    std::string path_;
};

} // namespace flywheel::serve

#endif // FLYWHEEL_SERVE_JOURNAL_HH
