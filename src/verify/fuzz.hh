/**
 * @file
 * Workload and configuration fuzzer for the differential checker.
 * One 64-bit seed deterministically expands into a complete fuzz
 * case — a randomized synthetic program (built on the
 * workload/program.hh generator) plus a randomized-but-bounded core
 * configuration — so every failure is a one-line repro:
 *
 *     flywheel_fuzz --seed N
 *
 * The drawn programs deliberately cover the pathologies the paper's
 * calibrated profiles only sample: irregular cross-region transfers
 * (high call probability, many regions), memory-aliasing patterns
 * (tiny data footprints with fully random access), degenerate loop
 * trip counts (mean 1), branch-predictor pathologies (bias near
 * 0.5), tiny register working sets (rename-pool pressure) and
 * code footprints from trivially EC-resident to EC-thrashing.  Core
 * knobs sweep Execution Cache geometry, trace policies, pool sizing,
 * redistribution cadence and both clock boosts.
 */

#ifndef FLYWHEEL_VERIFY_FUZZ_HH
#define FLYWHEEL_VERIFY_FUZZ_HH

#include <cstdint>
#include <string>

#include "verify/differential.hh"

namespace flywheel {

/** One deterministic fuzz scenario. */
struct FuzzCase
{
    std::uint64_t seed = 0;      ///< the one-line repro key
    BenchProfile profile;        ///< randomized synthetic program
    DiffOptions options;         ///< randomized core config and lengths

    /** Compact one-line description for logs. */
    std::string describe() const;
};

/** Expand @p seed into its fuzz case (pure function of the seed). */
FuzzCase makeFuzzCase(std::uint64_t seed);

/** Run one case through the differential checker. */
DiffReport runFuzzCase(const FuzzCase &c);

/**
 * Save/restore-mid-run differential: simulate the case straight
 * through, and against a twin that snapshots at a seed-derived
 * retire count, round-trips the snapshot bytes, restores into a
 * fresh program/stream/core (a stand-in for a new process image)
 * and continues.  Any divergence in the post-restore retired stream
 * or the final statistics/energy counters is a failure — the
 * machine-checked form of the snapshot subsystem's bit-identity
 * contract, over the fuzzer's randomized workloads and configs.
 */
DiffReport runSnapshotFuzzCase(const FuzzCase &c);

} // namespace flywheel

#endif // FLYWHEEL_VERIFY_FUZZ_HH
