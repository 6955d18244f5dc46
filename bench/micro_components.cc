/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot
 * components: useful for keeping the simulator itself fast enough
 * that the paper-scale sweeps stay cheap.
 */

#include <benchmark/benchmark.h>

#include <deque>

#include "branch/gshare.hh"
#include "core/baseline_core.hh"
#include "core/issue_window.hh"
#include "core/lsq.hh"
#include "flywheel/exec_cache.hh"
#include "flywheel/flywheel_core.hh"
#include "mem/cache.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "snapshot/snapshot.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace flywheel {
namespace {

void
BM_WorkloadStream(benchmark::State &state)
{
    StaticProgram prog(benchmarkByName("gcc"));
    WorkloadStream s(prog);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.next().pc);
}
BENCHMARK(BM_WorkloadStream);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 64 * 1024;
    p.assoc = 4;
    Arena arena;
    Cache c(arena, p);
    std::uint64_t x = 1;
    for (auto _ : state) {
        x = x * 6364136223846793005ULL + 1;
        benchmark::DoNotOptimize(c.access((x >> 40) & 0xFFFFF, false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_GsharePredictUpdate(benchmark::State &state)
{
    Arena arena;
    Gshare g(arena);
    Addr pc = 0x1000;
    bool taken = false;
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.predict(pc));
        std::uint16_t h = g.history();
        g.pushHistory(taken);
        g.update(pc, h, taken);
        taken = !taken;
        pc += 4;
    }
}
BENCHMARK(BM_GsharePredictUpdate);

void
BM_ExecCacheLookup(benchmark::State &state)
{
    ExecCache ec(2048, 8, 1024);
    for (Addr pc = 0x1000; pc < 0x1000 + 64 * 0x100; pc += 0x100) {
        auto t = std::make_unique<Trace>();
        t->startPc = pc;
        t->slots.resize(8);
        t->rankToSlot.assign(8, 0);
        ec.insert(std::move(t));
    }
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ec.lookup(pc));
        pc += 0x100;
        if (pc >= 0x1000 + 64 * 0x100)
            pc = 0x1000;
    }
}
BENCHMARK(BM_ExecCacheLookup);

void
BM_IssueWindowSelectCycle(benchmark::State &state)
{
    // Steady-state Wake-Up/Select traffic: every iteration selects
    // the oldest visible entries (one issue group), removes them, and
    // dispatches replacements — the exact per-cycle pattern of
    // CoreBase::stepIssue.
    Arena arena;
    IssueWindow iw(arena, 128);
    std::deque<InFlightInst> live;   // stable addresses
    InstSeqNum seq = 1;
    auto fill = [&] {
        while (!iw.full()) {
            live.emplace_back();
            live.back().arch.seq = seq++;
            live.back().iwVisible = 0;
            iw.insert(&live.back());
        }
    };
    fill();
    std::vector<InFlightInst *> selected;
    for (auto _ : state) {
        iw.visibleOldestFirst(1, selected);
        unsigned n = 0;
        for (InFlightInst *p : selected) {
            if (n++ == 6)
                break;
            iw.remove(p);
        }
        while (!live.empty() && !live.front().inIw)
            live.pop_front();
        fill();
        benchmark::DoNotOptimize(selected.size());
    }
}
BENCHMARK(BM_IssueWindowSelectCycle);

void
BM_LsqDisambiguation(benchmark::State &state)
{
    // Load/store queue at realistic occupancy: insert, query both
    // disambiguation paths, resolve the store address, retire.
    Arena arena;
    Lsq lsq(arena, 64);
    std::deque<InstSeqNum> resident;
    InstSeqNum seq = 1;
    Addr addr = 0x1000;
    for (auto _ : state) {
        while (lsq.size() >= 48) {
            lsq.retire(resident.front());
            resident.pop_front();
        }
        const bool is_store = (seq & 1) != 0;
        lsq.insert(seq, is_store, addr);
        resident.push_back(seq);
        benchmark::DoNotOptimize(lsq.loadMayIssue(seq + 1));
        benchmark::DoNotOptimize(lsq.loadForwards(seq + 1, addr));
        if (is_store)
            lsq.storeIssued(seq);
        ++seq;
        addr = (addr + 8) & 0xFFFF;
    }
}
BENCHMARK(BM_LsqDisambiguation);

void
BM_BaselineSimulation(benchmark::State &state)
{
    StaticProgram prog(benchmarkByName("gzip"));
    WorkloadStream stream(prog);
    CoreParams p;
    BaselineCore core(p, stream);
    for (auto _ : state)
        core.run(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BaselineSimulation)->Unit(benchmark::kMillisecond);

void
BM_FlywheelSimulation(benchmark::State &state)
{
    StaticProgram prog(benchmarkByName("gzip"));
    WorkloadStream stream(prog);
    CoreParams p;
    FlywheelCore core(p, stream);
    for (auto _ : state)
        core.run(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FlywheelSimulation)->Unit(benchmark::kMillisecond);

// ---- snapshot codec -----------------------------------------------
// Save/restore cost of a warmed-up Flywheel core through the binary
// container, which must stay near-memcpy (see README "Checkpoints").

void
BM_SnapshotSave(benchmark::State &state)
{
    StaticProgram prog(benchmarkByName("gzip"));
    WorkloadStream stream(prog);
    CoreParams p;
    FlywheelCore core(p, stream);
    core.run(20000);
    std::size_t bytes = 0;
    for (auto _ : state) {
        Snapshot snap;
        core.save(snap);
        std::string blob = snap.serialize();
        bytes = blob.size();
        benchmark::DoNotOptimize(blob);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations() * bytes));
}
BENCHMARK(BM_SnapshotSave);

void
BM_SnapshotRestore(benchmark::State &state)
{
    StaticProgram prog(benchmarkByName("gzip"));
    WorkloadStream stream(prog);
    CoreParams p;
    FlywheelCore core(p, stream);
    core.run(20000);
    Snapshot snap;
    core.save(snap);
    const std::string blob = snap.serialize();
    for (auto _ : state) {
        Snapshot back;
        std::string error;
        if (!Snapshot::deserialize(blob, &back, &error))
            state.SkipWithError(error.c_str());
        core.restore(back);
    }
    state.SetBytesProcessed(
        std::int64_t(state.iterations() * blob.size()));
}
BENCHMARK(BM_SnapshotRestore);

// ---- observability layer ------------------------------------------
// The emit-site contract is that a masked-out (or absent) tracer
// costs one branch; these pin the enabled, masked and null-pointer
// emit costs plus the price of a registry dump so regressions in the
// hot-path guard show up as ns/op deltas.

void
BM_TracerEmitEnabled(benchmark::State &state)
{
    obs::Tracer t(obs::kTraceCatAll, 1 << 12);
    Tick ts = 0;
    for (auto _ : state)
        t.instant(obs::TraceCat::Retire, "retire", ++ts, 4);
    benchmark::DoNotOptimize(t.recorded());
}
BENCHMARK(BM_TracerEmitEnabled);

void
BM_TracerEmitMasked(benchmark::State &state)
{
    obs::Tracer t(/*mask=*/0u, 1 << 12);
    Tick ts = 0;
    for (auto _ : state)
        t.instant(obs::TraceCat::Retire, "retire", ++ts, 4);
    benchmark::DoNotOptimize(t.recorded());
}
BENCHMARK(BM_TracerEmitMasked);

void
BM_TracerEmitNull(benchmark::State &state)
{
    // The disabled-by-default shape every core pays: a null tracer
    // pointer guarding the emit call.
    obs::Tracer *t = nullptr;
    benchmark::DoNotOptimize(t);
    Tick ts = 0;
    std::uint64_t emitted = 0;
    for (auto _ : state) {
        ++ts;
        if (t) {
            t->instant(obs::TraceCat::Retire, "retire", ts, 4);
            ++emitted;
        }
        benchmark::DoNotOptimize(ts);
    }
    benchmark::DoNotOptimize(emitted);
}
BENCHMARK(BM_TracerEmitNull);

void
BM_StatsRegistryDump(benchmark::State &state)
{
    // Dump cost of a real component tree (a FlywheelCore registers
    // every cache/predictor/queue/EC/pool group).
    StaticProgram prog(benchmarkByName("gzip"));
    WorkloadStream stream(prog);
    CoreParams p;
    FlywheelCore core(p, stream);
    core.run(1000);
    for (auto _ : state)
        benchmark::DoNotOptimize(core.statsRegistry().dump().size());
}
BENCHMARK(BM_StatsRegistryDump);

} // namespace
} // namespace flywheel

BENCHMARK_MAIN();
