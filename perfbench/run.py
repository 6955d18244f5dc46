#!/usr/bin/env python3
"""The repository benchmark: build it, run one workload, report.

    python3 perfbench/run.py --workload figures|ckpt|serve --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds the benchmark
binary (perfbench/CMakeLists.txt) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs it with every FLYWHEEL_* variable cleared,
checks every produced table against perfbench/reference.json, and prints
as its last stdout line one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The environment, the per-pass samples and the
reason for every absent layer go to stderr.  The exit code is 0 only
when every output was correct.

    python3 perfbench/run.py --record ...   rewrites the reference digests
from this run's tables (after a deliberate change of simulated results).
"""

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import perfstats

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("figures", "ckpt", "serve")
PAPER_FE50_BE50 = 1.54
RUN_TIMEOUT_S = 170
SIM_WORKERS = 3
MB = float(1 << 20)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log("perfbench: " + message)
    sys.exit(code)


# ------------------------------------------------------------- build/run

def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not (os.path.isfile("CMakeLists.txt")
            and os.path.isfile(os.path.join("src", "api", "session.hh"))):
        fail("no simulator source here; run from the repository root")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    build_dir = os.path.join(target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode:
            fail("cmake configure failed")
    step = subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4",
         "--target", "flywheel_perfbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode:
        fail("build failed")
    return os.path.join(build_dir, "flywheel_perfbench")


def run_binary(binary, args, trace, work, deadline):
    """One invocation (one pass of the workload, in a fresh
    process) with a pinned environment; returns its raw document."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FLYWHEEL_")}
    raw_path = os.path.join(work, "raw.json")
    with open(os.path.join(work, "render.txt"), "wb") as render:
        proc = subprocess.Popen(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--trace", str(trace), "--work", work, "--raw", raw_path],
            stdout=render, env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("benchmark binary overran the %d s limit" % RUN_TIMEOUT_S, 1)
    if code:
        fail("benchmark binary exited with code %d" % code, 1)
    with open(raw_path) as f:
        return json.load(f)


def run_passes(binary, args, work):
    """The raw documents of a run.  Untraced: fresh-process passes until
    the next one would overrun --seconds.  Traced: one untraced and one
    traced pass, both fresh processes, so their walls compare fairly."""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    if args.trace:
        return [run_binary(binary, args, t, work, deadline) for t in (0, 1)]
    raws = []
    while True:
        t0 = time.monotonic()
        raws.append(run_binary(binary, args, 0, work, deadline))
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            return raws


def provenance():
    """Commit (when in a git checkout) and a digest of the sources."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in sorted(paths):
            if "__pycache__" in path:
                continue
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    commit = None
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"commit": commit, "source_sha256": h.hexdigest()}


# ---------------------------------------------------------------- checks

def reference_for(workload):
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    # serve and figures run the same specs: one reference makes their
    # tables byte-identical to each other as well as to the record.
    return ref["short" if workload == "ckpt" else "full"]


def check_pass(p, reference):
    """(attempted, failed) for one pass of the workload."""
    attempted, failed = perfstats.count_failures(p.get("figures", []),
                                                 reference)
    errors = p.get("errors", [])
    if errors or not p.get("figures"):
        log("errors:", errors or "no tables produced")
        attempted += 1
        failed += 1
    return attempted, failed


def paper_gap_pct(fig12_csv):
    """Distance of the fig12 FE50/BE50 average speed-up from the paper's
    1.54, in percent of 1.54 (simulated time, not host time)."""
    rows = list(csv.DictReader(io.StringIO(fig12_csv)))
    base = {r["bench"]: float(r["timePs"]) for r in rows
            if r["kind"] == "baseline"}
    rel = [base[r["bench"]] / float(r["timePs"]) for r in rows
           if r["kind"] == "flywheel" and float(r["feBoost"]) == 0.5
           and float(r["beBoost"]) == 0.5]
    return abs(sum(rel) / len(rel) - PAPER_FE50_BE50) / PAPER_FE50_BE50 * 100


# --------------------------------------------------------------- metrics

def end_to_end(raws):
    passes = [r["pass"] for r in raws]
    setups = [s for r in raws for s in r["setup_samples"]]
    setups += [p["setup_s"] for p in passes]
    return {
        "setup_s": (perfstats.median(setups), "s"),
        "wall_s": (perfstats.median([p["wall_s"] for p in passes]), "s"),
        "cpu_s": (perfstats.median([p["cpu_s"] for p in passes]), "s"),
        "minstr_per_s": (perfstats.median(
            [p["instrs"] / 1e6 / p["wall_s"] for p in passes]), "Minstr/s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in raws) / 1024.0, "MB"),
        "store_mb": (perfstats.median(
            [p["store_bytes"] for p in passes]) / MB, "MB"),
        "paper_gap_pct": (paper_gap_pct(passes[-1]["fig12_csv"]), "%"),
    }


ABSENT = {
    "figures": {
        "snapshot.": "figures runs without a checkpoint store",
        "serve.": "figures runs in-process, without the serve daemon",
    },
    "ckpt": {
        "serve.": "ckpt runs in-process, without the serve daemon",
    },
    "serve": {
        "api.": "a served client receives tables, it renders nothing",
        "sweep.": "sweeps run inside the daemon and its workers",
        "run.": "RunTelemetry does not cross the serve protocol",
        "core.": "cells run in worker processes",
        "flywheel.": "cells run in worker processes",
        "mem.": "cells run in worker processes",
        "workload.": "cells run in worker processes",
        "snapshot.save": "checkpoints are written by worker processes",
        "snapshot.persist": "checkpoints are written by worker processes",
        "snapshot.load": "checkpoints are read by worker processes",
        "snapshot.restore": "checkpoints are read by worker processes",
        "snapshot.disk_hit_rate": "SweepTelemetry stays in the workers",
    },
}


def per_layer(workload, untraced, raw):
    """Per-layer metrics of a traced pass (`raw`, with its untraced
    twin), plus (attempted, failed) for the traced cells' delta and
    self-time checks."""
    traced = raw["pass"]
    spans = raw["spans"]
    self_t = perfstats.self_times(spans)
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(self_t[s["id"]] for s in named.get(name, []))

    def mean_ms(name):
        found = named.get(name, [])
        return 1e3 * total(name) / len(found) if found else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["api.render_ms"] = (1e3 * total("api.render"), "ms")
    m["sweep.export_ms"] = (1e3 * total("sweep.export"), "ms")
    sweep = traced.get("sweep", [])
    m["sweep.pool_util"] = (ratio(
        sum(t["poolBusy"] for t in sweep),
        sum(t["wall"] * t["jobs"] for t in sweep)), "ratio")
    m["sweep.cache_hit_rate"] = (ratio(
        sum(t["cacheHits"] for t in sweep),
        sum(t["cells"] for t in sweep)), "ratio")
    rows = traced.get("rows", [])
    walls = [1e3 * r["wall"] for r in rows]
    tail = perfstats.tail_percentile(len(walls))
    if walls and (tail is None or tail < 80):
        log("note: only %d cells; p80 has fewer than 10 beyond it"
            % len(walls))
    m["sweep.cell_p50_ms"] = (
        perfstats.percentile(walls, 50) if walls else 0.0, "ms")
    m["sweep.cell_p80_ms"] = (
        perfstats.percentile(walls, 80) if walls else 0.0, "ms")
    for phase in ("warmup", "measure", "reduce"):
        m["run.%s_s" % phase] = (sum(r[phase] for r in rows), "s")
    m["run.restored_frac"] = (ratio(
        sum(1 for r in rows if r["restored"]), len(rows)), "ratio")

    cells = {c["cell"]: c for c in raw.get("cells", [])}
    runs = named.get("core.warmup", []) + named.get("core.measure", [])

    def ns_per(key, select):
        chosen = [s for s in runs if select(cells[s["cell"]])]
        return ratio(1e9 * sum(self_t[s["id"]] for s in chosen),
                     sum(s["attrs"][key] for s in chosen))

    for kind, name in (("baseline", "core.baseline.ns_per_instr"),
                       ("ra", "core.ra.ns_per_instr"),
                       ("flywheel", "flywheel.ns_per_instr")):
        m[name] = (ns_per("instrs", lambda c, k=kind: c["kind"] == k),
                   "ns/instr")
    l2_by_bench = {}
    for c in cells.values():
        misses, retired = l2_by_bench.get(c["bench"], (0, 0))
        l2_by_bench[c["bench"]] = (misses + c["l2Misses"],
                                   retired + c["retired"])
    mpki = {b: ratio(1e3 * v[0], v[1]) for b, v in l2_by_bench.items()}
    cut = perfstats.median(list(mpki.values())) if mpki else 0.0
    m["core.ns_per_cycle.membound"] = (ns_per(
        "cycles", lambda c: mpki[c["bench"]] > cut), "ns/cycle")
    m["core.ns_per_cycle.compute"] = (ns_per(
        "cycles", lambda c: mpki[c["bench"]] <= cut), "ns/cycle")

    def cell_sum(key, select=lambda c: True):
        return sum(c[key] for c in cells.values() if select(c))

    fly = lambda c: c["kind"] == "flywheel"  # noqa: E731
    m["core.ipc"] = (ratio(cell_sum("retired"), cell_sum("cycles")),
                     "instr/cycle")
    m["core.mispredict_rate"] = (ratio(
        cell_sum("mispredicts"), cell_sum("condBranches")), "ratio")
    m["flywheel.ec_residency"] = (ratio(
        cell_sum("ecRetired", fly), cell_sum("retired", fly)), "ratio")
    m["flywheel.ec_hit_rate"] = (ratio(
        cell_sum("ecHits", fly), cell_sum("ecLookups", fly)), "ratio")
    m["mem.l1d_mpki"] = (ratio(1e3 * cell_sum("l1dMisses"),
                               cell_sum("retired")), "1/kinstr")
    m["mem.l2_mpki"] = (ratio(1e3 * cell_sum("l2Misses"),
                              cell_sum("retired")), "1/kinstr")
    m["workload.build_ms"] = (mean_ms("workload.build"), "ms")
    m["workload.ns_per_instr"] = (ratio(
        1e9 * total("workload.skip"),
        sum(s["attrs"]["instrs"] for s in named.get("workload.skip", []))),
        "ns/instr")

    for op in ("save", "persist", "load", "restore"):
        m["snapshot.%s_ms" % op] = (mean_ms("snapshot." + op), "ms")
    m["snapshot.kb_per_ckpt"] = (ratio(
        traced.get("ckpt_bytes", 0) / 1024.0, traced.get("ckpt_files", 0)),
        "KB")
    warm = [t for t in sweep if t["pass"] == "warm"]
    m["snapshot.disk_hit_rate"] = (ratio(
        sum(t["ckptDiskHits"] for t in warm),
        sum(t["ckptDiskHits"] + t["ckptMemoryHits"] + t["ckptComputes"]
            for t in warm)), "ratio")

    jobs = traced.get("jobs", [])
    trips = [1e3 * j["roundtrip"] for j in jobs]
    m["serve.roundtrip_p50_ms"] = (
        perfstats.percentile(trips, 50) if trips else 0.0, "ms")
    m["serve.roundtrip_max_ms"] = (max(trips) if trips else 0.0, "ms")
    m["serve.polls_per_job"] = (ratio(
        sum(j["polls"] for j in jobs), len(jobs)), "count")
    groups = {g["name"]: {s["name"]: s.get("value", 0) for s in g["stats"]}
              for g in (traced.get("serve_stats") or {}).get("groups", [])}
    shards = [v for k, v in groups.items() if k.startswith("serve.shard.")]
    m["serve.worker_busy_frac"] = (ratio(
        sum(s["wallSeconds"] for s in shards),
        SIM_WORKERS * traced["wall_s"]) if shards else 0.0, "ratio")
    m["serve.store_hit_frac"] = (ratio(
        sum(s["storeHits"] for s in shards),
        sum(s["cellsCompleted"] for s in shards)), "ratio")
    m["serve.journal_append_ms"] = (mean_ms("serve.journal_append"), "ms")
    m["serve.result_save_ms"] = (mean_ms("serve.result_save"), "ms")
    m["serve.frames_per_cell"] = (ratio(
        groups.get("serve", {}).get("framesHandled", 0),
        traced.get("cells_total", 0)), "count")
    m["bench.trace_overhead_pct"] = (
        100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0), "%")

    for name in m:
        for prefix, why in ABSENT[workload].items():
            if name.startswith(prefix):
                log("absent on %s: %s (%s); reported as 0"
                    % (workload, name, why))
                m[name] = (0.0, m[name][1])

    # Traced cells must reproduce the front door's window deltas, and
    # their layer spans must account for the cell's wall time.
    attempted = failed = 0
    worst = 1.0
    layer_time = {}
    for s in spans:
        if s["parent"] >= 0:
            layer_time[s["parent"]] = (layer_time.get(s["parent"], 0.0)
                                       + self_t[s["id"]])
    for cell_span in named.get("cell", []):
        cell = cells[cell_span["cell"]]
        wall = cell_span["t1"] - cell_span["t0"]
        layers = layer_time.get(cell_span["id"], 0.0)
        attempted += 1
        worst = min(worst, layers / wall)
        if not cell["match"] or abs(layers - wall) > 0.05 * wall:
            failed += 1
            log("cell %d (%s %s %s) failed: match=%s error=%r "
                "layers=%.6f wall=%.6f" % (
                    cell["cell"], cell["pass"], cell["bench"], cell["kind"],
                    cell["match"], cell["error"], layers, wall))
    if attempted:
        log("traced cells: %d, worst layer coverage %.1f%% of cell wall"
            % (attempted, 100 * worst))
    return m, attempted, failed


# ------------------------------------------------------------------ main

def record(reference_key, passes):
    path = os.path.join(HERE, "reference.json")
    ref = {}
    if os.path.isfile(path):
        with open(path) as f:
            ref = json.load(f)
    tables = {}
    for fig in passes[0]["figures"]:
        tables[fig["figure"] + ".json"] = fig["json"]
        tables[fig["figure"] + ".csv"] = fig["csv"]
    ref[reference_key] = dict(sorted(tables.items()))
    with open(path, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    log("recorded %d digests under '%s'" % (len(tables), reference_key))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference digests from this run")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    work = os.path.join(".bench_out", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        raws = run_passes(binary, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(".bench_out") and not os.listdir(".bench_out"):
            os.rmdir(".bench_out")

    if args.trace:
        # Keep the spans for inspection; everything else was scratch.
        os.makedirs(".bench_out", exist_ok=True)
        path = os.path.join(".bench_out", "trace-%s.json" % args.workload)
        with open(path, "w") as f:
            json.dump({"spans": raws[1]["spans"],
                       "cells": raws[1].get("cells", [])}, f)
        log("spans written to", path)
    env = dict(raws[0]["env"], **provenance())
    log("perfbench env:", json.dumps(env, sort_keys=True))
    passes = [r["pass"] for r in raws]
    for i, p in enumerate(passes):
        log("pass %d: setup %.6f s, wall %.3f s, cpu %.3f s, store %.1f MB"
            % (i, p.get("setup_s", 0), p.get("wall_s", 0),
               p.get("cpu_s", 0), p.get("store_bytes", 0) / MB))
    if args.record:
        record("short" if args.workload == "ckpt" else "full", passes)

    reference = reference_for(args.workload)
    attempted = failed = 0
    for p in passes:
        a, f = check_pass(p, reference)
        attempted += a
        failed += f
    if args.trace:
        metrics, a, f = per_layer(args.workload, passes[0], raws[1])
        attempted += a
        failed += f
    else:
        metrics = end_to_end(raws)
    log("failed_frac: %d/%d" % (failed, attempted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
