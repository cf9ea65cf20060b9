"""bbforest benchmark: exact solves and structure sweeps through the CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload solve-sparse --seed 0 --seconds 40 --trace 0

Workloads (instances come from ``workloads.build_pool``):

  solve-sparse     ``solve --format json`` on a corpus of G(n, n, p), n in
                   {18, 20, 22}, p in {0.15, 0.2, 0.3}: the reachable end
                   of ROADMAP's hard regime, deep search and a busy
                   pinning pass.
  solve-dense      ``solve`` on a corpus of random_min_degree(n, (n+3)//2),
                   n in {32, 48, 64}: the search only proves that nothing
                   beats the starting incumbent n + 1, the pinning pass makes
                   no feasibility call and nothing is enumerated, so pruning,
                   pinning and enumeration changes should not move it.
  sweep-structure  ``verify --theorem T2 --n 9 --samples 1`` on 40
                   consecutive seeds: nearly all time is the witness
                   enumeration's subset scan.

The CLI runs in this process through ``bbforest.cli.run(argv)``, with stdin
and stdout swapped for in-memory buffers, ``--no-timing``, and ``--jobs 1``
for sweeps, so no process pool starts. A run imports the package and
builds the pool (set-up), runs every instance once with its output checked,
then re-runs the pool in order until ``--seconds`` have passed, checking
that each re-run prints what the first run printed. Set-up is repeated at
every pass boundary and ``setup_s`` is the median. An instance's time is
the median of its runs; ``instances_per_s`` is the pool size over the sum
of those times, and ``instance_ms_p50`` and ``instance_ms_p75`` are their
median and upper quartile.

Times are given at a reference host speed. On a shared 2-vCPU VM the
host's speed drifts by 20-45 % over minutes, which no choice of samples
inside one run can remove. So a fixed pure-Python loop (``probe``) is timed
before every instance run, and each time is scaled by PROBE_REF_MS over
the time of the probe nearest it (just before an instance run, next after
a set-up): the time it would have taken on a host where the probe takes
PROBE_REF_MS. The probe is benchmark code and shares no state with the
package. The wall-clock figures are printed in the report and kept in the
run's record.

With ``--trace 1`` a second pass runs under the tracer, which wraps the
package's layer boundaries (see ``tracing.py``), and a third, untimed pass
counts the subset tests; the run prints the per-layer split instead of the
end-to-end metrics. ``trace.overhead_frac`` compares the traced pass with
the untraced re-runs, both scaled by their probes as above.

Metric names and units are those BENCHMARK.json declares.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics; failed over attempted is also printed as ``failed_frac``. Each run
also writes its stamped record (and, traced, its spans) under
``perfbench/out/``. The exit code is 0 when every output checked, 1
when any failed, 2 when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace
from typing import Callable

import check
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_REPS = 3
SETUP_PER_PASS = 2
# the reference host speed, roughly the probe's time on a 2-vCPU Xeon VM
# with CPython 3.11; as a fixed constant it only sets the unit
PROBE_REF_MS = 2.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
# metric name -> unit
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}

_WARMUP = {
    "solve": (("solve", "--format", "json", "--no-timing"), "BBG 1\n2\n11\n11\n"),
    "verify": (("verify", "--theorem", "T2", "--n", "2", "--samples", "1",
                "--jobs", "1", "--no-timing"), ""),
}


def import_package() -> SimpleNamespace:
    """Import every bbforest module afresh from this checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "bbforest" or m.startswith("bbforest.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"bbforest.{name}")
            for name in ("cli", "core", "generators", "solver", "theorems")}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"bbforest was not imported from {SRC}")
    return SimpleNamespace(**mods)


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def run_cli(cli, argv, stdin: str) -> tuple[int | None, str, str, float]:
    """One in-process CLI call: exit code (None if it raised), stdout,
    stderr and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception:
        # a crash is a failed instance, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - t0
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), elapsed


def check_output(workload: str, seed: int, inst, code, out: str, ref) -> list[str]:
    if code is None:
        return ["the CLI raised"]
    if workload == "sweep-structure":
        return check.check_sweep(inst.verify_seed, inst.n, code, out,
                                 ref=ref.sweep(seed, inst.base))
    ref_f, ref_witness = ref.solve(workload, inst.base)
    return check.check_solve(inst.stdin, code, out,
                             expect_f=inst.expect_f if ref_f is None else ref_f,
                             ref_witness=ref_witness)


def _tally_sweep_nodes(theorems, counts) -> Callable[[], None]:
    # every end-to-end metric is reported on every workload; the verify
    # report carries no node count, so read it off the results. Unlike the
    # solve corpus, the samples depend on the seed, and so does this sum.
    orig = theorems.max_forest

    def max_forest(g):
        res = orig(g)
        counts["search_nodes"] += res.nodes_explored
        return res
    theorems.max_forest = max_forest
    return lambda: setattr(theorems, "max_forest", orig)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: workloads.PoolSpec = workloads.FULL) -> dict:
    """Set up, run and check one workload; returns the run's record."""
    ref = check.Reference.load() if spec is workloads.FULL else check.Reference({})
    # probe times in run order; set-ups and instance runs are tagged with
    # the index of their nearest probe
    probes: list[float] = []
    setup_times: list[tuple[float, int]] = []

    def set_up():
        # garbage from the previous set-up's modules is the benchmark's own,
        # so it is collected before the clock starts
        gc.collect()
        t0 = time.perf_counter()
        bb = import_package()
        pool = workloads.build_pool(workload, seed, bb, spec)
        setup_times.append((time.perf_counter() - t0, len(probes)))
        return bb, pool

    # more set-ups follow at every pass boundary of the re-runs, so their
    # median samples the whole run rather than one moment of it
    for _ in range(SETUP_REPS):
        bb, pool = set_up()
    run_cli(bb.cli, *_WARMUP[pool[0].argv[0]])

    tally = {"search_nodes": 0}
    undo_tally = None
    if workload == "sweep-structure":
        undo_tally = _tally_sweep_nodes(bb.theorems, tally)

    samples: dict[str, list[tuple[float, int]]] = {inst.iid: [] for inst in pool}
    first_out: dict[str, str] = {}
    nodes: dict[str, int] = {}
    failures: list[dict] = []
    attempted = 0

    def rerun(inst) -> float:
        nonlocal attempted
        code, out, err, elapsed = run_cli(bb.cli, inst.argv, inst.stdin)
        attempted += 1
        if code != 0 or out != first_out[inst.iid]:
            failures.append({"instance": inst.iid, "stderr": err[-2000:],
                             "problems": ["re-run exit code or output differs from the first run"]})
        return elapsed

    gc.collect()
    start = time.perf_counter()
    for inst in pool:
        probes.append(probe())
        code, out, err, elapsed = run_cli(bb.cli, inst.argv, inst.stdin)
        attempted += 1
        problems = check_output(workload, seed, inst, code, out, ref)
        if problems:
            failures.append({"instance": inst.iid, "problems": problems,
                             "stderr": err[-2000:]})
        elif workload != "sweep-structure":
            nodes[inst.iid] = json.loads(out)["nodes_explored"]
        first_out[inst.iid] = out
        samples[inst.iid].append((elapsed, len(probes) - 1))
    pass_s = time.perf_counter() - start
    if undo_tally:
        undo_tally()

    tracer = tracing.Tracer() if trace else None
    traced: list[tuple[float, int]] = []
    if tracer:
        # the traced pass is every instance's second run, so it is compared
        # with later untraced runs rather than with the colder first one
        tracer.install(bb)
        idx = tracer.open("bench.setup")
        workloads.build_pool(workload, seed, bb, spec)
        tracer.close(idx)
        for inst in pool:
            tracer.instance = inst.iid
            probes.append(probe())
            idx = tracer.open("cli.run")
            traced.append((rerun(inst), len(probes) - 1))
            tracer.close(idx)
        tracer.uninstall()
        counter = tracing.Tracer()
        counter.install_counters(bb)
        for inst in pool:
            rerun(inst)
        counter.uninstall()

    # re-runs until the time is up: more timing samples, and a determinism
    # check; set-up is repeated at every pass boundary
    k = 0
    while time.perf_counter() - start < seconds:
        if k % len(pool) == 0:
            for _ in range(SETUP_PER_PASS):
                set_up()
            gc.collect()
        inst = pool[k % len(pool)]
        probes.append(probe())
        samples[inst.iid].append((rerun(inst), len(probes) - 1))
        k += 1
    measured_s = time.perf_counter() - start

    probe_ms = [1000.0 * p for p in probes]
    scale = [PROBE_REF_MS / p for p in probe_ms]
    wall = timings(samples, setup_times, [1.0] * len(scale))
    e2e = timings(samples, setup_times, scale)
    e2e["search_nodes"] = tally["search_nodes"] + sum(nodes.values())
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        def scaled(runs):
            return [t * scale[p] for t, p in runs]
        untraced = sum(statistics.median(scaled(ts[1:] or ts))
                       for ts in samples.values())
        metrics = tracing.per_layer_metrics(
            tracer, counter, sum(scaled(traced)) / untraced - 1.0, PER_LAYER)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record = {
        "stamp": stamp(),
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "pool": spec.name,
        "instances": len(pool), "attempted": attempted,
        "failed": len(failures), "failed_frac": len(failures) / attempted,
        "first_pass_s": pass_s, "measured_s": measured_s, "reruns": k,
        "probe_ms": probe_ms,
        "setup_s_samples": setup_times,
        "metrics": metrics, "end_to_end": e2e, "wall": wall,
        "per_instance_nodes": nodes,
        "samples_ms": {iid: [[1000.0 * t, p] for t, p in ts]
                       for iid, ts in samples.items()},
        "failures": failures,
    }
    if tracer:
        record["missing_hooks"] = tracer.missing + counter.missing
        record["layers_ms"] = layer_split(tracer, pool)
        record["spans"] = tracer.dump()
    return record


def timings(samples: dict, setup_times: list, scale: list[float]) -> dict:
    """The timed end-to-end metrics, each time first multiplied by the
    scale at its probe."""
    # the median, not the best run: the best scaled run favours the moments
    # whose probes happened to come out slow
    ms = [1000.0 * statistics.median(t * scale[p] for t, p in ts)
          for ts in samples.values()]
    q = statistics.quantiles(ms, n=4, method="inclusive")
    return {
        "instances_per_s": 1000.0 * len(ms) / sum(ms),
        "instance_ms_p50": q[1],
        "instance_ms_p75": q[2],
        "setup_s": statistics.median(t * scale[p] for t, p in setup_times),
    }


def layer_split(tracer: tracing.Tracer, pool) -> dict:
    """Self time per layer over the traced pass, plus the set-up build."""
    ran = {inst.iid for inst in pool}
    out = {layer: tracer.self_ms(layer, ran) for layer in tracing.LAYERS}
    out["pass_total"] = tracer.duration_ms("cli.run", ran)
    out["enumeration"] = tracer.duration_ms("solver.enumerate", ran)
    out["setup_build"] = tracer.duration_ms("bench.setup")
    return out


def stamp() -> dict:
    """Where and what was measured."""
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "commit": _git_commit()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # a benchmark checkout need not be a git repository
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30,
                               check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def report(record: dict) -> str:
    """Human-readable summary of a run record."""
    lines = [f"bbforest benchmark  workload={record['workload']} "
             f"seed={record['seed']} trace={record['trace']} pool={record['pool']}",
             "stamp: " + json.dumps(record["stamp"], sort_keys=True),
             f"instances {record['instances']}  attempted {record['attempted']}  "
             f"failed {record['failed']}  failed_frac {record['failed_frac']:.4f}",
             f"first pass {record['first_pass_s']:.2f} s  measured "
             f"{record['measured_s']:.2f} s  re-runs {record['reruns']}",
             "probe ms: quartiles " + " ".join(
                 f"{p:.3f}" for p in statistics.quantiles(record["probe_ms"], n=4)),
             "wall clock: " + "  ".join(f"{k}={v:.6g}" for k, v in record["wall"].items())]
    for f in record["failures"][:10]:
        lines.append(f"FAILED {f['instance']}: {'; '.join(f['problems'])}")
    for name, m in record["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:30s} {value:>14s} {m['unit']}")
    if "layers_ms" in record:
        split = record["layers_ms"]
        total = split["pass_total"] or 1.0
        lines.append(f"layer self time over the traced pass ({total:.1f} ms):")
        for layer in tracing.LAYERS:
            lines.append(f"  {layer:12s} {split[layer]:12.1f} ms "
                         f"{100.0 * split[layer] / total:6.1f} %")
        lines.append(f"  set-up build {split['setup_build']:.1f} ms")
        m = record["metrics"]
        lines.append(
            f"design: solver layer {100.0 * split['solver'] / total:.1f} % and "
            f"enumeration {100.0 * split['enumeration'] / total:.1f} % of the "
            f"pass, pinning calls {m['solver.pinning.calls']['value']}, "
            f"witnesses enumerated {m['solver.enumerate.witnesses']['value']}")
        if record["missing_hooks"]:
            lines.append("missing hooks: " + ", ".join(record["missing_hooks"]))
    return "\n".join(lines)


def write_record(record: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{record['workload']}-s{record['seed']}"
                                 f"-t{record['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import bbforest from {SRC}: {exc}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_record(record)
    print(report(record))
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
