"""mvle benchmark: one workload, its end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload protocol --seed 7 --seconds 10 --trace 0

The checkout must hold the package sources under ``src/`` and the pinned
fixture under ``tests/fixtures/``; without them the benchmark exits with
status 2 and prints no result. ``setup_s`` is the median wall time of fresh
interpreters that import ``mvle.cli`` and make a first small fit. The
workload then runs in this process, so peak memory and warm-up are per
workload: with ``--trace 0`` every pass runs untraced; with ``--trace 1``
passes alternate untraced and traced, at least one and two of each, so the
tracing overhead is measured in the same process and the computed counts
can be compared between traced passes. The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TIME_LIMIT_S = 170.0
# Time kept after the last pass for summarizing and writing the run record.
FINISH_S = 10.0
PROBES = 5
PROBE = (
    "import mvle.cli\n"
    "from mvle.dataset import SyntheticSpec, gen_synthetic\n"
    "from mvle.embedding import fit\n"
    "fit(gen_synthetic(SyntheticSpec(samples_per_class=8)), k=5, dim=2)\n"
)
REQUIRED = (
    os.path.join("src", "mvle", "cli.py"),
    os.path.join("tests", "fixtures", "benchmark_pinned.json"),
    "BENCHMARK.json",
)

# (metric, unit, span name, field). A field is "s", "self_s", "calls", or
# (aggregate, key) for a computed count. Units count, bytes and ratio mark
# computed values; they must repeat exactly between traced passes.
LAYER_METRICS = (
    ("linalg.eig_s", "s", "linalg.eig", "s"),
    ("linalg.eig_calls", "count", "linalg.eig", "calls"),
    ("linalg.eig_order", "count", "linalg.eig", ("max", "order")),
    ("linalg.ridge_s", "s", "linalg.ridge", "s"),
    ("linalg.ridge_calls", "count", "linalg.ridge", "calls"),
    ("graph.build_s", "s", "graph.build", "s"),
    ("graph.nodes", "count", "graph.build", ("max", "nodes")),
    ("graph.edge_density", "ratio", "graph.build", ("max", "edge_density")),
    ("graph.dense_bytes", "bytes", "graph.build", ("max", "dense_bytes")),
    ("bon.knn_s", "s", "bon.knn", "s"),
    ("bon.knn_calls", "count", "bon.knn", "calls"),
    ("bon.knn_dist_bytes", "bytes", "bon.knn", ("max", "dist_bytes")),
    ("bon.cells", "count", "graph.build", ("max", "cells")),
    ("bon.cell_ratio", "ratio", "graph.build", ("max", "cell_ratio")),
    ("embedding.fit_s", "s", "embedding.fit", "s"),
    ("embedding.fit_calls", "count", "embedding.fit", "calls"),
    ("embedding.fit_self_s", "s", "embedding.fit", "self_s"),
    ("embedding.export_s", "s", "embedding.export", "s"),
    ("mhon.train_s", "s", "mhon.train", "s"),
    ("mhon.train_calls", "count", "mhon.train", "calls"),
    ("mhon.predict_s", "s", "mhon.predict", "s"),
    ("mhon.model_io_s", "s", "mhon.model_io", "s"),
    ("baselines.elm_train_s", "s", "baselines.elm_train", "s"),
    ("baselines.elm_calls", "count", "baselines.elm_train", "calls"),
    ("baselines.mvda_s", "s", "baselines.mvda", "s"),
    ("baselines.pls_s", "s", "baselines.pls", "s"),
    ("baselines.cca_lda_s", "s", "baselines.cca_lda", "s"),
    ("dataset.csv_load_s", "s", "dataset.csv_load", "s"),
    ("dataset.csv_rows", "count", "dataset.csv_load", ("sum", "rows")),
    ("dataset.split_s", "s", "dataset.split", "s"),
    ("dataset.zscore_s", "s", "dataset.zscore", "s"),
    ("metrics.spread_s", "s", "metrics.spread", "s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
)
COMPUTED_UNITS = ("count", "bytes", "ratio")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_seconds(probes: int, deadline: float) -> list[float]:
    """Wall time of fresh interpreters importing mvle.cli and fitting once.

    One discarded probe first, so bytecode compilation of a fresh checkout
    is not counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for i in range(probes + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=max(deadline - start, 1.0))
        if i:
            times.append(time.perf_counter() - start)
    return times


def pick_split_seed(recorded: dict, seed: int) -> int | None:
    """The split seed for ``seed``: one of those whose reference run completed.

    Split seeds whose recorded run raised (see ``error`` in reference.json)
    are not picked, so that no pass of the workload fails on a known program
    error; they stay listed in the reference with the error type.
    """
    usable = sorted(int(s) for s, entry in recorded.items() if "error" not in entry)
    return usable[seed % len(usable)] if usable else None


def tail(values: list[float]) -> float:
    """Highest sample with at least ten samples above it, once that is at or
    above the median (21 samples); with fewer samples, the maximum."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def layer_values(summary: dict) -> dict:
    """Per-layer metrics of one traced pass; a layer the pass never called reads 0."""
    values = {}
    for metric, unit, span, field in LAYER_METRICS:
        agg = summary.get(span)
        if agg is None:
            values[metric] = 0
        elif isinstance(field, tuple):
            values[metric] = agg[field[0]].get(field[1], 0)
        else:
            values[metric] = agg[field]
    return values


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def git_commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(root, ".git", ref[5:])
    if not os.path.exists(ref_path):
        return None
    with open(ref_path, encoding="utf-8") as fh:
        return fh.read().strip()


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(ROOT),
    }


def check(workload, reference: dict) -> tuple[dict | None, list[str]]:
    """Read a pass's outputs and gate them against the recorded reference."""
    try:
        got = workload.outputs()
    except (OSError, ValueError, KeyError) as exc:
        return None, [f"outputs unreadable: {exc!r}"]
    return got, workload.gate(got, reference)


def run_passes(workload, reference: dict, tracer, seconds: float, deadline: float) -> list[dict]:
    """Closed loop with one client: passes back to back until ``seconds`` have passed.

    With a tracer, odd passes are traced, and the loop goes on until there
    are at least two traced passes and three in all. No pass starts that
    would likely end after ``deadline``.
    """
    passes = []
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            times, error = workload.run_pass(tracer if traced else None)
        except Exception as exc:  # a traceback from mvle is a failed pass
            times, error = {"run": 0.0, "fit": 0.0, "eval": 0.0}, f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.restore()
        got, problems = (None, [error]) if error else check(workload, reference)
        spans = []
        if traced:
            spans = tracer.take()
            problems += tracer.problems()
        probes = []
        if tracer is None and not problems:
            probes, problems = eval_probes(workload, reference)
        passes.append({"traced": traced, "times": times, "problems": problems,
                       "outputs": got, "spans": spans, "eval_probes": probes})
        n_traced = sum(p["traced"] for p in passes)
        wanted = (time.perf_counter() - loop_start < seconds
                  or (tracer is not None and (n_traced < 2 or len(passes) < 3)))
        if not wanted or time.perf_counter() + times["run"] + sum(probes) > deadline:
            return passes


def eval_probes(workload, reference: dict) -> tuple[list[float], list[str]]:
    """``workload.EVAL_PROBES`` more evals of the pass's model, each gated.

    They sample ``eval_rows_per_s`` only; ``run_s`` and ``fit_s`` stay one
    pass of one ``train-mhon`` and one ``eval``.
    """
    seconds = []
    for _ in range(workload.EVAL_PROBES):
        try:
            probe_s, error = workload.run_eval()
        except Exception as exc:  # a traceback from mvle is a failed probe
            return seconds, [f"eval probe: {type(exc).__name__}: {exc}"]
        problems = [error] if error else check(workload, reference)[1]
        if problems:
            return seconds, [f"eval probe: {q}" for q in problems]
        seconds.append(probe_s)
    return seconds, []


def end_to_end(workload, passes: list[dict], peak_rss_mb: float) -> dict:
    runs = [p["times"]["run"] for p in passes]
    rates = [p["outputs"]["scored_rows"] / t for p in passes if p["outputs"]
             for t in [p["times"]["eval"]] + p["eval_probes"]]
    accs = [workload.accuracy(p["outputs"]) for p in passes if p["outputs"]]
    return {
        "run_s": (statistics.median(runs), "s"),
        "run_tail_s": (tail(runs), "s"),
        "fit_s": (statistics.median(p["times"]["fit"] for p in passes), "s"),
        "eval_rows_per_s": (statistics.median(rates) if rates else 0.0, "rows/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accuracy": (statistics.median(accs) if accs else 0.0, "share"),
    }


def per_layer(passes: list[dict], problems: list[str]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if len(traced) < 2 or not plain:
        problems.append(f"{len(traced)} traced and {len(plain)} untraced passes; "
                        "at least two and one are needed")
    per_pass = [layer_values(layertrace.summarize(p["spans"])) for p in traced] or [layer_values({})]
    metrics = {}
    for metric, unit, _, _ in LAYER_METRICS:
        values = [v[metric] for v in per_pass]
        if unit in COMPUTED_UNITS:
            if len(set(values)) != 1:
                problems.append(f"computed count {metric} differs between traced passes: {values}")
            metrics[metric] = (values[0], unit)
        else:
            metrics[metric] = (statistics.median(values), unit)
    overhead = 0.0
    if traced and plain:
        overhead = (statistics.median(p["times"]["run"] for p in traced)
                    - statistics.median(p["times"]["run"] for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def write_record(args, env: dict, passes: list[dict], problems: list[str]) -> str:
    """Spans stay in memory during the run and are written out once, here."""
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{'smoke-' if args.smoke else ''}{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload, "seed": args.seed, "env": env, "problems": problems,
        "passes": [{"traced": p["traced"], "times": p["times"], "eval_probes": p["eval_probes"],
                    "problems": p["problems"]} for p in passes],
        "spans": [dict(s, traced_pass=i) for i, p in enumerate(p for p in passes if p["traced"])
                  for s in p["spans"]],
    }
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return os.path.join(".perfbench", name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for the self-test")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                        help="recorded reference outputs (default: perfbench/reference.json)")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        return fail(f"not a complete mvle checkout, missing {', '.join(missing)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        setup = [] if args.trace else setup_seconds(1 if args.smoke else PROBES, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return fail(f"set-up probe: {exc}")

    sys.path.insert(0, SRC)
    import workloads

    with open(args.reference, encoding="utf-8") as fh:
        recorded = json.load(fh).get("smoke" if args.smoke else "full", {}).get(args.workload, {})
    split_seed = pick_split_seed(recorded, args.seed)
    if split_seed is None:
        return fail(f"no completed reference recorded for {args.workload}")
    reference = recorded[str(split_seed)]
    work = os.path.join(ROOT, ".perfbench", f"work-{args.workload}-{os.getpid()}")
    workload = workloads.make(args.workload, work, split_seed, args.smoke)
    os.makedirs(work, exist_ok=True)
    try:
        workload.setup()
        workloads.warm_up()
        tracer = layertrace.Tracer() if args.trace else None
        passes = run_passes(workload, reference, tracer, args.seconds, deadline - FINISH_S)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Problems of the run as a whole fail every pass; a pass's own problems fail it.
    problems: list[str] = []
    plain = [p for p in passes if not p["traced"]]
    measured = per_layer(passes, problems) if args.trace else end_to_end(workload, plain, peak_rss_mb)
    if setup:
        measured["setup_s"] = (statistics.median(setup), "s")
    attempted = len(passes)
    failed = attempted if problems else sum(1 for p in passes if p["problems"])
    env = environment()

    print(f"workload {args.workload}  seed {args.seed}  split seed {workload.split_seed}  "
          f"trace {args.trace}  record {write_record(args, env, passes, problems)}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes {attempted} (traced {attempted - len(plain)}): "
          + " ".join(f"{p['times']['run']:.3f}" for p in passes))
    if setup:
        print(f"setup probes ({len(setup)}): " + " ".join(f"{t:.3f}" for t in setup))
    for problem in problems + [q for p in passes for q in p["problems"]]:
        print(f"FAILED CHECK: {problem}")
    metrics = {}
    for entry in wanted:
        value, unit = measured[entry["name"]]
        tag = "  [computed]" if unit in COMPUTED_UNITS else ""
        print(f"  {entry['name']:<24} {value:>16.6g} {unit}{tag}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(f"  {'failed_share':<24} {failed / attempted:>16.6g} share  "
          f"({failed} of {attempted} passes)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
