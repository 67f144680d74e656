"""Self-test of the benchmark on tiny inputs; takes about a minute.

    python3 perfbench/selftest.py

Checks, for every workload in ``--smoke`` mode:

1. ``--trace 0`` and ``--trace 1`` exit 0 and end with one JSON object
   holding exactly ``correct``, ``attempted``, ``failed`` and ``metrics``;
   the metrics are exactly the names and units listed in BENCHMARK.json,
   and the outputs pass their correctness gate;
2. the computed per-layer counts repeat exactly between two traced runs;
3. against a corrupted reference (one protocol cell moved by 0.01, one
   kept eigenvalue moved by 1e-6) every pass fails the gate;

that no ``--seed`` maps onto a split seed whose recorded reference run
failed; that a traced run fails, rather than reporting 0 for the layer, when a
traced function is no longer found (a copy of the checkout whose package
renames ``generalized_eig_diag`` everywhere); and that in a directory
holding only BENCHMARK.json and ``perfbench/`` the benchmark exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")
COMPUTED_UNITS = ("count", "bytes", "ratio")


def copy_benchmark(dest: str) -> None:
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def run(workload: str, trace: int, *extra: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(workload: str, trace: int, *extra: str, cwd: str = ROOT) -> dict:
    code, lines = run(workload, trace, *extra, cwd=cwd)
    assert code == 0, f"{workload} trace {trace}: exit status {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1
    return result


def corrupt_reference() -> str:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    smoke = table["smoke"]
    cells = smoke["protocol"]["7"]["cells"]
    first = sorted(cells)[0]
    cells[first] += 0.01
    for name in ("pipeline-c4", "pipeline-c16"):
        smoke[name]["7"]["eigenvalues"][0] += 1e-6
    path = os.path.join(SCRATCH, "corrupt-reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh)
    return path


def check_split_seeds() -> None:
    sys.path.insert(0, HERE)
    from run import pick_split_seed

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    for mode, workloads in table.items():
        if mode == "commit":
            continue
        for name, recorded in workloads.items():
            picked = {pick_split_seed(recorded, seed) for seed in range(2 * len(recorded))}
            failing = {int(s) for s, entry in recorded.items() if "error" in entry}
            assert picked and not picked & failing, f"{mode} {name}: picks {picked & failing}"
    print("ok  no seed maps onto a split seed whose reference run failed")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    corrupted = corrupt_reference()
    check_split_seeds()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(workload, trace)
            assert result["correct"] and result["failed"] == 0, f"{workload} trace {trace}: {result}"
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics {got} != {want}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{workload}: {name} = {m['value']!r}"
            if trace:
                again = result_of(workload, 1)["metrics"]
                for name, m in result["metrics"].items():
                    if m["unit"] in COMPUTED_UNITS:
                        assert again[name]["value"] == m["value"], (
                            f"{workload}: computed {name} {m['value']} then {again[name]['value']}")
        bad = result_of(workload, 0, "--reference", corrupted)
        assert not bad["correct"] and bad["failed"] == bad["attempted"], (
            f"{workload}: corrupted reference did not trip the gate: {bad}")
        print(f"ok  {workload}: metrics, computed counts and the correctness gate")

    renamed = os.path.join(SCRATCH, "renamed")
    copy_benchmark(renamed)
    shutil.copytree(os.path.join(ROOT, "tests", "fixtures"), os.path.join(renamed, "tests", "fixtures"))
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(renamed, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    package = os.path.join(renamed, "src", "mvle")
    for name in os.listdir(package):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            text = fh.read()
        with open(os.path.join(package, name), "w", encoding="utf-8") as fh:
            fh.write(text.replace("generalized_eig_diag", "generalized_eig_diag_renamed"))
    bad = result_of("pipeline-c4", 1, cwd=renamed)
    assert not bad["correct"] and bad["failed"] > 0, f"untraced function not reported: {bad}"
    print("ok  a traced function that is no longer found fails the traced run")

    bare = os.path.join(SCRATCH, "bare")
    copy_benchmark(bare)
    code, lines = run("protocol", 0, cwd=bare)
    assert code != 0, "benchmark succeeded without the package sources"
    assert not any(line.startswith("{") for line in lines), lines
    print("ok  without the package sources the benchmark fails and prints no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
