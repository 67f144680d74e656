"""The three benchmark workloads: inputs, one timed pass, outputs and references.

Every workload draws its data from one ``gen_synthetic`` call at the
generator's default seed (7), which fixes the class geometry and the view
lift matrices. A workload is made at a split seed; ``run.py`` picks it among
the splits whose reference outputs ``record.py`` recorded, so every pass is
gated against outputs of the recording commit and never against the code
under test. Seeds thus vary the sample while the problem stays the one the
paper's protocol and the pinned fixture use; at split seed 7 the protocol is
exactly the default ``mvle benchmark`` run.

A pass drives mvle only through ``mvle.cli.main``. ``expected`` computes
the same outputs through the library functions; ``record.py`` uses it to
record references.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout

import mvle.cli
from mvle import mhon
from mvle.dataset import SyntheticSpec, gen_synthetic, split, write_view_csv
from mvle.embedding import fit
from mvle.errors import MvleError
from mvle.metrics import accuracy

GEN_SEED = 7
TRAIN_FRACTION = 2.0 / 3.0  # mvle benchmark's default per-class train share
TRAIN_MHON_SEED = 7  # train-mhon's default network seed
ACCURACY_TOL = 0.005
EIGENVALUE_TOL = 1e-8
PINNED_FIXTURE = os.path.join("tests", "fixtures", "benchmark_pinned.json")
PINNED_METHODS = ("mvle", "mvda", "raw")


def run_cli(argv: list[str], tracer=None) -> tuple[float, str | None]:
    """Run one mvle command in-process; returns (seconds, error line or None)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            code = mvle.cli.main(argv)
        else:
            with tracer.span("cli.main"):
                code = mvle.cli.main(argv)
        seconds = time.perf_counter() - start
    if code != 0:
        return seconds, err.getvalue().strip() or f"{argv[0]} exited with {code}"
    return seconds, None


def _view_args(paths: list[tuple[str, str]]) -> list[str]:
    argv = []
    for features, labels in paths:
        argv += ["--features", features, "--labels", labels]
    return argv


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Protocol:
    """The paper's repeated split/fit/eval protocol, default config."""

    # Scoring is part of the one benchmark command; there is no separate eval.
    EVAL_PROBES = 0

    def __init__(self, work: str, split_seed: int, smoke: bool):
        self.work, self.split_seed, self.smoke = work, split_seed, smoke
        self.samples_per_class = 15 if smoke else 60
        self.overrides = ["--repeats", "2", "--dims", "2,4"] if smoke else []

    def setup(self) -> None:
        data = os.path.join(self.work, "data")
        _, error = run_cli(
            ["gen", "--samples-per-class", str(self.samples_per_class),
             "--seed", str(GEN_SEED), "--out-dir", data]
        )
        if error:
            raise RuntimeError(error)
        views = [(os.path.join(data, f"view{i}_features.csv"),
                  os.path.join(data, f"view{i}_labels.csv")) for i in (1, 2)]
        self.out = os.path.join(self.work, "out")
        self.argv = (["benchmark"] + _view_args(views) + self.overrides
                     + ["--seed", str(self.split_seed), "--out-dir", self.out])
        _, test = split(self._dataset(), TRAIN_FRACTION, self.split_seed)
        self.test_rows_per_view = test.views[0].n

    def _dataset(self):
        return gen_synthetic(SyntheticSpec(samples_per_class=self.samples_per_class, seed=GEN_SEED))

    def run_pass(self, tracer=None) -> tuple[dict, str | None]:
        _fresh_dir(self.out)
        seconds, error = run_cli(self.argv, tracer)
        return {"run": seconds, "fit": seconds, "eval": seconds}, error

    def outputs(self) -> dict:
        with open(os.path.join(self.out, "report.csv"), encoding="utf-8") as fh:
            cells = {f"{r['method']},{r['view']},{r['dim']}": float(r["mean_accuracy"])
                     for r in csv.DictReader(fh)}
        with open(os.path.join(self.out, "report_runs.json"), encoding="utf-8") as fh:
            runs = len(json.load(fh)["runs"])
        return {"cells": cells, "scored_rows": runs * self.test_rows_per_view}

    def expected(self) -> dict:
        """Report cells from ``mvle.cli.run_benchmark`` on the in-memory dataset."""
        flags = {"seed": self.split_seed}
        if self.smoke:
            flags.update(repeats=2, dims=[2, 4])
        cfg = mvle.cli.merge_config("benchmark", {}, flags)
        try:
            rows, _ = mvle.cli.run_benchmark(self._dataset(), cfg)
        except MvleError as exc:
            return {"error": type(exc).__name__}
        return {"cells": {f"{r.method},{r.view},{r.dim}": r.mean_accuracy for r in rows}}

    def gate(self, got: dict, reference: dict) -> list[str]:
        """Cells against the reference; at split seed 7 also against the pinned fixture."""
        problems = self.compare(got, reference, "reference")
        if self.split_seed == GEN_SEED and not self.smoke:
            with open(PINNED_FIXTURE, encoding="utf-8") as fh:
                pinned = json.load(fh)["cells"]
            subset = {k: v for k, v in got["cells"].items() if k.split(",")[0] in PINNED_METHODS}
            problems += self.compare({"cells": subset}, {"cells": pinned}, "pinned fixture")
        return problems

    @staticmethod
    def compare(got: dict, want: dict, label: str) -> list[str]:
        problems = []
        if set(got["cells"]) != set(want["cells"]):
            return [f"{label}: report cells {sorted(got['cells'])} != {sorted(want['cells'])}"]
        for key, value in want["cells"].items():
            if abs(got["cells"][key] - value) > ACCURACY_TOL + 1e-12:
                problems.append(f"{label}: cell {key} = {got['cells'][key]:.6f}, expected {value:.6f}")
        return problems

    @staticmethod
    def accuracy(got: dict) -> float:
        return sum(got["cells"].values()) / len(got["cells"])


class Pipeline:
    """train-mhon on 4k joint samples, then eval on 20k held-out rows per view."""

    # Extra evals after each untraced pass, outside run_s. One eval (0.8 s
    # of pure-Python CSV parsing) per 10 s pass gives eval_rows_per_s three
    # samples a run, and pure-Python speed on a shared host drifts by a
    # quarter over seconds; more samples steady its median.
    EVAL_PROBES = 2

    def __init__(self, classes: int, noise: float, work: str, split_seed: int, smoke: bool):
        self.classes, self.noise = classes, noise
        self.work, self.split_seed = work, split_seed
        # 2000 training rows per view (N = 4000 joint) and 20000 held-out rows.
        self.train_per_class = max(2000 // classes // (25 if smoke else 1), 8)
        self.test_per_class = max(20000 // classes // (250 if smoke else 1), 4)

    def _split(self):
        total = self.train_per_class + self.test_per_class
        ds = gen_synthetic(SyntheticSpec(
            class_count=self.classes, samples_per_class=total,
            noise_sigma=self.noise, seed=GEN_SEED,
        ))
        # ceil(f * total) must be exactly train_per_class.
        fraction = (self.train_per_class - 0.5) / total
        train, test = split(ds, fraction, self.split_seed)
        if train.views[0].n != self.classes * self.train_per_class:
            raise RuntimeError(f"split gave {train.views[0].n} training rows per view")
        return train, test

    def setup(self) -> None:
        train, test = self._split()
        data = os.path.join(self.work, "data")
        os.makedirs(data, exist_ok=True)
        paths = {}
        for part, ds in (("train", train), ("test", test)):
            paths[part] = []
            for i, view in enumerate(ds.views, start=1):
                pair = (os.path.join(data, f"{part}{i}_features.csv"),
                        os.path.join(data, f"{part}{i}_labels.csv"))
                write_view_csv(view, *pair)
                paths[part].append(pair)
        self.model_dir = os.path.join(self.work, "model")
        self.eval_csv = os.path.join(self.work, "eval.csv")
        self.train_argv = (["train-mhon", "--k", "10", "--dim", "8"] + _view_args(paths["train"])
                           + ["--out-dir", self.model_dir])
        models = []
        for i in (1, 2):
            models += ["--model", os.path.join(self.model_dir, f"mhon_view{i}.json")]
        self.eval_argv = ["eval"] + models + _view_args(paths["test"]) + ["--out", self.eval_csv]
        self.eval_rows = sum(v.n for v in test.views)

    def run_pass(self, tracer=None) -> tuple[dict, str | None]:
        _fresh_dir(self.model_dir)
        if os.path.exists(self.eval_csv):
            os.remove(self.eval_csv)
        fit_s, error = run_cli(self.train_argv, tracer)
        if error:
            return {"run": fit_s, "fit": fit_s, "eval": 0.0}, error
        eval_s, error = self.run_eval(tracer)
        return {"run": fit_s + eval_s, "fit": fit_s, "eval": eval_s}, error

    def run_eval(self, tracer=None) -> tuple[float, str | None]:
        """``mvle eval`` of the held-out rows with the model the last pass trained."""
        return run_cli(self.eval_argv, tracer)

    def outputs(self) -> dict:
        with open(self.eval_csv, encoding="utf-8") as fh:
            accs = [float(r["accuracy"]) for r in csv.DictReader(fh)]
        with open(os.path.join(self.model_dir, "embedding_meta.json"), encoding="utf-8") as fh:
            eigenvalues = json.load(fh)["eigenvalues"]
        return {"accuracies": accs, "eigenvalues": eigenvalues, "scored_rows": self.eval_rows}

    def expected(self) -> dict:
        """Held-out accuracies and kept eigenvalues through the library functions."""
        train, test = self._split()
        emb, art = fit(train, k=10, dim=8)
        hyper = mhon.MhonHyper(seed=TRAIN_MHON_SEED)
        accs = []
        for i, view in enumerate(train.views):
            model = mhon.train(view.features, emb.per_view[i], view.labels,
                               train.class_count, art.norm_stats[i], hyper, view_id=i + 1)
            held = test.views[i]
            accs.append(accuracy(mhon.predict(model, held.features), held.labels))
        return {"accuracies": accs, "eigenvalues": [float(v) for v in emb.eigenvalues]}

    def gate(self, got: dict, reference: dict) -> list[str]:
        return self.compare(got, reference, "reference")

    @staticmethod
    def compare(got: dict, want: dict, label: str) -> list[str]:
        problems = []
        for key, tol in (("accuracies", ACCURACY_TOL), ("eigenvalues", EIGENVALUE_TOL)):
            a, b = got[key], want[key]
            if len(a) != len(b):
                problems.append(f"{label}: {len(a)} {key}, expected {len(b)}")
                continue
            for j, (x, y) in enumerate(zip(a, b)):
                if not math.isclose(x, y, rel_tol=0.0, abs_tol=tol + 1e-12):
                    problems.append(f"{label}: {key}[{j}] = {x!r}, expected {y!r}")
        return problems

    @staticmethod
    def accuracy(got: dict) -> float:
        return sum(got["accuracies"]) / len(got["accuracies"])


WORKLOADS = ("protocol", "pipeline-c4", "pipeline-c16")


def warm_up() -> None:
    """A tiny fit, network training and prediction, so LAPACK is warm before timing."""
    Pipeline(4, 0.3, "", GEN_SEED, smoke=True).expected()


def make(name: str, work: str, split_seed: int, smoke: bool):
    """The workload ``name`` at ``split_seed``."""
    if name == "protocol":
        return Protocol(work, split_seed, smoke)
    if name == "pipeline-c4":
        return Pipeline(4, 0.3, work, split_seed, smoke)
    if name == "pipeline-c16":
        return Pipeline(16, 1.0, work, split_seed, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
