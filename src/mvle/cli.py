"""Command-line interface: gen, embed, train-mhon, eval, benchmark.

Every command reads an optional flat JSON config (``--config``) and accepts
the same keys as long-form flags; flags win. Each key is declared once, in
:data:`OPTIONS`, and its flag is ``--`` plus the key with dashes; the parser
and the merged config are generated from that table. Flag values reach the
key's rule as text and are held to the same rule as config values. Every
list key has the one rule :func:`_list`: a JSON array, or one string that
is the flag's comma text, except that a string for a path key (``features``,
``labels``, ``model``) is one whole path. Every named value, each
``methods`` entry among them, must be one of its key's names. A view is the
features and labels files at one position of the ``features`` and
``labels`` lists. Unknown config keys are rejected by name. Failures, a bad
command line among them, print a single machine-parsable line to stderr
(``error: <Type>: <message>``) and exit with status 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Any, Callable

from . import embedding, mhon
from .bench import METHODS, mhon_hyper, run_benchmark
from .dataset import (
    NONLINEARITY_MODES,
    MultiViewDataset,
    SyntheticSpec,
    View,
    gen_synthetic,
    load_view_csv,
    write_matrix_csv,
    write_view_csv,
)
from .errors import ConfigError, MvleError
from .metrics import accuracy, render_report_csv

MHON_MODES = ("per-view", "concat")


# ---------------------------------------------------------------------------
# config validation


class _Text(str):
    """Text that number rules parse: a flag value, or an entry of a comma list.

    A config file otherwise holds typed JSON values, so a plain string there
    is rejected where a number is expected.
    """


def _parse_text(value, cast):
    if isinstance(value, _Text):
        try:
            return cast(value)
        except ValueError:
            pass  # the type check below names the key and the text
    return value


def _as_int(value, key: str) -> int:
    value = _parse_text(value, int)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, key: str) -> float:
    value = _parse_text(value, float)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond the double range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value}")
    return value


def _ranged(convert, ok, words: str):
    """Rule: ``convert`` the value, then require ``ok`` of it (``words`` says how)."""
    def check(value, key: str):
        v = convert(value, key)
        if not ok(v):
            raise ConfigError(f"config key {key!r} must be {words}, got {v!r}")
        return v
    return check


_positive_int = _ranged(_as_int, lambda v: v >= 1, "positive")
_nonneg_int = _ranged(_as_int, lambda v: v >= 0, ">= 0")
_positive_float = _ranged(_as_float, lambda v: v > 0, "positive")
_nonneg_float = _ranged(_as_float, lambda v: v >= 0, ">= 0")
_fraction = _ranged(_as_float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _string(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config key {key!r} must be a nonempty string, got {value!r}")
    return str(value)


def _choice(options):
    return _ranged(_string, lambda v: v in options, f"one of {list(options)}")


def _bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be a boolean, got {value!r}")
    return value


def _list(item, comma: bool = True):
    """Rule: a nonempty JSON array of ``item`` values, or one string.

    The string is the flag's comma text, one entry per part; with
    ``comma=False`` it is one whole entry, so a path may hold a comma.
    """
    def check(value, key: str) -> list:
        if isinstance(value, str):
            value = [_Text(p.strip()) for p in value.split(",") if p.strip()] if comma else [value]
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"config key {key!r} must be a nonempty list")
        return [item(v, key) for v in value]
    return check


def _distinct(rule):
    """Rule: ``rule``'s list, with no entry repeated."""
    return _ranged(rule, lambda v: len(set(v)) == len(v), "free of repeated entries")


_paths = _list(_string, comma=False)
_view_dims = _ranged(_list(_positive_int), lambda v: len(v) == 2, "a pair D1,D2")


# ---------------------------------------------------------------------------
# the option table


@dataclasses.dataclass(frozen=True)
class Option:
    """One config key: its rule, default, help text and the commands taking it.

    Under a command in ``required`` the key has no default and must be
    given. The flag is ``--`` plus the key with dashes; ``action`` is
    argparse's (``append`` makes a list of a repeated flag).
    """

    key: str
    rule: Callable[[Any, str], Any]
    default: Any
    help: str
    commands: tuple[str, ...]
    required: tuple[str, ...] = ()
    action: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


# The keys of exactly these commands shape generated data, so they cannot be
# given together with CSV views.
_SYNTH = ("gen", "benchmark")
_FIT = ("embed", "train-mhon", "benchmark")
_NET = ("train-mhon", "benchmark")
_BENCH = ("benchmark",)
_ALL_BUT_EVAL = ("gen",) + _FIT
_READ = ("embed", "train-mhon", "eval")

OPTIONS = (
    Option("features", _paths, None,
           "a view's features CSV; repeat once per view, in the order of --labels",
           _READ + _BENCH, required=_READ, action="append"),
    Option("labels", _paths, None,
           "a view's labels CSV; repeat once per view, in the order of --features",
           _READ + _BENCH, required=_READ, action="append"),
    Option("model", _paths, None, "model JSON; repeat once per view", ("eval",),
           required=("eval",), action="append"),
    Option("out", _string, None, "also write the accuracies as CSV", ("eval",)),
    Option("class_count", _positive_int, 4,
           "synthetic number of classes (labels are 1..c); CSV views have "
           "as many as their largest label", _SYNTH),
    Option("samples_per_class", _positive_int, 60, "synthetic rows per class, per view",
           _SYNTH),
    Option("view_dims", _view_dims, [20, 15], "synthetic feature width of each view, D1,D2",
           _SYNTH),
    Option("noise_sigma", _nonneg_float, 0.3, "synthetic additive Gaussian noise scale",
           _SYNTH),
    Option("nonlinearity", _choice(NONLINEARITY_MODES), "swissroll-like",
           f"synthetic view-2 warp: {' or '.join(NONLINEARITY_MODES)}", _SYNTH),
    # mvda-vc is opt-in: it requires equal view dims, which the default
    # synthetic dataset (20/15) deliberately does not have.
    Option("methods", _distinct(_list(_choice(METHODS))), [m for m in METHODS if m != "mvda-vc"],
           f"comma list of methods from {', '.join(METHODS)}; default all but mvda-vc",
           _BENCH),
    Option("dims", _distinct(_list(_positive_int)), [2, 4, 8, 16],
           "comma list of projection widths to sweep", _BENCH),
    Option("k", _positive_int, 10, "neighbors per sample, per view", _FIT),
    Option("t", _positive_float, None, "heat-kernel bandwidth; default the class count",
           _FIT),
    Option("dim", _positive_int, 4, "embedding width", ("embed", "train-mhon")),
    Option("train_fraction", _fraction, 2.0 / 3.0, "per-class train share", _BENCH),
    Option("repeats", _positive_int, 5, "independent splits", _BENCH),
    Option("seed", _nonneg_int, 7,
           "generator seed, base split seed, network seed; recorded with the embedding",
           _ALL_BUT_EVAL),
    Option("elm_hidden", _positive_int, 256, "ELM classifier hidden units", _BENCH),
    Option("elm_lambda", _positive_float, 1e-2, "ELM classifier ridge strength", _BENCH),
    Option("vc_lambda", _positive_float, 1.0, "MvDA-VC coupling strength", _BENCH),
    Option("h1", _positive_int, None,
           "MHON first hidden width; default 4*max(input_dim, dim)", _NET),
    Option("h2", _positive_int, 256, "MHON second hidden width", _NET),
    Option("mhon_lambda", _positive_float, 1e-2, "MHON ridge strength", _NET),
    Option("activation", _choice(mhon.ACTIVATIONS), "softsign",
           f"MHON activation: {', '.join(mhon.ACTIVATIONS)}", _NET),
    Option("mhon_mode", _choice(MHON_MODES), "per-view",
           "one network per view, or one on the concatenated views", _NET),
    Option("out_dir", _string, ".", "output directory", _ALL_BUT_EVAL),
    Option("dump_graph", _bool, False, "also write the joint weight matrix as CSV",
           ("embed",), action="store_true"),
)


def _options(command: str) -> list[Option]:
    return [opt for opt in OPTIONS if command in opt.commands]


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def merge_config(command: str, file_cfg: dict, flag_cfg: dict) -> dict:
    """Defaults, then config file, then flags; validate keys and values.

    A null value counts as not given. A key required by ``command`` and
    not given stays out of the result. A key of generated data given
    together with views is rejected.
    """
    options = {opt.key: opt for opt in _options(command)}
    given = {}
    for source in (file_cfg, flag_cfg):
        for key, value in source.items():
            if key not in options:
                raise ConfigError(f"unknown config key {key!r} for command {command}")
            if value is not None:
                given[key] = value
    stray = [key for key in given if options[key].commands == _SYNTH]
    if stray and ("features" in given or "labels" in given):
        raise ConfigError(f"config key {stray[0]!r} applies to generated data, not to CSV views")
    merged = {}
    for key, opt in options.items():
        if key not in given and command in opt.required:
            continue
        value = given.get(key, opt.default)
        merged[key] = None if value is None else opt.rule(value, key)
    return merged


# ---------------------------------------------------------------------------
# the dataset


def _dataset(cfg: dict) -> MultiViewDataset:
    """The CSV views that ``features`` and ``labels`` pair up, or generated data.

    Data is generated when neither key is given. The views' class count is
    their largest label.
    """
    features, labels = cfg.get("features") or [], cfg.get("labels") or []
    if not features and not labels:
        keys = [field.name for field in dataclasses.fields(SyntheticSpec)]
        try:
            spec = SyntheticSpec(**{key: cfg[key] for key in keys})
        except ValueError as exc:  # the generator needs two classes and two samples each
            raise ConfigError(f"synthetic data: {exc}") from None
        return gen_synthetic(spec)
    if len(features) != len(labels):
        raise ConfigError(f"config keys 'features' and 'labels' pair one-to-one, "
                          f"got {len(features)} and {len(labels)} files")
    views = tuple(load_view_csv(f, l) for f, l in zip(features, labels))
    return MultiViewDataset(views, max(int(v.labels.max()) for v in views))


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: dict) -> int:
    ds = _dataset(cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, view in enumerate(ds.views, start=1):
        fpath = os.path.join(out_dir, f"view{i}_features.csv")
        lpath = os.path.join(out_dir, f"view{i}_labels.csv")
        write_view_csv(view, fpath, lpath)
        paths.extend([fpath, lpath])
    print(
        f"gen: {ds.view_count} views, {ds.views[0].n} samples/view, "
        f"{ds.class_count} classes -> {', '.join(paths)}"
    )
    return 0


def cmd_embed(cfg: dict) -> int:
    ds = _dataset(cfg)
    emb, art = embedding.fit(ds, cfg["k"], cfg["dim"], cfg["t"])
    paths = embedding.export_embedding(emb, art, cfg["out_dir"], seed=cfg["seed"])
    if cfg.get("dump_graph"):
        graph_path = os.path.join(cfg["out_dir"], "graph_w.csv")
        write_matrix_csv(art.graph.dense(), graph_path)
        paths.append(graph_path)
    # Y^T D Y = I makes the double sum of W_ab ||y_a - y_b||^2 equal 2 * sum(lambda).
    xi = 2.0 * float(emb.eigenvalues.sum())
    print(
        f"embed: N={emb.y.shape[0]} dim={emb.dim} objective={xi:.6f} "
        f"-> {', '.join(paths)}"
    )
    return 0


def cmd_train_mhon(cfg: dict) -> int:
    ds = _dataset(cfg)
    emb, art = embedding.fit(ds, cfg["k"], cfg["dim"], cfg["t"])
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    hyper = mhon_hyper(cfg, cfg["seed"])
    paths = embedding.export_embedding(emb, art, out_dir, seed=cfg["seed"])
    views = (0,) if cfg["mhon_mode"] == "concat" else range(1, ds.view_count + 1)
    for view in views:
        model = mhon.train_view(ds, view, emb.per_view, art.norm_stats, hyper)
        path = os.path.join(out_dir, "mhon_concat.json" if view == 0 else f"mhon_view{view}.json")
        mhon.save_model(model, path)
        paths.append(path)
        feats, labs = ds.view_data(view)
        acc = accuracy(mhon.predict(model, feats), labs)
        tag = "concat" if view == 0 else f"view {view}"
        print(f"train-mhon: {tag} train_accuracy={acc:.6f} -> {path}")
    print(f"train-mhon: wrote {', '.join(paths)}")
    return 0


def cmd_eval(cfg: dict) -> int:
    models = [mhon.load_model(p) for p in cfg["model"]]
    ds = _dataset(cfg)
    views = ds.views
    if len(models) == 1 and models[0].view_id == 0 and len(views) > 1:
        # One concat model scores all views side by side.
        views = [View(*ds.view_data(0))]
    if len(models) != len(views):
        raise ConfigError(
            f"got {len(models)} models but {len(views)} views; they pair one-to-one"
        )
    lines = []
    for model, view in zip(models, views):
        pred = mhon.predict(model, view.features)
        acc = accuracy(pred, view.labels)
        label = "concat" if model.view_id == 0 else f"view {model.view_id}"
        print(f"eval: {label} accuracy={acc:.6f} n={view.n}")
        lines.append((model.view_id, view.n, acc))
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write("view,n,accuracy\n")
            for view_id, n, acc in lines:
                fh.write(f"{view_id},{n},{acc:.6f}\n")
        print(f"eval: wrote {cfg['out']}")
    return 0


def cmd_benchmark(cfg: dict) -> int:
    ds = _dataset(cfg)
    rows, runs = run_benchmark(ds, cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.csv")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(render_report_csv(rows))
    runs_path = os.path.join(out_dir, "report_runs.json")
    echo = {k: v for k, v in cfg.items() if k not in ("features", "labels")}
    echo["class_count"] = ds.class_count
    with open(runs_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"config": echo, "runs": [dataclasses.asdict(r) for r in runs]},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(render_report_csv(rows), end="")
    print(f"benchmark: wrote {report_path} and {runs_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic paired-view dataset"),
    "embed": (cmd_embed, "fit the multi-view embedding from CSVs"),
    "train-mhon": (cmd_train_mhon, "fit embedding and train per-view networks"),
    "eval": (cmd_eval, "evaluate saved models on labeled views"),
    "benchmark": (cmd_benchmark, "run the repeated split/fit/eval protocol"),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose command-line errors are one ``ConfigError`` line.

    Its subparsers are of the same class; ``--help`` still prints and exits.
    """

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mvle",
        description="Multi-view subspace learning benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON object of config keys")
        for opt in _options(command):
            # Flags stay text (no type= or choices=): the option's rule checks them.
            p.add_argument(opt.flag, dest=opt.key, action=opt.action, default=None,
                           help=opt.help)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        file_cfg = load_config_file(args.config) if args.config else {}
        flag_cfg = {}
        for opt in _options(command):
            value = getattr(args, opt.key)
            flag_cfg[opt.key] = _Text(value) if isinstance(value, str) else value
        cfg = merge_config(command, file_cfg, flag_cfg)
        for opt in _options(command):
            if command in opt.required and not cfg.get(opt.key):
                raise ConfigError(f"command {command} needs {opt.key!r} ({opt.flag})")
        return _COMMANDS[command][0](cfg)
    except (MvleError, OSError, ValueError, MemoryError) as exc:
        # NumPy's failed allocations raise a private MemoryError subclass.
        kind = MemoryError if isinstance(exc, MemoryError) else type(exc)
        print(f"error: {kind.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
