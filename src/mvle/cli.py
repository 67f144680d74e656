"""Command-line interface: gen, embed, train-mhon, eval, benchmark.

Every command reads an optional flat JSON config (``--config``) and accepts
the same keys as long-form flags; flags win. Unknown config keys are
rejected by name. Failures print a single machine-parsable line to stderr
(``error: <Type>: <message>``) and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import embedding, mhon
from .bench import METHODS, mhon_hyper, run_benchmark
from .dataset import (
    NONLINEARITY_MODES,
    MultiViewDataset,
    SyntheticSpec,
    View,
    gen_synthetic,
    load_view_csv,
    write_view_csv,
)
from .errors import ConfigError, MvleError
from .metrics import accuracy, render_report_csv

MHON_MODES = ("per-view", "concat")


# ---------------------------------------------------------------------------
# config validation


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        value = int(value)
    return int(value)


def _positive_int(value, key: str) -> int:
    v = _as_int(value, key)
    if v < 1:
        raise ConfigError(f"config key {key!r} must be positive, got {v}")
    return v


def _nonneg_int(value, key: str) -> int:
    v = _as_int(value, key)
    if v < 0:
        raise ConfigError(f"config key {key!r} must be >= 0, got {v}")
    return v


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _positive_float(value, key: str) -> float:
    v = _as_float(value, key)
    if v <= 0:
        raise ConfigError(f"config key {key!r} must be positive, got {v}")
    return v


def _nonneg_float(value, key: str) -> float:
    v = _as_float(value, key)
    if v < 0:
        raise ConfigError(f"config key {key!r} must be >= 0, got {v}")
    return v


def _fraction(value, key: str) -> float:
    v = _as_float(value, key)
    if not 0.0 < v < 1.0:
        raise ConfigError(f"config key {key!r} must be in (0, 1), got {v}")
    return v


def _string(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config key {key!r} must be a nonempty string, got {value!r}")
    return value


def _choice(options):
    def check(value, key: str) -> str:
        v = _string(value, key)
        if v not in options:
            raise ConfigError(
                f"config key {key!r} must be one of {list(options)}, got {v!r}"
            )
        return v
    return check


def _bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be a boolean, got {value!r}")
    return value


def _int_list(value, key: str) -> list[int]:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"config key {key!r} must be a nonempty list of integers")
    out = []
    for item in value:
        if isinstance(item, str):
            try:
                item = int(item.strip())
            except ValueError:
                raise ConfigError(
                    f"config key {key!r} has non-integer entry {item!r}"
                ) from None
        out.append(_positive_int(item, key))
    return out


def _view_dims(value, key: str) -> list[int]:
    dims = _int_list(value, key)
    if len(dims) != 2:
        raise ConfigError(f"config key {key!r} needs exactly 2 entries, got {len(dims)}")
    return dims


def _str_list(value, key: str) -> list[str]:
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"config key {key!r} must be a nonempty list of strings")
    return [_string(v, key) for v in value]


def _views_list(value, key: str) -> list[dict]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(
            f"config key {key!r} must be a nonempty list of "
            "{'features': path, 'labels': path} entries"
        )
    out = []
    for i, entry in enumerate(value):
        if (
            not isinstance(entry, dict)
            or set(entry) != {"features", "labels"}
        ):
            raise ConfigError(
                f"config key {key!r} entry {i} must have exactly the keys "
                "'features' and 'labels'"
            )
        out.append(
            {
                "features": _string(entry["features"], key),
                "labels": _string(entry["labels"], key),
            }
        )
    return out


_SYNTH_KEYS = {
    "class_count": _positive_int,
    "samples_per_class": _positive_int,
    "view_dims": _view_dims,
    "noise_sigma": _nonneg_float,
    "nonlinearity": _choice(NONLINEARITY_MODES),
}

_MHON_KEYS = {
    "h1": _positive_int,
    "h2": _positive_int,
    "mhon_lambda": _positive_float,
    "activation": _choice(mhon.ACTIVATIONS),
    "mhon_mode": _choice(MHON_MODES),
}

_SCHEMAS: dict[str, dict] = {
    "gen": {
        **_SYNTH_KEYS,
        "seed": _nonneg_int,
        "out_dir": _string,
    },
    "embed": {
        "views": _views_list,
        "class_count": _positive_int,
        "k": _positive_int,
        "t": _positive_float,
        "dim": _positive_int,
        "seed": _nonneg_int,
        "out_dir": _string,
        "dump_graph": _bool,
    },
    "train-mhon": {
        "views": _views_list,
        "class_count": _positive_int,
        "k": _positive_int,
        "t": _positive_float,
        "dim": _positive_int,
        "seed": _nonneg_int,
        "out_dir": _string,
        **_MHON_KEYS,
    },
    "eval": {
        "models": _str_list,
        "views": _views_list,
        "out": _string,
    },
    "benchmark": {
        "views": _views_list,
        "methods": _str_list,
        "dims": _int_list,
        "k": _positive_int,
        "t": _positive_float,
        "train_fraction": _fraction,
        "repeats": _positive_int,
        "seed": _nonneg_int,
        "elm_hidden": _positive_int,
        "elm_lambda": _positive_float,
        "vc_lambda": _positive_float,
        "out_dir": _string,
        **_SYNTH_KEYS,
        **_MHON_KEYS,
    },
}

_DEFAULTS: dict[str, dict] = {
    "gen": {
        "class_count": 4,
        "samples_per_class": 60,
        "view_dims": [20, 15],
        "noise_sigma": 0.3,
        "nonlinearity": "swissroll-like",
        "seed": 7,
        "out_dir": ".",
    },
    "embed": {
        "class_count": None,
        "k": 10,
        "t": None,
        "dim": 4,
        "seed": 7,
        "out_dir": ".",
        "dump_graph": False,
    },
    "train-mhon": {
        "class_count": None,
        "k": 10,
        "t": None,
        "dim": 4,
        "seed": 7,
        "out_dir": ".",
        "h1": None,
        "h2": 256,
        "mhon_lambda": 1e-2,
        "activation": "softsign",
        "mhon_mode": "per-view",
    },
    "eval": {
        "out": None,
    },
    "benchmark": {
        "views": None,
        # mvda-vc is opt-in: it requires equal view dims, which the default
        # synthetic dataset (20/15) deliberately does not have.
        "methods": [m for m in METHODS if m != "mvda-vc"],
        "dims": [2, 4, 8, 16],
        "k": 10,
        "t": None,
        "train_fraction": 2.0 / 3.0,
        "repeats": 5,
        "seed": 7,
        "elm_hidden": 256,
        "elm_lambda": 1e-2,
        "vc_lambda": 1.0,
        "out_dir": ".",
        "class_count": 4,
        "samples_per_class": 60,
        "view_dims": [20, 15],
        "noise_sigma": 0.3,
        "nonlinearity": "swissroll-like",
        "h1": None,
        "h2": 256,
        "mhon_lambda": 1e-2,
        "activation": "softsign",
        "mhon_mode": "per-view",
    },
}


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def merge_config(command: str, file_cfg: dict, flag_cfg: dict) -> dict:
    """Defaults, then config file, then flags; validate keys and values."""
    schema = _SCHEMAS[command]
    merged = dict(_DEFAULTS[command])
    for source in (file_cfg, flag_cfg):
        for key, value in source.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r} for command {command}")
            merged[key] = value
    for key, value in merged.items():
        if value is None:
            continue
        merged[key] = schema[key](value, key)
    return merged


# ---------------------------------------------------------------------------
# dataset assembly helpers


def _load_dataset(cfg: dict) -> MultiViewDataset:
    views = []
    for entry in cfg["views"]:
        views.append(load_view_csv(entry["features"], entry["labels"]))
    class_count = cfg.get("class_count")
    if class_count is None:
        class_count = max(int(v.labels.max()) for v in views)
    return MultiViewDataset(tuple(views), class_count)


def _synthetic_from_cfg(cfg: dict) -> MultiViewDataset:
    spec = SyntheticSpec(
        class_count=cfg["class_count"],
        samples_per_class=cfg["samples_per_class"],
        view_dims=tuple(cfg["view_dims"]),
        noise_sigma=cfg["noise_sigma"],
        nonlinearity=cfg["nonlinearity"],
        seed=cfg["seed"],
    )
    return gen_synthetic(spec)


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: dict) -> int:
    ds = _synthetic_from_cfg(cfg)
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
    ds = _load_dataset(cfg)
    emb, art = embedding.fit(ds, cfg["k"], cfg["dim"], cfg["t"])
    paths = embedding.export_embedding(emb, art, cfg["out_dir"], seed=cfg["seed"])
    if cfg.get("dump_graph"):
        graph_path = os.path.join(cfg["out_dir"], "graph_w.csv")
        with open(graph_path, "w", encoding="utf-8") as fh:
            for row in art.graph.dense().w:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
        paths.append(graph_path)
    # Y^T D Y = I makes the double sum of W_ab ||y_a - y_b||^2 equal 2 * sum(lambda).
    xi = 2.0 * float(emb.eigenvalues.sum())
    print(
        f"embed: N={emb.y.shape[0]} dim={emb.dim} objective={xi:.6f} "
        f"-> {', '.join(paths)}"
    )
    return 0


def cmd_train_mhon(cfg: dict) -> int:
    ds = _load_dataset(cfg)
    emb, art = embedding.fit(ds, cfg["k"], cfg["dim"], cfg["t"])
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    hyper = mhon_hyper(cfg, cfg["seed"])
    paths = embedding.export_embedding(emb, art, out_dir, seed=cfg["seed"])
    if cfg["mhon_mode"] == "concat":
        models = [mhon.train_concat(ds, emb.per_view, art.norm_stats, hyper)]
    else:
        models = [
            mhon.train(
                view.features,
                emb.per_view[i],
                view.labels,
                ds.class_count,
                art.norm_stats[i],
                hyper,
                view_id=i + 1,
            )
            for i, view in enumerate(ds.views)
        ]
    for model in models:
        name = "mhon_concat.json" if model.view_id == 0 else f"mhon_view{model.view_id}.json"
        path = os.path.join(out_dir, name)
        mhon.save_model(model, path)
        paths.append(path)
        feats, labs = ds.view_data(model.view_id)
        acc = accuracy(mhon.predict(model, feats), labs)
        tag = "concat" if model.view_id == 0 else f"view {model.view_id}"
        print(f"train-mhon: {tag} train_accuracy={acc:.6f} -> {path}")
    print(f"train-mhon: wrote {', '.join(paths)}")
    return 0


def cmd_eval(cfg: dict) -> int:
    if not cfg.get("models"):
        raise ConfigError("config key 'models' is required for eval")
    if not cfg.get("views"):
        raise ConfigError("config key 'views' is required for eval")
    models = [mhon.load_model(p) for p in cfg["models"]]
    views = [load_view_csv(v["features"], v["labels"]) for v in cfg["views"]]
    if len(models) == 1 and models[0].view_id == 0 and len(views) > 1:
        # One concat model scores all views side by side.
        ds = MultiViewDataset(views=tuple(views), class_count=models[0].class_count)
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
    if cfg.get("views"):
        ds = _load_dataset(cfg)
    else:
        ds = _synthetic_from_cfg(cfg)
    rows, runs = run_benchmark(ds, cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.csv")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(render_report_csv(rows))
    runs_path = os.path.join(out_dir, "report_runs.json")
    echo = {k: v for k, v in cfg.items() if k != "views"}
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


def _add_views_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", action="append", metavar="PATH",
                   help="features CSV; repeat once per view, paired with --labels")
    p.add_argument("--labels", action="append", metavar="PATH",
                   help="labels CSV; repeat once per view, paired with --features")


def _views_from_flags(args) -> list[dict] | None:
    feats = getattr(args, "features", None)
    labs = getattr(args, "labels", None)
    if feats is None and labs is None:
        return None
    if feats is None or labs is None or len(feats) != len(labs):
        raise ConfigError(
            "--features and --labels must be given the same number of times"
        )
    return [{"features": f, "labels": l} for f, l in zip(feats, labs)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvle",
        description="Multi-view subspace learning benchmark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic paired-view dataset")
    p_gen.add_argument("--config", metavar="PATH")
    p_gen.add_argument("--class-count", type=int, dest="class_count")
    p_gen.add_argument("--samples-per-class", type=int, dest="samples_per_class")
    p_gen.add_argument("--view-dims", dest="view_dims", metavar="D1,D2")
    p_gen.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p_gen.add_argument("--nonlinearity", choices=list(NONLINEARITY_MODES))
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out-dir", dest="out_dir")

    p_embed = sub.add_parser("embed", help="fit the multi-view embedding from CSVs")
    p_embed.add_argument("--config", metavar="PATH")
    _add_views_flags(p_embed)
    p_embed.add_argument("--class-count", type=int, dest="class_count")
    p_embed.add_argument("--k", type=int)
    p_embed.add_argument("--t", type=float)
    p_embed.add_argument("--dim", type=int)
    p_embed.add_argument("--seed", type=int)
    p_embed.add_argument("--out-dir", dest="out_dir")
    p_embed.add_argument("--dump-graph", dest="dump_graph", action="store_true",
                         default=None, help="also write the joint weight matrix as CSV")

    p_train = sub.add_parser("train-mhon", help="fit embedding and train per-view networks")
    p_train.add_argument("--config", metavar="PATH")
    _add_views_flags(p_train)
    p_train.add_argument("--class-count", type=int, dest="class_count")
    p_train.add_argument("--k", type=int)
    p_train.add_argument("--t", type=float)
    p_train.add_argument("--dim", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--h1", type=int)
    p_train.add_argument("--h2", type=int)
    p_train.add_argument("--mhon-lambda", type=float, dest="mhon_lambda")
    p_train.add_argument("--activation")
    p_train.add_argument("--mhon-mode", dest="mhon_mode", choices=list(MHON_MODES))
    p_train.add_argument("--out-dir", dest="out_dir")

    p_eval = sub.add_parser("eval", help="evaluate saved models on labeled views")
    p_eval.add_argument("--config", metavar="PATH")
    p_eval.add_argument("--model", action="append", dest="models", metavar="PATH",
                        help="model JSON; repeat once per view")
    _add_views_flags(p_eval)
    p_eval.add_argument("--out", metavar="PATH")

    p_bench = sub.add_parser("benchmark", help="run the repeated split/fit/eval protocol")
    p_bench.add_argument("--config", metavar="PATH")
    _add_views_flags(p_bench)
    p_bench.add_argument("--class-count", type=int, dest="class_count")
    p_bench.add_argument("--samples-per-class", type=int, dest="samples_per_class")
    p_bench.add_argument("--view-dims", dest="view_dims", metavar="D1,D2")
    p_bench.add_argument("--noise-sigma", type=float, dest="noise_sigma")
    p_bench.add_argument("--nonlinearity", choices=list(NONLINEARITY_MODES))
    p_bench.add_argument("--methods", metavar="M1,M2,...")
    p_bench.add_argument("--dims", metavar="D1,D2,...")
    p_bench.add_argument("--k", type=int)
    p_bench.add_argument("--t", type=float)
    p_bench.add_argument("--train-fraction", type=float, dest="train_fraction")
    p_bench.add_argument("--repeats", type=int)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--elm-hidden", type=int, dest="elm_hidden")
    p_bench.add_argument("--elm-lambda", type=float, dest="elm_lambda")
    p_bench.add_argument("--vc-lambda", type=float, dest="vc_lambda")
    p_bench.add_argument("--h1", type=int)
    p_bench.add_argument("--h2", type=int)
    p_bench.add_argument("--mhon-lambda", type=float, dest="mhon_lambda")
    p_bench.add_argument("--activation")
    p_bench.add_argument("--mhon-mode", dest="mhon_mode", choices=list(MHON_MODES))
    p_bench.add_argument("--out-dir", dest="out_dir")

    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "embed": cmd_embed,
    "train-mhon": cmd_train_mhon,
    "eval": cmd_eval,
    "benchmark": cmd_benchmark,
}

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        file_cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
        flag_cfg = {}
        for key in _SCHEMAS[command]:
            value = getattr(args, key, None)
            if value is not None:
                flag_cfg[key] = value
        views = _views_from_flags(args)
        if views is not None:
            flag_cfg["views"] = views
        cfg = merge_config(command, file_cfg, flag_cfg)
        if command in ("embed", "train-mhon") and not cfg.get("views"):
            raise ConfigError(f"command {command} needs views (--features/--labels)")
        return _COMMANDS[command](cfg)
    except (MvleError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
