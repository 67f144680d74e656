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
import time

import numpy as np

from . import embedding, mhon
from .baselines import (
    LinearProjector,
    cca_lda_fit,
    elm_predict,
    elm_train,
    mvda_fit,
    pls_fit,
)
from .dataset import (
    NONLINEARITY_MODES,
    MultiViewDataset,
    SyntheticSpec,
    View,
    gen_synthetic,
    load_view_csv,
    split,
    write_view_csv,
    zscore_apply,
    zscore_fit,
)
from .errors import ClassTooSmallError, ConfigError, MvleError, UnknownMethodError
from .metrics import (
    EvalReport,
    ReportRow,
    accuracy,
    aggregate_reports,
    render_report_csv,
    s_b,
    s_w,
)

METHODS = ("mvle", "cca-lda", "pls", "mvda", "mvda-vc", "raw")
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


def _nonlinearity(value, key: str) -> str:
    v = _string(value, key)
    if v not in NONLINEARITY_MODES:
        raise ConfigError(
            f"config key {key!r} must be one of {list(NONLINEARITY_MODES)}, got {v!r}"
        )
    return v


def _mhon_mode(value, key: str) -> str:
    v = _string(value, key)
    if v not in MHON_MODES:
        raise ConfigError(
            f"config key {key!r} must be one of {list(MHON_MODES)}, got {v!r}"
        )
    return v


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
    "nonlinearity": _nonlinearity,
}

_MHON_KEYS = {
    "h1": _positive_int,
    "h2": _positive_int,
    "mhon_lambda": _positive_float,
    "activation": _string,
    "mhon_mode": _mhon_mode,
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


def _mhon_hyper(cfg: dict, seed: int) -> mhon.MhonHyper:
    return mhon.MhonHyper(
        h1=cfg["h1"],
        h2=cfg["h2"],
        ridge_lambda=cfg["mhon_lambda"],
        seed=seed,
        activation=cfg["activation"],
    )


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
    hyper = _mhon_hyper(cfg, cfg["seed"])
    paths = embedding.export_embedding(emb, art, out_dir, seed=cfg["seed"])
    if cfg["mhon_mode"] == "concat":
        models = [_train_concat_model(ds, emb, art, hyper)]
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
        if model.view_id == 0:
            feats = np.hstack([v.features for v in ds.views])
            labs = ds.views[0].labels
        else:
            feats = ds.views[model.view_id - 1].features
            labs = ds.views[model.view_id - 1].labels
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
    if len(models) != len(views):
        raise ConfigError(
            f"got {len(models)} models but {len(views)} views; they pair one-to-one"
        )
    lines = []
    for i, (model, view) in enumerate(zip(models, views), start=1):
        pred = mhon.predict(model, view.features)
        acc = accuracy(pred, view.labels)
        label = "concat" if model.view_id == 0 else f"view {model.view_id or i}"
        print(f"eval: {label} accuracy={acc:.6f} n={view.n}")
        lines.append((model.view_id if model.view_id else i, view.n, acc))
    if cfg.get("out"):
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write("view,n,accuracy\n")
            for view_id, n, acc in lines:
                fh.write(f"{view_id},{n},{acc:.6f}\n")
        print(f"eval: wrote {cfg['out']}")
    return 0


def cmd_benchmark(cfg: dict) -> int:
    if cfg.get("views"):
        ds = _load_dataset({"views": cfg["views"], "class_count": cfg.get("class_count")})
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
# benchmark engine


def _train_concat_model(ds, emb, art, hyper) -> mhon.MhonModel:
    from .dataset import NormStats
    from .errors import UnpairedViewsError

    ns = [v.n for v in ds.views]
    if len(set(ns)) != 1:
        raise UnpairedViewsError(
            f"concat mode needs paired views with equal sample counts, got {ns}"
        )
    for v in ds.views[1:]:
        if not np.array_equal(v.labels, ds.views[0].labels):
            raise UnpairedViewsError("concat mode needs one shared label sequence")
    feats = np.hstack([v.features for v in ds.views])
    targets = np.hstack(list(emb.per_view))
    stats = NormStats(
        mean=np.concatenate([s.mean for s in art.norm_stats]),
        std=np.concatenate([s.std for s in art.norm_stats]),
    )
    return mhon.train(
        feats, targets, ds.views[0].labels, ds.class_count, stats, hyper, view_id=0
    )


def _fit_linear(method: str, norm_train: MultiViewDataset, dim: int, cfg: dict) -> LinearProjector:
    if method == "cca-lda":
        return cca_lda_fit(norm_train, dim)
    if method == "pls":
        return pls_fit(norm_train, dim)
    if method == "mvda":
        return mvda_fit(norm_train, dim)
    if method == "mvda-vc":
        return mvda_fit(norm_train, dim, view_consistency_lambda=cfg["vc_lambda"])
    raise UnknownMethodError(f"unknown method {method!r}")


def _spread_metrics(representation: np.ndarray, labels) -> tuple[float | None, float | None]:
    try:
        return s_w(representation, labels), s_b(representation, labels)
    except ClassTooSmallError:
        return None, None


def run_benchmark(
    ds: MultiViewDataset, cfg: dict
) -> tuple[list[ReportRow], list[EvalReport]]:
    """Split/fit/evaluate every (method, dim) cell over the repeat protocol.

    Returns aggregated report rows plus the per-run evaluation records. The
    ``raw`` method ignores the dim sweep and reports dim 0 (native width).
    """
    for method in cfg["methods"]:
        if method not in METHODS:
            raise UnknownMethodError(
                f"unknown method {method!r}; valid: {', '.join(METHODS)}"
            )
    runs: list[EvalReport] = []
    repeats = cfg["repeats"]
    for rep in range(repeats):
        rep_seed = cfg["seed"] + rep
        train, test = split(ds, cfg["train_fraction"], rep_seed)
        stats = [zscore_fit(v.features) for v in train.views]
        norm_train_feats = [
            zscore_apply(v.features, s) for v, s in zip(train.views, stats)
        ]
        norm_test_feats = [
            zscore_apply(v.features, s) for v, s in zip(test.views, stats)
        ]
        norm_train_ds = MultiViewDataset(
            tuple(
                View(f, v.labels) for f, v in zip(norm_train_feats, train.views)
            ),
            ds.class_count,
        )

        def record(method, view, dim, acc, rep_feats, rep_labels, wall):
            sw, sb = _spread_metrics(rep_feats, rep_labels)
            runs.append(
                EvalReport(
                    method=method,
                    view=view,
                    dim=dim,
                    seed=rep_seed,
                    accuracy=acc,
                    s_w=sw,
                    s_b=sb,
                    wall_time=wall,
                )
            )

        for method in cfg["methods"]:
            if method == "raw":
                for i in range(ds.view_count):
                    t0 = time.perf_counter()
                    clf = elm_train(
                        norm_train_feats[i],
                        train.views[i].labels,
                        ds.class_count,
                        hidden=cfg["elm_hidden"],
                        ridge_lambda=cfg["elm_lambda"],
                        seed=rep_seed,
                    )
                    acc = accuracy(
                        elm_predict(clf, norm_test_feats[i]), test.views[i].labels
                    )
                    record(
                        "raw", i + 1, 0, acc,
                        norm_test_feats[i], test.views[i].labels,
                        time.perf_counter() - t0,
                    )
            elif method == "mvle":
                for dim in cfg["dims"]:
                    t0 = time.perf_counter()
                    emb, art = embedding.fit(train, cfg["k"], dim, cfg["t"])
                    hyper = _mhon_hyper(cfg, rep_seed)
                    fit_share = (time.perf_counter() - t0) / max(train.view_count, 1)
                    if cfg["mhon_mode"] == "concat":
                        t1 = time.perf_counter()
                        model = _train_concat_model(train, emb, art, hyper)
                        test_feats = np.hstack([v.features for v in test.views])
                        pred = mhon.predict(model, test_feats)
                        acc = accuracy(pred, test.views[0].labels)
                        record(
                            "mvle", 0, dim, acc,
                            mhon.embed(model, test_feats), test.views[0].labels,
                            fit_share * train.view_count
                            + time.perf_counter() - t1,
                        )
                        continue
                    for i in range(train.view_count):
                        t1 = time.perf_counter()
                        model = mhon.train(
                            train.views[i].features,
                            emb.per_view[i],
                            train.views[i].labels,
                            ds.class_count,
                            art.norm_stats[i],
                            hyper,
                            view_id=i + 1,
                        )
                        acc = accuracy(
                            mhon.predict(model, test.views[i].features),
                            test.views[i].labels,
                        )
                        record(
                            "mvle", i + 1, dim, acc,
                            mhon.embed(model, test.views[i].features),
                            test.views[i].labels,
                            fit_share + time.perf_counter() - t1,
                        )
            else:
                for dim in cfg["dims"]:
                    t0 = time.perf_counter()
                    proj = _fit_linear(method, norm_train_ds, dim, cfg)
                    fit_share = (time.perf_counter() - t0) / max(ds.view_count, 1)
                    for i in range(ds.view_count):
                        t1 = time.perf_counter()
                        tr_scores = norm_train_feats[i] @ proj.projections[i]
                        te_scores = norm_test_feats[i] @ proj.projections[i]
                        clf = elm_train(
                            tr_scores,
                            train.views[i].labels,
                            ds.class_count,
                            hidden=cfg["elm_hidden"],
                            ridge_lambda=cfg["elm_lambda"],
                            seed=rep_seed,
                        )
                        acc = accuracy(
                            elm_predict(clf, te_scores), test.views[i].labels
                        )
                        record(
                            method, i + 1, dim, acc,
                            te_scores, test.views[i].labels,
                            fit_share + time.perf_counter() - t1,
                        )

    return aggregate_reports(runs), runs


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

_FLAG_KEYS = {
    "gen": ["class_count", "samples_per_class", "view_dims", "noise_sigma",
            "nonlinearity", "seed", "out_dir"],
    "embed": ["class_count", "k", "t", "dim", "seed", "out_dir", "dump_graph"],
    "train-mhon": ["class_count", "k", "t", "dim", "seed", "out_dir",
                   "h1", "h2", "mhon_lambda", "activation", "mhon_mode"],
    "eval": ["models", "out"],
    "benchmark": ["class_count", "samples_per_class", "view_dims", "noise_sigma",
                  "nonlinearity", "methods", "dims", "k", "t", "train_fraction",
                  "repeats", "seed", "elm_hidden", "elm_lambda", "vc_lambda",
                  "h1", "h2", "mhon_lambda", "activation", "mhon_mode", "out_dir"],
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        file_cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
        flag_cfg = {}
        for key in _FLAG_KEYS[command]:
            value = getattr(args, key, None)
            if value is not None:
                flag_cfg[key] = value
        if command in ("embed", "train-mhon", "eval", "benchmark"):
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
