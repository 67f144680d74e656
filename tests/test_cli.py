"""Command-line interface tests: config handling, commands, benchmark."""

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mvle
from mvle.baselines import elm_predict, elm_train
from mvle.cli import build_parser, main, merge_config, run_benchmark
from mvle.dataset import (
    MultiViewDataset,
    SyntheticSpec,
    View,
    gen_synthetic,
    load_view_csv,
    split,
    zscore_apply,
    zscore_fit,
)
from mvle.embedding import fit
from mvle.errors import ConfigError, UnknownMethodError
from mvle.linalg import LANCZOS_MIN_ORDER
from mvle.metrics import REPORT_HEADER, accuracy
from oracle import dense_graph, objective


SMALL_GEN = [
    "--class-count", "4", "--samples-per-class", "12",
    "--view-dims", "8,6", "--seed", "3",
]


def gen_small(tmp_path, sub="data", seed="3"):
    out = tmp_path / sub
    args = ["gen"] + SMALL_GEN + ["--out-dir", str(out)]
    args[args.index("--seed") + 1] = seed
    assert main(args) == 0
    return out


def view_flags(data_dir, count=2):
    flags = []
    for i in range(1, count + 1):
        flags += [
            "--features", str(data_dir / f"view{i}_features.csv"),
            "--labels", str(data_dir / f"view{i}_labels.csv"),
        ]
    return flags


def load_views(data_dir):
    views = tuple(
        load_view_csv(data_dir / f"view{i}_features.csv", data_dir / f"view{i}_labels.csv")
        for i in (1, 2)
    )
    return MultiViewDataset(views=views, class_count=4)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = merge_config("benchmark", {}, {})
        assert cfg["k"] == 10
        assert cfg["dims"] == [2, 4, 8, 16]
        assert cfg["repeats"] == 5
        assert cfg["seed"] == 7
        assert abs(cfg["train_fraction"] - 2.0 / 3.0) < 1e-15
        assert "mvda-vc" not in cfg["methods"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            merge_config("gen", {"bananas": 1}, {})
        assert "bananas" in str(err.value)

    def test_flags_beat_config_file(self):
        cfg = merge_config("embed", {"k": 5, "dim": 2}, {"k": 9})
        assert cfg["k"] == 9
        assert cfg["dim"] == 2

    def test_null_value_means_default(self):
        cfg = merge_config("embed", {"k": None, "dim": 2}, {"dim": None})
        assert cfg["k"] == 10
        assert cfg["dim"] == 2

    def test_value_validation(self):
        with pytest.raises(ConfigError):
            merge_config("benchmark", {"repeats": 0}, {})
        with pytest.raises(ConfigError):
            merge_config("benchmark", {"train_fraction": 1.5}, {})
        with pytest.raises(ConfigError):
            merge_config("embed", {"k": -3}, {})


SYNTH_DEFAULTS = {
    "class_count": 4, "samples_per_class": 60, "view_dims": [20, 15],
    "noise_sigma": 0.3, "nonlinearity": "swissroll-like",
}
FIT_DEFAULTS = {"k": 10, "t": None, "seed": 7, "out_dir": "."}
MHON_DEFAULTS = {
    "h1": None, "h2": 256, "mhon_lambda": 1e-2, "activation": "softsign",
    "mhon_mode": "per-view",
}
# Every command's config with no config file and no flags, as literal data.
MERGED_DEFAULTS = {
    "gen": {**SYNTH_DEFAULTS, "seed": 7, "out_dir": "."},
    "embed": {**FIT_DEFAULTS, "dim": 4, "dump_graph": False},
    "train-mhon": {**FIT_DEFAULTS, "dim": 4, **MHON_DEFAULTS},
    "eval": {"out": None},
    "benchmark": {
        **FIT_DEFAULTS, **SYNTH_DEFAULTS, **MHON_DEFAULTS,
        "features": None, "labels": None, "methods": ["mvle", "cca-lda", "pls", "mvda", "raw"],
        "dims": [2, 4, 8, 16], "train_fraction": 2.0 / 3.0, "repeats": 5,
        "elm_hidden": 256, "elm_lambda": 1e-2, "vc_lambda": 1.0,
    },
}
SYNTH_FLAGS = {"--class-count", "--samples-per-class", "--view-dims", "--noise-sigma",
               "--nonlinearity", "--seed", "--out-dir"}
FIT_FLAGS = {"--features", "--labels", "--k", "--t", "--seed", "--out-dir"}
MHON_FLAGS = {"--h1", "--h2", "--mhon-lambda", "--activation", "--mhon-mode"}
# Every command's long flags, as literal data; --config and --help are everywhere.
LONG_FLAGS = {
    "gen": SYNTH_FLAGS,
    "embed": FIT_FLAGS | {"--dim", "--dump-graph"},
    "train-mhon": FIT_FLAGS | MHON_FLAGS | {"--dim"},
    "eval": {"--model", "--features", "--labels", "--out"},
    "benchmark": FIT_FLAGS | SYNTH_FLAGS | MHON_FLAGS | {
        "--methods", "--dims", "--train-fraction", "--repeats", "--elm-hidden",
        "--elm-lambda", "--vc-lambda",
    },
}


def subparsers():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestOptionTable:
    @pytest.mark.parametrize("command", sorted(MERGED_DEFAULTS))
    def test_defaults_and_flags_per_command(self, command):
        assert merge_config(command, {}, {}) == MERGED_DEFAULTS[command]
        flags = {s for a in subparsers()[command]._actions
                 for s in a.option_strings if s.startswith("--")}
        assert flags == LONG_FLAGS[command] | {"--config", "--help"}

    def test_every_option_is_documented_in_readme(self):
        readme_path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme_path, encoding="utf-8") as fh:
            readme = fh.read()
        undocumented = set()
        for command, sub in subparsers().items():
            flags = {a.dest: a.option_strings for a in sub._actions
                     if a.option_strings and a.dest not in ("help", "config")}
            # Each flag is its config key with dashes, and each config key has one.
            assert all(strings == ["--" + key.replace("_", "-")]
                       for key, strings in flags.items())
            assert set(merge_config(command, {}, {})) <= set(flags)
            for key, strings in flags.items():
                if f"`{key}`" not in readme and not any(
                    re.search(re.escape(flag) + r"(?![\w-])", readme) for flag in strings
                ):
                    undocumented.add((command, key))
        assert not undocumented


# Bad values, from flags or a config file, each fail with one ConfigError line
# naming the key: (argv, config file text or None, key).
BAD_VALUES = {
    "embed-t-nan": (["embed", "--t", "nan"], None, "t"),
    "train-mhon-lambda-inf": (["train-mhon", "--mhon-lambda", "inf"], None, "mhon_lambda"),
    "gen-noise-nan": (["gen", "--noise-sigma", "nan"], None, "noise_sigma"),
    "benchmark-elm-lambda-inf": (["benchmark", "--elm-lambda", "inf"], None, "elm_lambda"),
    "config-file-t-nan": (["embed"], '{"t": NaN}', "t"),
    "config-file-t-beyond-double": (["embed"], '{"t": 1' + "0" * 400 + "}", "t"),
    "embed-k-text": (["embed", "--k", "abc"], None, "k"),
    "gen-nonlinearity": (["gen", "--nonlinearity", "foo"], None, "nonlinearity"),
    "train-mhon-mode": (["train-mhon", "--mhon-mode", "x"], None, "mhon_mode"),
    "gen-one-class": (["gen", "--class-count", "1"], None, "class_count"),
    "config-file-dims-text": (["benchmark"], '{"dims": ["2", "4"]}', "dims"),
    "config-file-view-dims-text": (["gen"], '{"view_dims": ["8", "6"]}', "view_dims"),
    "benchmark-dims-repeated": (["benchmark", "--dims", "2,2"], None, "dims"),
    "benchmark-methods-repeated": (["benchmark", "--methods", "raw,raw"], None, "methods"),
    "benchmark-methods-unknown": (["benchmark", "--methods", "foo,raw"], None, "methods"),
    "config-file-methods-unknown": (["benchmark"], '{"methods": ["raw", "x"]}', "methods"),
    "config-file-dims-repeated": (["benchmark"], '{"dims": [4, 2, 4]}', "dims"),
    # Generator keys shape generated data only; CSV views are appended below.
    "views-class-count": (["benchmark", "--class-count", "4"], None, "class_count"),
    "views-samples-per-class": (["benchmark", "--samples-per-class", "9"], None,
                                "samples_per_class"),
    "views-view-dims": (["benchmark", "--view-dims", "8,6"], None, "view_dims"),
    "views-noise-sigma": (["benchmark", "--noise-sigma", "0.3"], None, "noise_sigma"),
    "config-file-views-nonlinearity": (["benchmark"], '{"nonlinearity": "linear"}',
                                       "nonlinearity"),
    "config-file-embed-class-count": (["embed"], '{"class_count": 4}', "class_count"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_is_one_config_error_line(tmp_path, capsys, case):
    argv, config_text, key = BAD_VALUES[case]
    if argv[0] != "gen":
        argv = argv + view_flags(gen_small(tmp_path))
    if config_text is not None:
        (tmp_path / "cfg.json").write_text(config_text)
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    capsys.readouterr()
    rc = main(argv + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ConfigError:")
    assert re.search(rf"\b{key}\b", err[0])


# Command lines argparse rejects, each failing with one ConfigError line that
# holds the given text.
BAD_COMMAND_LINES = {
    "unknown-flag": (["embed", "--nope", "3"], "unrecognized arguments: --nope 3"),
    "flag-without-value": (["embed", "--k"], "argument --k: expected one argument"),
    "unknown-command": (["bogus"], "invalid choice: 'bogus'"),
    "no-command": ([], "required: command"),
    "embed-class-count": (["embed", "--class-count", "4"],
                          "unrecognized arguments: --class-count 4"),
}


@pytest.mark.parametrize("case", sorted(BAD_COMMAND_LINES))
def test_bad_command_line_is_one_config_error_line(capsys, case):
    argv, text = BAD_COMMAND_LINES[case]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ConfigError: mvle")
    assert text in err[0]


def test_help_still_prints_and_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--help"])
    assert exc.value.code == 0
    assert "--features" in capsys.readouterr().out


class TestKeyLayout:
    """Views are the list keys ``features`` and ``labels``, models the list key ``model``."""

    @pytest.mark.parametrize("command", ["embed", "train-mhon", "eval"])
    def test_config_file_lists_match_flags(self, tmp_path, capsys, command):
        data = gen_small(tmp_path)
        lists = {key: [str(data / f"view{i}_{key}.csv") for i in (1, 2)]
                 for key in ("features", "labels")}
        argv = [command, "--k", "6", "--dim", "3"]
        if command == "eval":
            models = tmp_path / "models"
            assert main(["train-mhon"] + argv[1:] + view_flags(data)
                        + ["--out-dir", str(models)]) == 0
            lists["model"] = [str(models / f"mhon_view{i}.json") for i in (1, 2)]
            argv = [command]
        capsys.readouterr()
        flags = [s for key, paths in lists.items() for path in paths for s in (f"--{key}", path)]
        self.assert_same_runs(tmp_path, capsys, argv, flags, lists)

    # One view's well-separated classes are several graph components.
    @pytest.mark.filterwarnings("ignore:joint graph has")
    @pytest.mark.parametrize("command", ["embed", "eval"])
    def test_config_file_string_is_one_path(self, tmp_path, capsys, command):
        # A path key's string is one whole path, even when it holds a comma.
        data = gen_small(tmp_path, sub="a,b")
        paths = {"features": str(data / "view1_features.csv"),
                 "labels": str(data / "view1_labels.csv")}
        argv = [command, "--k", "6", "--dim", "3"]
        if command == "eval":
            assert main(["train-mhon"] + argv[1:] + view_flags(data, 1)
                        + ["--out-dir", str(data)]) == 0
            paths["model"] = str(data / "mhon_view1.json")
            argv = [command]
        capsys.readouterr()
        flags = [s for key, path in paths.items() for s in (f"--{key}", path)]
        self.assert_same_runs(tmp_path, capsys, argv, flags, paths)

    @staticmethod
    def assert_same_runs(tmp_path, capsys, argv, flags, config):
        """``argv`` with the path ``flags``, then with ``config`` as a config file:
        same stdout, same files."""
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        runs = []
        for way, extra in (("flags", flags), ("config", ["--config", str(tmp_path / "cfg.json")])):
            out = tmp_path / way
            out.mkdir()
            extra = extra + (["--out", str(out / "eval.csv")] if argv[0] == "eval"
                             else ["--out-dir", str(out)])
            assert main(argv + extra) == 0, capsys.readouterr().err
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            runs.append((stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0][1]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command,key", [
        ("embed", "views"), ("benchmark", "views"), ("eval", "models"),
    ])
    def test_old_list_keys_are_unknown(self, tmp_path, capsys, command, key):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {key: [{"features": "a.csv", "labels": "b.csv"}] if key == "views" else ["m.json"]}
        ))
        rc = main([command, "--config", str(tmp_path / "cfg.json")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: unknown config key {key!r} for command {command}"
        ]


def _empty_features_csv(data):
    for name in ("view1_features.csv", "view1_labels.csv"):
        (data / name).write_bytes(b"")
    return ["embed"] + view_flags(data), "ValueError", "view1_features.csv is empty"


def _non_utf8_features_csv(data):
    (data / "view2_features.csv").write_bytes(b"0.5,\xff\n")
    return ["embed"] + view_flags(data), "ValueError", "view2_features.csv is not UTF-8"


def _non_utf8_config(data):
    (data / "cfg.json").write_bytes(b'{"k": "\xff"}')
    argv = ["embed", "--config", str(data / "cfg.json")] + view_flags(data)
    return argv, "ConfigError", "cfg.json"


def _empty_test_view(data):
    # ceil(0.9 * 2) = 2: both samples of each class train, none is left to test
    argv = ["benchmark", "--samples-per-class", "2", "--train-fraction", "0.9",
            "--repeats", "1"]
    return argv, "ClassTooSmallError", "0.9 leaves no test sample in view 1"


def _label_beyond_int64(data):
    labels = (data / "view1_labels.csv").read_text().splitlines()
    labels[2] = "99999999999999999999"
    (data / "view1_labels.csv").write_text("\n".join(labels) + "\n")
    return ["embed"] + view_flags(data), "LabelOutOfRangeError", "view1_labels.csv: line 3"


def _labels_without_features(data):
    # benchmark generates its data without views; one labels file is half a view
    argv = ["benchmark", "--labels", str(data / "view1_labels.csv")]
    return argv, "ConfigError", "'features' and 'labels' pair one-to-one, got 0 and 1 files"


def _more_features_than_labels(data):
    argv = ["embed"] + view_flags(data)[:-2]
    return argv, "ConfigError", "'features' and 'labels' pair one-to-one, got 2 and 1 files"


def _h2_beyond_numpy_shapes(data):
    # numpy rejects the shape before it allocates anything
    return ["train-mhon", "--h2", str(10**30)] + view_flags(data), "ValueError", "dimension"


# Inputs that are not config values, each failing with one error line. Each
# function takes the data dir and returns (argv, error type, text the line holds).
BAD_INPUTS = {f.__name__.strip("_"): f for f in (
    _empty_features_csv, _non_utf8_features_csv, _non_utf8_config, _empty_test_view,
    _h2_beyond_numpy_shapes, _label_beyond_int64, _labels_without_features,
    _more_features_than_labels,
)}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_one_error_line(tmp_path, capsys, case):
    argv, error_type, text = BAD_INPUTS[case](gen_small(tmp_path))
    capsys.readouterr()
    rc = main(argv + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"error: {error_type}:")
    assert text in err[0]


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A failed NumPy allocation raises a private MemoryError subclass; the
    # line names the public type and keeps NumPy's message.
    class _ArrayMemoryError(MemoryError):
        pass

    message = "Unable to allocate 14.9 GiB for an array with shape (20, 100000000)"

    def exhausted(*args, **kwargs):
        raise _ArrayMemoryError(message)

    monkeypatch.setattr(mvle.mhon, "fit_layer", exhausted)
    data = gen_small(tmp_path)
    capsys.readouterr()
    rc = main(["train-mhon", "--k", "6", "--dim", "3"] + view_flags(data)
              + ["--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: MemoryError: {message}"]


def test_order_beyond_the_limit_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A fit whose cells outnumber linalg.MAX_ORDER stops before it builds the
    # m×m cell weights, so a real one never reaches the crashing factor.
    calls = []
    monkeypatch.setattr(mvle.graph, "_cell_weights", lambda *args: calls.append(args))
    monkeypatch.setattr(mvle.linalg, "MAX_ORDER", 5)
    data = gen_small(tmp_path)
    capsys.readouterr()
    rc = main(["embed", "--k", "6", "--dim", "3"] + view_flags(data)
              + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and calls == []
    assert len(err) == 1
    assert re.match(r"error: OrderTooLargeError: eigenproblem order m = \d+ exceeds the limit 5: ",
                    err[0])


@pytest.mark.parametrize("flag", ["--features", "--labels"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_view_file_is_one_errno_line(tmp_path, capsys, flag, kind):
    # The message is Python's own OSError text, not a reader's rewording of it.
    data = gen_small(tmp_path)
    models = tmp_path / "models"
    assert main(["train-mhon"] + view_flags(data) + ["--k", "6", "--dim", "3",
                                                     "--out-dir", str(models)]) == 0
    bad = tmp_path / "nope.csv"
    if kind == "directory":
        bad.mkdir()
    argv = ["eval", "--model", str(models / "mhon_view1.json")] + view_flags(data, 1)
    argv[argv.index(flag) + 1] = str(bad)
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    if kind == "missing":
        assert err == [f"error: FileNotFoundError: [Errno 2] No such file or directory: '{bad}'"]
    else:
        assert err == [f"error: IsADirectoryError: [Errno 21] Is a directory: '{bad}'"]


class TestGen:
    def test_writes_views(self, tmp_path, capsys):
        out = gen_small(tmp_path)
        capsys.readouterr()
        for i in (1, 2):
            rows = (out / f"view{i}_features.csv").read_text().strip().split("\n")
            assert len(rows) == 48
            labels = (out / f"view{i}_labels.csv").read_text().strip().split("\n")
            assert len(labels) == 48
        widths = [
            len((out / f"view{i}_features.csv").read_text().split("\n")[0].split(","))
            for i in (1, 2)
        ]
        assert widths == [8, 6]

    def test_default_spec_row_count(self, tmp_path, capsys):
        out = tmp_path / "full"
        assert main(["gen", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        rows = (out / "view1_features.csv").read_text().strip().split("\n")
        assert len(rows) == 240

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a = gen_small(tmp_path, "a")
        b = gen_small(tmp_path, "b")
        capsys.readouterr()
        for name in ("view1_features.csv", "view1_labels.csv", "view2_features.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"bananas": 2}))
        rc = main(["gen", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "bananas" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ConfigError:")


class TestEmbed:
    def test_outputs_and_objective_line(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        out = tmp_path / "emb"
        rc = main(
            ["embed"] + view_flags(data)
            + ["--k", "6", "--dim", "3", "--out-dir", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        match = re.search(r"objective=([0-9.]+)", captured.out)
        assert match is not None
        printed_xi = float(match.group(1))

        meta = json.loads((out / "embedding_meta.json").read_text())
        assert meta["eigenvalues"] == sorted(meta["eigenvalues"])
        assert meta["k"] == 6
        assert meta["dim"] == 3

        # recompute the objective from the same inputs
        emb, art = fit(load_views(data), 6, 3)
        assert printed_xi == pytest.approx(objective(emb.y, dense_graph(art.graph)), abs=1e-6)

    def test_deterministic_outputs(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        outs = []
        for sub in ("e1", "e2"):
            out = tmp_path / sub
            assert main(
                ["embed"] + view_flags(data)
                + ["--k", "6", "--dim", "2", "--out-dir", str(out)]
            ) == 0
            outs.append(out)
        capsys.readouterr()
        for name in ("embedding_view1.csv", "embedding_view2.csv", "embedding_meta.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_dump_graph(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        out = tmp_path / "embg"
        assert main(
            ["embed"] + view_flags(data)
            + ["--k", "6", "--dim", "2", "--out-dir", str(out), "--dump-graph"]
        ) == 0
        capsys.readouterr()
        rows = (out / "graph_w.csv").read_text().strip().split("\n")
        assert len(rows) == 96
        w = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(w, w.T)
        _, art = fit(load_views(data), 6, 2)
        assert np.array_equal(w, art.graph.dense())

    def test_missing_views_is_config_error(self, tmp_path, capsys):
        rc = main(["embed", "--k", "4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ConfigError:")


class TestTrainMhonAndEval:
    def test_per_view_models_and_eval(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        out = tmp_path / "models"
        rc = main(
            ["train-mhon"] + view_flags(data)
            + ["--k", "6", "--dim", "3", "--out-dir", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert (out / "mhon_view1.json").exists()
        assert (out / "mhon_view2.json").exists()
        assert "train_accuracy=" in captured.out

        report = tmp_path / "eval.csv"
        rc = main(
            [
                "eval",
                "--model", str(out / "mhon_view1.json"),
                "--model", str(out / "mhon_view2.json"),
            ]
            + view_flags(data)
            + ["--out", str(report)]
        )
        captured = capsys.readouterr()
        assert rc == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "view,n,accuracy"
        assert len(lines) == 3
        for line in lines[1:]:
            view_id, n, acc = line.split(",")
            assert int(n) == 48
            assert 0.0 <= float(acc) <= 1.0
        assert captured.out.count("accuracy=") == 2

    def test_concat_mode(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        out = tmp_path / "concat"
        rc = main(
            ["train-mhon"] + view_flags(data)
            + ["--k", "6", "--dim", "3", "--mhon-mode", "concat",
               "--out-dir", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        assert (out / "mhon_concat.json").exists()
        assert not (out / "mhon_view1.json").exists()

    def test_concat_model_evaluates_on_all_views(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        out = tmp_path / "concat"
        assert main(
            ["train-mhon"] + view_flags(data)
            + ["--k", "6", "--dim", "3", "--mhon-mode", "concat",
               "--out-dir", str(out)]
        ) == 0
        train_acc = re.search(r"concat train_accuracy=(\S+)", capsys.readouterr().out).group(1)
        report = tmp_path / "eval.csv"
        rc = main(
            ["eval", "--model", str(out / "mhon_concat.json")] + view_flags(data)
            + ["--out", str(report)]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert f"eval: concat accuracy={train_acc} n=48" in captured.out
        assert report.read_text().splitlines() == ["view,n,accuracy", f"0,48,{train_acc}"]

    def test_concat_model_rejects_unpaired_views(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        out = tmp_path / "concat"
        assert main(
            ["train-mhon"] + view_flags(data)
            + ["--k", "6", "--dim", "3", "--mhon-mode", "concat",
               "--out-dir", str(out)]
        ) == 0
        labels = (data / "view2_labels.csv").read_text().splitlines()
        (data / "view2_labels.csv").write_text("\n".join(labels[::-1]) + "\n")
        rc = main(["eval", "--model", str(out / "mhon_concat.json")] + view_flags(data))
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: UnpairedViewsError:")

    def test_model_view_count_mismatch(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        out = tmp_path / "m"
        assert main(
            ["train-mhon"] + view_flags(data)
            + ["--k", "6", "--dim", "2", "--out-dir", str(out)]
        ) == 0
        rc = main(
            ["eval", "--model", str(out / "mhon_view1.json")] + view_flags(data)
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ConfigError:")

    def test_unknown_activation_is_config_error(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        rc = main(
            ["train-mhon"] + view_flags(data)
            + ["--k", "6", "--activation", "relu", "--out-dir", str(tmp_path / "m")]
        )
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ConfigError:")
        assert "relu" in err[0]

    @pytest.mark.parametrize(
        "content",
        [
            b"view,n,accuracy\n1,48,0.5\n",
            b"\x89PNG\r\n\x1a\n\xff\xfe",
            b'{"format": "linear-projector", "version": 1}',
            b"[1, 2, 3]",
            b'{"format": "mhon-model", "version": 1}',
        ],
        ids=["csv", "binary", "other-format", "json-list", "missing-fields"],
    )
    def test_eval_rejects_a_file_that_is_no_model(self, tmp_path, capsys, content):
        data = gen_small(tmp_path)
        bogus = tmp_path / "model.json"
        bogus.write_bytes(content)
        rc = main(["eval", "--model", str(bogus), "--model", str(bogus)] + view_flags(data))
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ModelFormatError:")


def _drop_last_row(payload):
    # Shrink an array payload by one leading entry along its first axis.
    width = int(np.prod(payload["shape"][1:]))
    payload["shape"][0] -= 1
    payload["data"] = payload["data"][: len(payload["data"]) - width]


def _drop_last_stat(stats):
    stats["mean"].pop()
    stats["std"].pop()


MODEL_DEFECTS = {
    "norm-stats-vs-a1-rows": lambda doc: _drop_last_stat(doc["norm_stats"]),
    "a1-vs-h1": lambda doc: doc["hyper"].update(h1=doc["hyper"]["h1"] + 1),
    "b1-vs-h1": lambda doc: _drop_last_row(doc["weights"]["b1"]),
    "g-vs-a1-columns": lambda doc: _drop_last_row(doc["weights"]["g"]),
    "guide-stats-vs-g-columns": lambda doc: _drop_last_stat(doc["guide_stats"]),
    "a2-vs-g-columns": lambda doc: _drop_last_row(doc["weights"]["a2"]),
    "b2-vs-h2": lambda doc: _drop_last_row(doc["weights"]["b2"]),
    "b-out-vs-h2": lambda doc: _drop_last_row(doc["weights"]["b_out"]),
    "b-out-vs-class-count": lambda doc: doc.update(class_count=doc["class_count"] + 1),
    "nan-in-b-out": lambda doc: doc["weights"]["b_out"]["data"].__setitem__(0, float("nan")),
    "inf-in-norm-stats": lambda doc: doc["norm_stats"]["std"].__setitem__(0, float("inf")),
    "negative-norm-stats-std": lambda doc: doc["norm_stats"]["std"].__setitem__(0, -1.0),
    "negative-guide-stats-std": lambda doc: doc["guide_stats"]["std"].__setitem__(0, -1.0),
    "class-count-fraction": lambda doc: doc.update(class_count=4.7),
    "view-id-bool": lambda doc: doc.update(view_id=True),
    "view-id-negative": lambda doc: doc.update(view_id=-3),
    "seed-text": lambda doc: doc["hyper"].update(seed="abc"),
    "ridge-lambda-bool": lambda doc: doc["hyper"].update(ridge_lambda=True),
    "h1-float": lambda doc: doc["hyper"].update(h1=float(doc["hyper"]["h1"])),
    "version-bool": lambda doc: doc.update(version=True),
    "version-float": lambda doc: doc.update(version=1.0),
}


class TestModelValidation:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        data = gen_small(root)
        out = root / "models"
        assert main(
            ["train-mhon"] + view_flags(data)
            + ["--k", "6", "--dim", "3", "--out-dir", str(out)]
        ) == 0
        return data, json.loads((out / "mhon_view1.json").read_text())

    def test_untouched_model_evaluates(self, trained, tmp_path, capsys):
        data, doc = trained
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        rc = main(["eval", "--model", str(path)] + view_flags(data, count=1))
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
    def test_inconsistent_model_is_a_format_error(self, trained, tmp_path, capsys, defect):
        data, doc = trained
        doc = json.loads(json.dumps(doc))
        MODEL_DEFECTS[defect](doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        rc = main(["eval", "--model", str(path)] + view_flags(data, count=1))
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ModelFormatError:")
        assert err[0].count("ModelFormatError") == 1


def test_python_dash_m_mvle_runs_the_cli():
    src = os.path.dirname(os.path.dirname(mvle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-m", "mvle", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert "benchmark" in done.stdout


def loaded_scipy_modules(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; the SciPy modules loaded at its end."""
    src = os.path.dirname(os.path.dirname(mvle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    script += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestStartup:
    """Fits and eval run without SciPy, so no command but ``benchmark`` pays
    for loading it."""

    def test_setup_probe(self):
        # The benchmark's set-up probe.
        assert loaded_scipy_modules(
            "import mvle.cli\n"
            "from mvle.dataset import SyntheticSpec, gen_synthetic\n"
            "from mvle.embedding import fit\n"
            "fit(gen_synthetic(SyntheticSpec(samples_per_class=8)), k=5, dim=2)\n"
        ) == []

    def test_commands(self, tmp_path, capsys):
        data = gen_small(tmp_path)
        models = tmp_path / "models"
        commands = [
            ["gen"] + SMALL_GEN + ["--out-dir", str(tmp_path / "gen")],
            ["embed"] + view_flags(data) + ["--k", "6", "--dim", "3",
                                            "--out-dir", str(tmp_path / "emb")],
            ["train-mhon"] + view_flags(data) + ["--k", "6", "--dim", "3",
                                                 "--out-dir", str(models)],
            ["eval", "--model", str(models / "mhon_view1.json"),
             "--model", str(models / "mhon_view2.json")] + view_flags(data),
        ]
        for argv in commands:
            script = f"import mvle.cli\nassert mvle.cli.main({argv!r}) == 0\n"
            assert loaded_scipy_modules(script) == [], argv[0]

    def test_lanczos_fit_commands(self, tmp_path):
        # On LANCZOS_MIN_ORDER cells or more the fit takes the certified
        # Lanczos solve, which runs on NumPy alone.
        data = tmp_path / "data"
        assert main(["gen", "--class-count", "16", "--samples-per-class", "50",
                     "--noise-sigma", "1.0", "--out-dir", str(data)]) == 0
        emb = tmp_path / "emb"
        commands = [
            ["embed"] + view_flags(data) + ["--dim", "8", "--out-dir", str(emb)],
            ["train-mhon"] + view_flags(data) + ["--dim", "8",
                                                 "--out-dir", str(tmp_path / "models")],
        ]
        for argv in commands:
            script = f"import mvle.cli\nassert mvle.cli.main({argv!r}) == 0\n"
            assert loaded_scipy_modules(script) == [], argv[0]
        meta = json.loads((emb / "embedding_meta.json").read_text(encoding="utf-8"))
        assert meta["bon_cells"] >= LANCZOS_MIN_ORDER and meta["eig_solver"] == "lanczos"


BENCH_SMALL = [
    "--class-count", "4", "--samples-per-class", "12", "--view-dims", "8,6",
    "--k", "6", "--dims", "2", "--repeats", "1", "--seed", "3",
]


class TestBenchmark:
    def test_raw_pass_through_matches_direct_elm(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(
            ["benchmark"] + BENCH_SMALL
            + ["--methods", "raw", "--out-dir", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        lines = (out / "report.csv").read_text().strip().split("\n")
        assert lines[0] == REPORT_HEADER
        cells = {}
        for line in lines[1:]:
            method, view, dim, mean, _std, repeats = line.split(",")
            assert method == "raw"
            assert dim == "0"
            assert repeats == "1"
            cells[int(view)] = float(mean)

        ds = gen_synthetic(
            SyntheticSpec(
                class_count=4, samples_per_class=12, view_dims=(8, 6), seed=3
            )
        )
        train, test = split(ds, 2.0 / 3.0, 3)
        for i in (0, 1):
            stats = zscore_fit(train.views[i].features)
            clf = elm_train(
                zscore_apply(train.views[i].features, stats),
                train.views[i].labels,
                4,
                seed=3,
            )
            pred = elm_predict(clf, zscore_apply(test.views[i].features, stats))
            direct = accuracy(pred, test.views[i].labels)
            assert cells[i + 1] == pytest.approx(direct, abs=1e-6)

    def test_repeats_reproducible(self, tmp_path, capsys):
        reports = []
        for sub in ("b1", "b2"):
            out = tmp_path / sub
            rc = main(
                ["benchmark"] + BENCH_SMALL
                + ["--methods", "raw,mvda", "--repeats", "3", "--out-dir", str(out)]
            )
            assert rc == 0
            reports.append((out / "report.csv").read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_rows_sorted_and_seeds_recorded(self, tmp_path, capsys):
        out = tmp_path / "sorted"
        rc = main(
            ["benchmark"] + BENCH_SMALL
            + ["--methods", "raw,mvle,pls", "--dims", "3,2",
               "--repeats", "2", "--out-dir", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        lines = (out / "report.csv").read_text().strip().split("\n")[1:]
        keys = []
        for line in lines:
            method, view, dim = line.split(",")[:3]
            keys.append((method, int(view), int(dim)))
        assert keys == sorted(keys)

        doc = json.loads((out / "report_runs.json").read_text())
        seeds = sorted({run["seed"] for run in doc["runs"]})
        assert seeds == [3, 4]
        assert doc["config"]["seed"] == 3
        assert doc["config"]["repeats"] == 2

    def test_unknown_method(self, tmp_path, capsys):
        rc = main(
            ["benchmark"] + BENCH_SMALL
            + ["--methods", "raw,banana", "--out-dir", str(tmp_path / "x")]
        )
        err = capsys.readouterr().err.splitlines()
        assert rc == 1
        assert len(err) == 1 and err[0].startswith("error: ConfigError: config key 'methods'")
        assert "banana" in err[0]

    def test_config_file_plus_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "class_count": 4,
                    "samples_per_class": 12,
                    "view_dims": [8, 6],
                    "methods": ["raw"],
                    "dims": [2],
                    "repeats": 2,
                    "seed": 11,
                    "k": 6,
                }
            )
        )
        out = tmp_path / "cfgd"
        rc = main(
            ["benchmark", "--config", str(cfg_path), "--seed", "3",
             "--repeats", "1", "--out-dir", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        doc = json.loads((out / "report_runs.json").read_text())
        assert doc["config"]["seed"] == 3
        assert doc["config"]["repeats"] == 1
        assert doc["config"]["class_count"] == 4

    def test_class_count_inferred_from_views(self, tmp_path, capsys):
        data = tmp_path / "three"
        assert main(["gen"] + SMALL_GEN + ["--class-count", "3", "--out-dir", str(data)]) == 0
        out = tmp_path / "bench"
        rc = main(
            ["benchmark"] + view_flags(data)
            + ["--k", "6", "--dims", "2", "--repeats", "1", "--methods", "raw,mvle",
               "--out-dir", str(out)]
        )
        assert rc == 0, capsys.readouterr().err
        doc = json.loads((out / "report_runs.json").read_text())
        assert doc["config"]["class_count"] == 3
        assert {run["method"] for run in doc["runs"]} == {"raw", "mvle"}

    def test_run_benchmark_rejects_unknown_method_directly(self):
        ds = gen_synthetic(
            SyntheticSpec(class_count=4, samples_per_class=12, view_dims=(8, 6), seed=3)
        )
        cfg = merge_config("benchmark", {"methods": ["raw"]}, {})
        cfg["methods"] = ["nope"]
        with pytest.raises(UnknownMethodError):
            run_benchmark(ds, cfg)

    def test_mvle_reports_both_views(self, tmp_path, capsys):
        out = tmp_path / "mv"
        rc = main(
            ["benchmark"] + BENCH_SMALL
            + ["--methods", "mvle", "--out-dir", str(out)]
        )
        capsys.readouterr()
        assert rc == 0
        lines = (out / "report.csv").read_text().strip().split("\n")[1:]
        views = sorted(int(line.split(",")[1]) for line in lines)
        assert views == [1, 2]
