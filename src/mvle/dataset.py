"""Multi-view dataset containers, CSV ingestion, normalization, splitting.

File format: features are comma-separated numeric rows with no header and
'.' as the decimal mark; labels are one integer per line, classes numbered
1..c. A features/labels pair makes one view; views of a dataset may have
different sample counts and feature dimensions but share the class set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassTooSmallError,
    LabelOutOfRangeError,
    LengthMismatchError,
    NonNumericCellError,
    RaggedRowsError,
    UnpairedViewsError,
)


# Labels are held as int64.
_LABEL_MAX = int(np.iinfo(np.int64).max)


def check_labels(labels, rows: int, class_count: int | None = None) -> np.ndarray:
    """The package's one label rule: ``labels`` as a 1-D int64 array of
    ``rows`` classes from 1 to ``class_count``, or to the int64 maximum when
    ``class_count`` is None.

    Raises
    ------
    LengthMismatchError
        Unless ``labels`` is 1-D and ``rows`` long.
    LabelOutOfRangeError
        If a label is not an integer in range: a fraction, NaN, Inf, a
        boolean or a string is not a label.
    """
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != rows:
        raise LengthMismatchError(f"need {rows} labels in a 1-D array, got shape {lab.shape}")
    high = _LABEL_MAX if class_count is None else class_count
    if lab.dtype.kind in "iu":
        ok = (lab >= 1) & (lab <= high)
    elif lab.dtype.kind == "f":
        # NaN fails every comparison, and the whole floats below 2**63 cast
        # to int64 exactly.
        ok = (lab >= 1) & (lab < high + 1) & (np.floor(lab) == lab)
    else:
        raise LabelOutOfRangeError(f"labels must be integers, got {lab.dtype} values")
    if not ok.all():
        raise LabelOutOfRangeError(f"label {lab[~ok][0]} is not an integer in 1..{high}")
    return lab.astype(np.int64)


@dataclass(frozen=True)
class View:
    """One view: a feature matrix with an aligned label vector."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2 or f.size == 0:
            raise ValueError(f"features must be a nonempty 2-D array, got shape {f.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("features contain NaN or Inf")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", check_labels(self.labels, f.shape[0]))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class MultiViewDataset:
    """A tuple of views drawing labels from one shared class set 1..c."""

    views: tuple[View, ...]
    class_count: int

    def __post_init__(self):
        views = tuple(self.views)
        if not views:
            raise ValueError("dataset needs at least one view")
        if self.class_count < 1:
            raise ValueError(f"class_count must be >= 1, got {self.class_count}")
        for v in views:
            check_labels(v.labels, v.n, self.class_count)
        object.__setattr__(self, "views", views)

    @property
    def view_count(self) -> int:
        return len(self.views)

    @property
    def n_total(self) -> int:
        return sum(v.n for v in self.views)

    def paired_labels(self) -> np.ndarray:
        """The one label sequence of paired views.

        Raises
        ------
        UnpairedViewsError
            If the views differ in sample count or label sequence.
        """
        ns = [v.n for v in self.views]
        if len(set(ns)) != 1:
            raise UnpairedViewsError(f"paired views need equal sample counts, got {ns}")
        first = self.views[0].labels
        if any(not np.array_equal(v.labels, first) for v in self.views[1:]):
            raise UnpairedViewsError("paired views need one shared label sequence")
        return first

    def view_data(self, view: int) -> tuple[np.ndarray, np.ndarray]:
        """Features and labels of 1-based ``view``; view 0 is all views side
        by side, with their :meth:`paired_labels`.

        Raises
        ------
        UnpairedViewsError
            If ``view`` is 0 and the views are not paired.
        """
        if view == 0:
            labels = self.paired_labels()
            return np.hstack([v.features for v in self.views]), labels
        return self.views[view - 1].features, self.views[view - 1].labels


@dataclass(frozen=True)
class NormStats:
    """Per-feature mean and population standard deviation of a training view."""

    mean: np.ndarray
    std: np.ndarray


def zscore_fit(x) -> NormStats:
    """Compute per-feature mean and population std (ddof=0) of ``x``."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"need a nonempty 2-D array, got shape {m.shape}")
    if m.shape[0] < 2:
        raise ValueError("need at least 2 rows to estimate spread")
    return NormStats(mean=m.mean(axis=0), std=m.std(axis=0))


def zscore_apply(x, stats: NormStats) -> np.ndarray:
    """Center and scale ``x`` with stored stats; zero-std features divide by 1."""
    m = np.asarray(x, dtype=np.float64)
    safe = np.where(stats.std == 0.0, 1.0, stats.std)
    return (m - stats.mean) / safe


def zscore_normalize(x) -> tuple[np.ndarray, NormStats]:
    """Fit stats on ``x`` and apply them; equals ``zscore_apply(x, zscore_fit(x))``."""
    stats = zscore_fit(x)
    return zscore_apply(x, stats), stats


def _text_lines(path):
    """The nonempty lines of a UTF-8 text file, stripped, with 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield line_no, line
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def load_view_csv(features_path, labels_path) -> View:
    """Read a features/labels pair into a :class:`View`.

    Well-formed files are parsed by numpy's C reader; anything it declines
    goes to a strict line scanner, which accepts the same inputs and names
    the row and column of the first bad cell.

    Raises
    ------
    ValueError
        If a file is not UTF-8 text or the features file holds no rows.
    RaggedRowsError
        If the feature rows disagree on field count.
    NonNumericCellError
        If a cell does not parse as a finite number.
    LabelOutOfRangeError
        If a label line is not an integer from 1 to the int64 maximum.
    LengthMismatchError
        If the two files disagree on row count.
    OSError
        Propagated from the filesystem.
    """
    view = _loadtxt_view(features_path, labels_path)
    return view if view is not None else _scan_view(features_path, labels_path)


def _loadtxt_view(features_path, labels_path) -> View | None:
    """The view parsed by ``np.loadtxt``, or None to leave the pair to the scanner.

    Returns None whenever the scanner might answer differently: on any parse
    error or warning (an empty file only warns), a labels file with more than
    one column, a row-count mismatch, or a value the scanner rejects. The
    files are opened with ``open`` so a missing one raises the scanner's
    ``OSError``.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with open(features_path, encoding="utf-8") as fh:
                features = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                      dtype=np.float64)
            # The scanner reports bad features before it opens the labels.
            if features.size == 0 or not np.isfinite(features).all():
                return None
            # ndmin=2 keeps a one-line "1,2" labels file (1, 2), not (2,).
            with open(labels_path, encoding="utf-8") as fh:
                labels = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                    dtype=np.int64)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    if labels.shape != (features.shape[0], 1) or labels.min() < 1:
        return None
    return View(features=features, labels=labels[:, 0])


def _scan_view(features_path, labels_path) -> View:
    """Parse a pair line by line, raising :func:`load_view_csv`'s errors."""
    rows: list[list[float]] = []
    width = None
    for line_no, line in _text_lines(features_path):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise RaggedRowsError(
                f"{features_path}: row {line_no} has {len(cells)} fields, expected {width}"
            )
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCellError(
                    f"{features_path}: row {line_no}, column {col}: {cell!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise NonNumericCellError(
                    f"{features_path}: row {line_no}, column {col}: {cell!r} is not finite"
                )
            parsed.append(value)
        rows.append(parsed)

    labels: list[int] = []
    for line_no, line in _text_lines(labels_path):
        try:
            label = int(line)
        except ValueError:
            raise LabelOutOfRangeError(
                f"{labels_path}: line {line_no}: {line!r} is not an integer label"
            ) from None
        if not 1 <= label <= _LABEL_MAX:
            raise LabelOutOfRangeError(
                f"{labels_path}: line {line_no}: label {label} is not in 1..{_LABEL_MAX}"
            )
        labels.append(label)

    if len(rows) != len(labels):
        raise LengthMismatchError(
            f"{features_path} has {len(rows)} rows but {labels_path} has {len(labels)} labels"
        )
    if not rows:
        raise ValueError(f"{features_path} is empty")
    return View(features=np.array(rows, dtype=np.float64), labels=np.array(labels, dtype=np.int64))


#: Rows :func:`write_matrix_csv` turns into Python floats at a time, so a
#: long matrix never holds more than this many rows of float objects.
_CSV_BLOCK_ROWS = 1024


def write_matrix_csv(matrix, path) -> None:
    """Write the rows of a float matrix as CSV lines.

    Floats are written with ``repr``, the shortest decimal that recovers the
    same binary value, so identical arrays always produce identical bytes.
    """
    m = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, m.shape[0], _CSV_BLOCK_ROWS):
            for row in m[start:start + _CSV_BLOCK_ROWS].tolist():
                fh.write(",".join(map(repr, row)))
                fh.write("\n")


def write_view_csv(view: View, features_path, labels_path) -> None:
    """Write a view back to disk; round-trips through :func:`load_view_csv` exactly."""
    write_matrix_csv(view.features, features_path)
    with open(labels_path, "w", encoding="utf-8") as fh:
        for label in view.labels:
            fh.write(f"{int(label)}\n")


def _class_indices(labels: np.ndarray, class_count: int) -> list[np.ndarray]:
    return [np.flatnonzero(labels == cls) for cls in range(1, class_count + 1)]


def split(
    ds: MultiViewDataset, train_fraction: float, seed: int
) -> tuple[MultiViewDataset, MultiViewDataset]:
    """Stratified shuffle split of every view.

    Within each class of each view, ``ceil(train_fraction * count)`` samples
    go to the training portion. The shuffle for a class depends only on
    ``(seed, class, class size)``, so views holding the same label layout are
    split identically and sample pairing across such views survives the split.

    Raises
    ------
    ClassTooSmallError
        If some class has fewer than 2 samples in some view, or if the
        fraction leaves no test sample in some view.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train_views = []
    test_views = []
    for view_id, view in enumerate(ds.views):
        train_idx: list[np.ndarray] = []
        test_idx: list[np.ndarray] = []
        for cls, idx in enumerate(_class_indices(view.labels, ds.class_count), start=1):
            if idx.size < 2:
                raise ClassTooSmallError(
                    f"class {cls} has {idx.size} sample(s) in view {view_id}; need >= 2"
                )
            rng = np.random.default_rng([seed, cls, idx.size])
            shuffled = idx[rng.permutation(idx.size)]
            n_train = math.ceil(train_fraction * idx.size)
            train_idx.append(shuffled[:n_train])
            test_idx.append(shuffled[n_train:])
        tr = np.sort(np.concatenate(train_idx))
        te = np.sort(np.concatenate(test_idx))
        if te.size == 0:
            # Every class went to training whole, so these are the class sizes.
            raise ClassTooSmallError(
                f"train_fraction {train_fraction} leaves no test sample in view "
                f"{view_id}: it trains on all of each class, of sizes "
                f"{[part.size for part in train_idx]}"
            )
        train_views.append(View(view.features[tr], view.labels[tr]))
        test_views.append(View(view.features[te], view.labels[te]))
    return (
        MultiViewDataset(tuple(train_views), ds.class_count),
        MultiViewDataset(tuple(test_views), ds.class_count),
    )


NONLINEARITY_MODES = ("linear", "swissroll-like")

# Latent geometry of the synthetic generator: class anchors are drawn on a
# circle of this radius at uneven seeded angles, samples scatter around their
# anchor, and the nonlinear view folds the latent plane onto a torus with
# angular frequency _WARP_FREQ. Uneven anchor spacing keeps cluster
# adjacencies asymmetric, so downstream graph spectra stay simple instead of
# picking up eigenvalue ties from a perfectly symmetric layout.
_ANCHOR_RADIUS = 4.6
_LATENT_SIGMA = 0.42
_WARP_FREQ = 2.3
_MIN_GAP_FACTOR = 0.45


def _latent_anchors(rng: np.random.Generator, class_count: int) -> np.ndarray:
    """Draw class anchors on the latent circle with a minimum angular gap."""
    even_gap = 2.0 * np.pi / class_count
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, class_count))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
        if gaps.min() >= even_gap * _MIN_GAP_FACTOR:
            return _ANCHOR_RADIUS * np.column_stack([np.cos(angles), np.sin(angles)])


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic paired-view generator."""

    class_count: int = 4
    samples_per_class: int = 60
    view_dims: tuple[int, int] = (20, 15)
    noise_sigma: float = 0.3
    nonlinearity: str = "swissroll-like"
    seed: int = 7

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError(f"class_count must be >= 2, got {self.class_count}")
        if self.samples_per_class < 2:
            raise ValueError(
                f"samples_per_class must be >= 2, got {self.samples_per_class}"
            )
        dims = tuple(int(d) for d in self.view_dims)
        if len(dims) != 2 or any(d < 1 for d in dims):
            raise ValueError(f"view_dims must be two positive ints, got {self.view_dims}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.nonlinearity not in NONLINEARITY_MODES:
            raise ValueError(
                f"nonlinearity must be one of {NONLINEARITY_MODES}, got {self.nonlinearity!r}"
            )
        object.__setattr__(self, "view_dims", dims)


def gen_synthetic(spec: SyntheticSpec = SyntheticSpec()) -> MultiViewDataset:
    """Draw a paired two-view dataset from a shared 2-D latent space.

    Both views observe the same latent points, so row i of view 1 and row i
    of view 2 describe the same sample. View 1 is a random linear lift of
    the latent plane plus isotropic noise. In ``swissroll-like`` mode view 2
    first wraps each latent coordinate through sin/cos at a frequency high
    enough that distinct classes fold onto each other, then lifts linearly;
    in ``linear`` mode view 2 is a plain linear lift like view 1.
    """
    rng = np.random.default_rng(spec.seed)
    c = spec.class_count
    m = spec.samples_per_class
    n = c * m
    d1, d2 = spec.view_dims

    anchors = _latent_anchors(rng, c)
    labels = np.repeat(np.arange(1, c + 1), m)
    latent = anchors[labels - 1] + _LATENT_SIGMA * rng.normal(size=(n, 2))

    lift1 = rng.normal(size=(2, d1)) / np.sqrt(2.0)
    view1 = latent @ lift1 + spec.noise_sigma * rng.normal(size=(n, d1))

    if spec.nonlinearity == "linear":
        lift2 = rng.normal(size=(2, d2)) / np.sqrt(2.0)
        view2 = latent @ lift2 + spec.noise_sigma * rng.normal(size=(n, d2))
    else:
        phase = _WARP_FREQ * latent
        warped = np.column_stack(
            [np.sin(phase[:, 0]), np.cos(phase[:, 0]), np.sin(phase[:, 1]), np.cos(phase[:, 1])]
        )
        lift2 = rng.normal(size=(4, d2)) / np.sqrt(4.0)
        view2 = warped @ lift2 + spec.noise_sigma * rng.normal(size=(n, d2))

    return MultiViewDataset(
        views=(View(view1, labels), View(view2, labels.copy())),
        class_count=c,
    )
