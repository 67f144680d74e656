"""Nonlinearity diagnostics, accuracy, and benchmark report rows.

The two scatter scalars summarize how spread each class is around its own
mean (s_w) and how spread the class means are around the grand mean (s_b).
Both are invariant to translation and rotation of the feature space and
scale with the square of any isotropic stretch, which the tests pin down.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .dataset import check_labels, check_matrix
from .errors import ClassTooSmallError


def _class_blocks(x: np.ndarray, labels: np.ndarray):
    """Each class present in ``labels``, in ascending order, as
    ``(class id, mean row, rows minus that mean)``.

    One stable argsort groups the rows, so each class's rows keep their
    order and its block is the same array as ``x[labels == cls]``: the
    scatters built from it match a per-class boolean-mask loop bit for bit.
    """
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    for rows in np.split(order, starts):
        block = x[rows]
        mu = block.mean(axis=0)
        yield labels[rows[0]], mu, block - mu


def s_w(x, labels) -> float:
    """Mean within-class scatter: average over classes of the per-class
    sum of squared deviations from the class mean, divided by (n_c - 1).

    Raises
    ------
    ValueError
        Unless ``x`` passes :func:`~mvle.dataset.check_matrix` on the fit
        side.
    LengthMismatchError, LabelOutOfRangeError
        Unless ``labels`` pass :func:`~mvle.dataset.check_labels` with one
        label per row of ``x``.
    ClassTooSmallError
        If any class has fewer than 2 samples.
    """
    xm = check_matrix(x, "x")
    lab = check_labels(labels, xm.shape[0])
    total = 0.0
    for count, (cls, _, centered) in enumerate(_class_blocks(xm, lab), start=1):
        if centered.shape[0] < 2:
            raise ClassTooSmallError(
                f"class {cls} has {centered.shape[0]} sample(s); need >= 2"
            )
        total += float((centered ** 2).sum()) / (centered.shape[0] - 1)
    return total / count


def s_b(x, labels) -> float:
    """Between-class scatter: class-size-weighted squared distances of class
    means from the grand mean, divided by (n - 1).

    Raises
    ------
    ValueError
        Unless ``x`` passes :func:`~mvle.dataset.check_matrix` on the fit
        side.
    LengthMismatchError, LabelOutOfRangeError
        Unless ``labels`` pass :func:`~mvle.dataset.check_labels` with one
        label per row of ``x``.
    """
    xm = check_matrix(x, "x")
    lab = check_labels(labels, xm.shape[0])
    n = xm.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    grand = xm.mean(axis=0)
    total = 0.0
    for _, mu, centered in _class_blocks(xm, lab):
        total += centered.shape[0] * float(((mu - grand) ** 2).sum())
    return total / (n - 1)


def accuracy(predicted, truth) -> float:
    """Fraction of positions where the two label vectors agree.

    Raises
    ------
    LengthMismatchError, LabelOutOfRangeError
        Unless both vectors pass :func:`~mvle.dataset.check_labels`, one
        label per entry of ``truth``.
    """
    t = check_labels(truth, np.size(truth))
    p = check_labels(predicted, t.shape[0])
    if p.shape[0] == 0:
        raise ValueError("need at least one prediction")
    return float((p == t).mean())


@dataclass(frozen=True)
class EvalReport:
    """One evaluation record: a (method, view, dim) cell of a single run.

    ``s_w``/``s_b`` describe the representation the classifier consumed and
    may be None when a portion is too small to estimate them. ``wall_time``
    is the seconds this record's own scoring took: classifier training,
    prediction and the held-out representation. ``fit_time`` is the seconds
    of the method's one fit per repeat that served it, so every (width, view)
    record of that fit carries the same value.
    """

    method: str
    view: int
    dim: int
    seed: int
    accuracy: float
    s_w: float | None
    s_b: float | None
    wall_time: float
    fit_time: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        for name, value in (("s_w", self.s_w), ("s_b", self.s_b)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class ReportRow:
    """One aggregated benchmark row: a (method, view, dim) cell over repeats."""

    method: str
    view: int
    dim: int
    mean_accuracy: float
    std_accuracy: float
    repeats: int


REPORT_HEADER = "method,view,dim,mean_accuracy,std_accuracy,repeats"


def aggregate_reports(reports) -> list[ReportRow]:
    """Collapse per-run records into rows, sorted by (method, view, dim)."""
    cells: dict[tuple, list[float]] = {}
    for r in reports:
        cells.setdefault((r.method, r.view, r.dim), []).append(r.accuracy)
    rows = []
    for key in sorted(cells):
        accs = np.array(cells[key], dtype=np.float64)
        rows.append(
            ReportRow(
                method=key[0],
                view=key[1],
                dim=key[2],
                mean_accuracy=float(accs.mean()),
                std_accuracy=float(accs.std()),
                repeats=int(accs.size),
            )
        )
    return rows


def render_report_csv(rows) -> str:
    """Render aggregated rows to the benchmark CSV format, header included."""
    buf = io.StringIO()
    buf.write(REPORT_HEADER + "\n")
    for r in rows:
        buf.write(
            f"{r.method},{r.view},{r.dim},{r.mean_accuracy:.6f},"
            f"{r.std_accuracy:.6f},{r.repeats}\n"
        )
    return buf.getvalue()
