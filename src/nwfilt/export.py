"""Serialization of level summaries and diagrams: CSV, JSON, and 1-D SVG plots.

Formats are normative and versioned.  Level tokens on the wire use the exact
strings "-0" and "+0" for the two zeros of the split-origin index and "inf" /
"-inf" for the extremes; numeric levels use the shortest round-trip decimal,
which by construction never collides with the reserved tokens.  An undefined
robustness level serializes as an empty CSV field and as JSON null; an
infinite one as "inf".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Branch, ExtendedLevel
from .filtration import DiagramSlice, LevelSummary, coordinate_intervals

SCHEMA_VERSION = 1


def level_token(level: ExtendedLevel) -> str:
    m = level.magnitude
    if level.branch is Branch.POS:
        if m == 0:
            return "+0"
        if np.isinf(m):
            return "inf"
        return repr(m)
    if m == 0:
        return "-0"
    if np.isinf(m):
        return "-inf"
    return "-" + repr(m)


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def export_levels_csv(summary: LevelSummary, coords: np.ndarray | None) -> bytes:
    """Per-sample levels as CSV, one row per sample in index order.

    Columns: index, the coordinates (when the system is embedded), lambda,
    beta.  Values carry 9 significant digits; an undefined beta is an empty
    field and an infinite one prints as inf.
    """
    dim = 0 if coords is None else coords.shape[1]
    header = ["index"] + [f"coord_{k}" for k in range(dim)] + ["lambda", "beta"]
    lines = [",".join(header)]
    for row, sample in enumerate(summary.targets):
        cells = [str(int(sample))]
        if coords is not None:
            cells += [_fmt(float(c)) for c in coords[sample]]
        cells.append(_fmt(float(summary.lam[row])))
        b = summary.beta[row]
        cells.append("" if np.isnan(b) else _fmt(float(b)))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


@dataclass
class DiagramDocument:
    """A complete diagram export: system metadata, slices, per-point levels."""

    system: dict
    slices: list[DiagramSlice]
    lam: np.ndarray
    beta: np.ndarray
    point_indices: np.ndarray
    coords: np.ndarray | None = None
    spacing: float | None = None


def build_document(summary: LevelSummary, slices: list[DiagramSlice],
                   system_meta: dict, coords: np.ndarray | None,
                   spacing: float | None) -> DiagramDocument:
    return DiagramDocument(system=dict(system_meta), slices=list(slices),
                           lam=summary.lam, beta=summary.beta,
                           point_indices=summary.targets, coords=coords,
                           spacing=spacing)


def _level_json(v: float):
    """A level as JSON: null when NaN (beta undefined, or a NaN lam), "inf", or the float."""
    if np.isnan(v):
        return None
    if np.isinf(v):
        return "inf"
    return float(v)


def export_diagram_json(doc: DiagramDocument) -> bytes:
    """Diagram document as deterministic JSON (schema_version 1)."""
    one_d = doc.coords is not None and doc.coords.shape[1] == 1
    slices = []
    for s in doc.slices:
        entry = {"level": level_token(s.level),
                 "members": [int(i) for i in s.members]}
        if one_d and doc.spacing is not None:
            entry["intervals"] = coordinate_intervals(s.members, doc.coords, doc.spacing)
        slices.append(entry)
    points = []
    for row, idx in enumerate(doc.point_indices):
        p = {"index": int(idx)}
        if doc.coords is not None:
            p["coords"] = [float(c) for c in doc.coords[idx]]
        p["lambda"] = _level_json(doc.lam[row])
        p["beta"] = _level_json(doc.beta[row])
        points.append(p)
    payload = {"schema_version": SCHEMA_VERSION,
               "system": doc.system,
               "slices": slices,
               "points": points}
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode()


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 46.0, 12.0, 14.0, 30.0
# The smallest canvas: a plot area 2 px wide (one more than the split gap, so
# every column is wider than 0) and 1 px high, inside the margins.
_MIN_WIDTH = int(_MARGIN_L + _MARGIN_R) + 2
_MIN_HEIGHT = int(_MARGIN_T + _MARGIN_B) + 1


def check_svg_size(width: int, height: int) -> None:
    """Reject a canvas with no room for the plot inside the margins."""
    if width < _MIN_WIDTH or height < _MIN_HEIGHT:
        raise ValueError(f"SVG size {width}x{height} leaves no room for the plot; "
                         f"need at least {_MIN_WIDTH}x{_MIN_HEIGHT} px")


def check_svg_coords(coords: np.ndarray | None) -> None:
    """Reject a system that has no 1-D coordinates to draw."""
    if coords is None or coords.shape[1] != 1:
        raise ValueError("SVG rendering needs a 1-D embedded system; use the CSV/JSON export")


def render_svg(doc: DiagramDocument, width: int = 640, height: int = 420) -> bytes:
    """Render a 1-D diagram: budget on the horizontal axis (split origin marked
    by a dashed rule and a one-pixel column gap), state coordinate vertical.

    Each slice occupies one column; the filled region is the union of its
    member intervals.  Columns are checked to be nested before drawing, so the
    filled region is monotone along the budget axis.  Output bytes are
    deterministic for identical documents.
    """
    check_svg_size(width, height)
    check_svg_coords(doc.coords)
    slices = doc.slices
    prev: set[int] = set()
    for s in slices:
        cur = set(int(i) for i in s.members)
        if not prev <= cur:
            raise ValueError("diagram slices are not nested; refusing to draw a non-monotone region")
        prev = cur
    xs = doc.coords[:, 0]
    lo, hi = float(xs.min()), float(xs.max())
    if hi <= lo:
        hi = lo + 1.0
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B
    n_cols = max(len(slices), 1)
    split_at = sum(1 for s in slices if s.level.branch is Branch.NEG)
    gap = 1.0 if 0 < split_at < n_cols else 0.0
    col_w = (plot_w - gap) / n_cols

    def x_of(i: int) -> float:
        return _MARGIN_L + i * col_w + (gap if i >= split_at else 0.0)

    def y_of(v: float) -> float:
        return _MARGIN_T + (hi - v) / (hi - lo) * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>']
    h_half = (doc.spacing or (hi - lo) / 200.0) / 2.0
    for i, s in enumerate(slices):
        intervals = coordinate_intervals(s.members, doc.coords, doc.spacing or (hi - lo))
        for a, b in intervals:
            y1, y0 = y_of(a - h_half), y_of(b + h_half)
            parts.append(f'<rect x="{x_of(i):.2f}" y="{y0:.2f}" width="{col_w:.2f}" '
                         f'height="{max(y1 - y0, 0.75):.2f}" fill="#3b6ea5"/>')
    frame = (f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" '
             f'height="{plot_h:.2f}" fill="none" stroke="black" stroke-width="1"/>')
    parts.append(frame)
    if 0 < split_at < n_cols:
        xr = x_of(split_at) - gap / 2.0
        parts.append(f'<line x1="{xr:.2f}" y1="{_MARGIN_T:.2f}" x2="{xr:.2f}" '
                     f'y2="{_MARGIN_T + plot_h:.2f}" stroke="black" stroke-width="1" '
                     f'stroke-dasharray="4 3"/>')
    for i, s in enumerate(slices):
        parts.append(f'<text x="{x_of(i) + col_w / 2:.2f}" y="{height - 12:.2f}" '
                     f'font-size="9" text-anchor="middle">{level_token(s.level)}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{height - 2:.2f}" '
                 f'font-size="10" text-anchor="middle">budget</text>')
    parts.append(f'<text x="12" y="{_MARGIN_T + plot_h / 2:.2f}" font-size="10" '
                 f'text-anchor="middle" transform="rotate(-90 12 {_MARGIN_T + plot_h / 2:.2f})">'
                 'state</text>')
    for v in (lo, hi, 0.0) if lo < 0.0 < hi else (lo, hi):
        parts.append(f'<text x="{_MARGIN_L - 4:.2f}" y="{y_of(v) + 3:.2f}" font-size="9" '
                     f'text-anchor="end">{v:.9g}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()
