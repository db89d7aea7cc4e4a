"""Metrics serialization and dependency-free SVG line plots.

All writers are atomic (temp file + rename) and byte-deterministic for the
same inputs, which the reproducibility checks rely on.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .experiments import AGGREGATE, MetricsRow

METRICS_HEADER = "experiment,param,run,metric,value"

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf")


def format_value(value: float) -> str:
    return f"{value:.6g}"


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def _run_key(run) -> tuple:
    return (1, 0) if run == AGGREGATE else (0, run)


def write_metrics(rows: Sequence[MetricsRow], path) -> None:
    """CSV with one row per metric value, deterministically ordered.

    Values render with six significant digits; order is (experiment, param,
    run, metric) with aggregates after the per-run rows.
    """
    ordered = sorted(rows, key=lambda r: (r.experiment, r.param, _run_key(r.run), r.metric))
    lines = [METRICS_HEADER]
    for row in ordered:
        lines.append(f"{row.experiment},{row.param},{row.run},{row.metric},{format_value(row.value)}")
    _atomic_write(Path(path), ["\n".join(lines) + "\n"])


class Series(NamedTuple):
    """One named polyline for a plot."""

    name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """`count + 1` evenly spaced ticks from `lo` to `hi`; `write_plot` widens equal bounds first."""
    step = (hi - lo) / count
    return [lo + i * step for i in range(count + 1)]


def write_plot(
    series: Sequence[Series],
    path,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> None:
    """Self-contained SVG line plot: axes, legend, one polyline per series."""
    if not series:
        raise ValueError("write_plot needs at least one series")
    for s in series:
        if len(s.xs) != len(s.ys):
            raise ValueError(f"series {s.name!r}: {len(s.xs)} x values vs {len(s.ys)} y values")
        if not s.xs:
            raise ValueError(f"series {s.name!r} is empty")

    width, height = 880, 520
    left, right, top, bottom = 70, 210, 46, 60
    plot_w = width - left - right
    plot_h = height - top - bottom

    all_x = [x for s in series for x in s.xs]
    all_y = [y for s in series for y in s.ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="26" text-anchor="middle" '
                   f'font-size="17" font-family="sans-serif">{_escape(title)}</text>')

    for y in _ticks(y_lo, y_hi):
        yy = py(y)
        out.append(f'<line x1="{left}" y1="{yy:.2f}" x2="{left + plot_w}" y2="{yy:.2f}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{left - 8}" y="{yy + 4:.2f}" text-anchor="end" '
                   f'font-size="12" font-family="sans-serif">{y:.3g}</text>')
    for x in _ticks(x_lo, x_hi):
        xx = px(x)
        out.append(f'<line x1="{xx:.2f}" y1="{top + plot_h}" x2="{xx:.2f}" y2="{top + plot_h + 5}" '
                   f'stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{xx:.2f}" y="{top + plot_h + 20}" text-anchor="middle" '
                   f'font-size="12" font-family="sans-serif">{x:.4g}</text>')

    out.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
               f'stroke="#000000" stroke-width="1.5"/>')
    out.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
               f'stroke="#000000" stroke-width="1.5"/>')

    legend_x = left + plot_w + 18
    legend_y = top + 12
    for idx, s in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys))
        if len(s.xs) > 1:
            out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>')
        marker_step = max(1, len(s.xs) // 40)
        for i in range(0, len(s.xs), marker_step):
            out.append(f'<circle cx="{px(s.xs[i]):.2f}" cy="{py(s.ys[i]):.2f}" r="2.5" fill="{color}"/>')
        ly = legend_y + idx * 20
        out.append(f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{legend_x + 28}" y="{ly + 4}" font-size="12" '
                   f'font-family="sans-serif">{_escape(s.name)}</text>')

    if x_label:
        out.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 14}" text-anchor="middle" '
                   f'font-size="13" font-family="sans-serif">{_escape(x_label)}</text>')
    if y_label:
        mid = top + plot_h / 2
        out.append(f'<text x="18" y="{mid:.1f}" text-anchor="middle" font-size="13" '
                   f'font-family="sans-serif" transform="rotate(-90 18 {mid:.1f})">{_escape(y_label)}</text>')
    out.append("</svg>")
    _atomic_write(Path(path), ["\n".join(out) + "\n"])


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def write_trace_log(lines: Iterable[str], path) -> None:
    """Newline-delimited JSON: one `DelegationTrace.to_line` per delegation."""
    _atomic_write(Path(path), (line + "\n" for line in lines))


def write_summary(summary: dict, path) -> None:
    """Deterministic JSON summary; wall-clock timings stay on stdout, not here."""
    _atomic_write(Path(path), [json.dumps(summary, sort_keys=True, indent=2) + "\n"])

