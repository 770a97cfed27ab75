"""Study report emission: JSON, per-cell sample CSVs, and an SVG grid.

The grid mirrors the study layout: heldout checks on the diagonal (reference
histogram plus a vertical line at the observed diagnostic) and pairwise
nulls off the diagonal (two overlaid histograms).  Every printed number is
taken from the report object; the renderer computes nothing statistical
beyond histogram binning.  The histograms bin the finite values only, and an
infinite observed diagnostic draws no line.
"""

from __future__ import annotations

import os

import numpy as np

from .core import StudyReport

CELL_W = 170
CELL_H = 120
PAD = 14
MARGIN = 70
FOOTER_LINE = 16


def _finite(samples):
    samples = np.asarray(samples, dtype=float)
    return samples[np.isfinite(samples)]


def _fd_edges(samples):
    """Freedman-Diaconis histogram edges of finite samples (perhaps none);
    falls back to ten equal bins."""
    lo, hi = (samples.min(), samples.max()) if samples.size else (0.0, 0.0)
    if hi <= lo:
        return np.linspace(lo - 0.5, hi + 0.5, 3)
    q75, q25 = np.percentile(samples, [75, 25])
    width = 2.0 * (q75 - q25) * samples.size ** (-1.0 / 3.0)
    bins = int(np.ceil((hi - lo) / width)) if width > 0 else 10
    return np.linspace(lo, hi, max(min(bins, 80), 3) + 1)


def _hist_rects(samples, edges, x0, y0, w, h, peak, color, opacity):
    counts, _ = np.histogram(samples, bins=edges)
    span = edges[-1] - edges[0]
    parts = []
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        if c == 0:
            continue
        bx = x0 + (lo - edges[0]) / span * w
        bw = (hi - lo) / span * w
        bh = c / peak * (h - 18)
        parts.append(f'<rect x="{bx:.2f}" y="{y0 + h - bh:.2f}" width="{bw:.2f}" '
                     f'height="{bh:.2f}" fill="{color}" fill-opacity="{opacity}"/>')
    return parts


def _cell_box(i, j):
    x0 = MARGIN + j * (CELL_W + PAD)
    y0 = MARGIN + i * (CELL_H + PAD)
    return x0, y0


def render_grid_svg(report: StudyReport) -> str:
    """Render the study as a deterministic standalone SVG document."""
    models = list(report.models)
    idx = {m: k for k, m in enumerate(models)}
    K = len(models)
    pair_lines = [f"{p.diagnostic_owner} | data {p.data_source}: "
                  f"sym KL = {p.sym_kl:.3f} ({'fools' if p.fools else 'does not fool'})"
                  for p in report.off_diagonal]
    width = MARGIN * 2 + K * CELL_W + (K - 1) * PAD
    height = MARGIN * 2 + K * CELL_H + (K - 1) * PAD + FOOTER_LINE * (len(pair_lines) + 2)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'font-family="monospace" font-size="11">']
    out.append(f'<text x="{MARGIN}" y="20">heldout checks (diagonal, alpha={report.alpha}) '
               f'and pairwise nulls (off-diagonal, tau={report.tau})</text>')
    for m, k in idx.items():
        x0, _ = _cell_box(0, k)
        out.append(f'<text x="{x0}" y="{MARGIN - 8}">data: {m}</text>')
        _, y0 = _cell_box(k, 0)
        out.append(f'<text x="6" y="{y0 + 12}">diag:</text>')
        out.append(f'<text x="6" y="{y0 + 24}">{m}</text>')
    for check in report.diagonal:
        i = idx[check.model_id]
        x0, y0 = _cell_box(i, i)
        out.append(f'<rect x="{x0}" y="{y0}" width="{CELL_W}" height="{CELL_H}" '
                   f'fill="none" stroke="black"/>')
        replicates = _finite(check.diagnostic_replicates)
        observed = _finite([check.diagnostic_observed])
        edges = _fd_edges(np.append(replicates, observed))
        counts, _ = np.histogram(replicates, bins=edges)
        peak = max(counts.max(), 1)
        out += _hist_rects(replicates, edges, x0, y0, CELL_W, CELL_H, peak, "#4878a8", 0.9)
        span = edges[-1] - edges[0]
        for value in observed:
            ox = x0 + (value - edges[0]) / span * CELL_W
            out.append(f'<line x1="{ox:.2f}" y1="{y0}" x2="{ox:.2f}" y2="{y0 + CELL_H}" '
                       f'stroke="#b03030" stroke-width="2"/>')
        mark = "pass" if check.passed else "FAIL"
        out.append(f'<text x="{x0 + 4}" y="{y0 + 13}">p={check.p_value:.2f} {mark}</text>')
    for pair in report.off_diagonal:
        i, j = idx[pair.diagnostic_owner], idx[pair.data_source]
        x0, y0 = _cell_box(i, j)
        out.append(f'<rect x="{x0}" y="{y0}" width="{CELL_W}" height="{CELL_H}" '
                   f'fill="none" stroke="gray"/>')
        samples_a, samples_b = _finite(pair.samples_a), _finite(pair.samples_b)
        edges = _fd_edges(np.concatenate([samples_a, samples_b]))
        peak = max(max(np.histogram(s, bins=edges)[0].max() for s in
                       (samples_a, samples_b)), 1)
        out += _hist_rects(samples_a, edges, x0, y0, CELL_W, CELL_H,
                           peak, "#4878a8", 0.55)
        out += _hist_rects(samples_b, edges, x0, y0, CELL_W, CELL_H,
                           peak, "#d08030", 0.55)
        out.append(f'<text x="{x0 + 4}" y="{y0 + 13}">KL={pair.sym_kl:.2f}'
                   f'{" fools" if pair.fools else ""}</text>')
    y = MARGIN + K * CELL_H + (K - 1) * PAD + FOOTER_LINE * 2
    out.append(f'<text x="{MARGIN}" y="{y}">symmetrized KL table:</text>')
    for line in pair_lines:
        y += FOOTER_LINE
        out.append(f'<text x="{MARGIN}" y="{y}">{line}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _cell_csv(rows):
    return "source,value\n" + "".join(f"{source},{value!r}\n" for source, value in rows)


def emit_report(report: StudyReport, out_dir) -> list:
    """Write report.json, per-cell CSVs, and grid.svg; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def emit(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)

    emit("report.json", report.to_json())
    for check in report.diagonal:
        rows = [(check.model_id, float(v)) for v in check.diagnostic_replicates]
        rows.append(("observed", float(check.diagnostic_observed)))
        emit(f"cell_{check.model_id}_{check.model_id}.csv", _cell_csv(rows))
    for pair in report.off_diagonal:
        rows = [(pair.diagnostic_owner, float(v)) for v in pair.samples_a]
        rows += [(pair.data_source, float(v)) for v in pair.samples_b]
        emit(f"cell_{pair.diagnostic_owner}_{pair.data_source}.csv", _cell_csv(rows))
    emit("grid.svg", render_grid_svg(report))
    return paths
