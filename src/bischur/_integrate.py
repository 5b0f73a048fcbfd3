"""Adaptive trapezoid integration with midpoint refinement, on arrays.

Used for Stieltjes inversion, where the integrand is a smooth Poisson-type
profile for y > 0 but develops narrow spikes of width ~ y near atoms.  An
initial uniform grid guards against missing such spikes; cells are then
bisected until the midpoint-refined trapezoid value stabilizes.

The integrand is called on arrays of abscissae.  Pending cells are held in
arrays and bisected in batches of at most ``BATCH`` cells, one call of the
integrand per batch; each cell is tested on its own, so the integrand sees
the same abscissae as a cell-by-cell recursion would.
"""

from __future__ import annotations

import numpy as np

__all__ = ["adaptive_trapezoid"]

# Most cells bisected per call of the integrand.  A level of a spiky window
# can hold tens of thousands of cells; the cap bounds the working arrays.
BATCH = 2048


def adaptive_trapezoid(f, a, b, rel_tol=1e-6, min_cells=64, max_depth=48):
    """Integrate f over [a, b]; f maps an array of abscissae to real values."""
    if not b > a:
        raise ValueError("integration interval must satisfy a < b")
    width = b - a
    xs = a + width * np.arange(min_cells + 1) / min_cells
    fs = np.asarray(f(xs), dtype=float)
    # summed left to right, as the cell-by-cell recursion did, so that the
    # acceptance budget below is the same to the last bit
    rough = sum((0.5 * (fs[:-1] + fs[1:]) * (xs[1:] - xs[:-1])).tolist())
    scale = max(abs(rough), float(np.abs(fs).max()) * width, 1e-300)

    # pending cells [x0, x1] with end values f0, f1, taken from the end
    x0, x1, f0, f1 = xs[:-1], xs[1:], fs[:-1], fs[1:]
    depth = np.zeros(min_cells, dtype=int)
    total = 0.0
    while x0.size:
        keep = max(x0.size - BATCH, 0)
        c0, c1, g0, g1, d = x0[keep:], x1[keep:], f0[keep:], f1[keep:], depth[keep:]
        xm = 0.5 * (c0 + c1)
        fm = np.asarray(f(xm), dtype=float)
        h = c1 - c0
        coarse = 0.5 * (g0 + g1) * h
        fine = 0.25 * (g0 + 2.0 * fm + g1) * h
        done = (d >= max_depth) | (np.abs(fine - coarse) <= rel_tol * scale * h / width)
        # one Richardson step turns the refined trapezoid into Simpson
        total += float(np.sum((fine + (fine - coarse) / 3.0)[done]))
        split = ~done
        x0 = np.concatenate((x0[:keep], c0[split], xm[split]))
        x1 = np.concatenate((x1[:keep], xm[split], c1[split]))
        f0 = np.concatenate((f0[:keep], g0[split], fm[split]))
        f1 = np.concatenate((f1[:keep], fm[split], g1[split]))
        depth = np.concatenate((depth[:keep], d[split] + 1, d[split] + 1))
    return total
