"""Output checks for the benchmark, computed from closed forms.

Nothing here imports bischur: every expected value is derived from the
generated inputs alone, so a change to the program cannot change what counts
as a correct answer.  Each ``check_*`` function takes the parsed output of one
call and returns ``(errors, figures)``: a list of human-readable reasons (empty
when the output is accepted) and the accuracy figures it measured.
"""

from __future__ import annotations

import math

import numpy as np

MEASURE_TOL = 1e-6      # |ds|, |dw| per atom (acceptance criterion 03)
LIMINF_TOL = 1e-6       # |liminf - mass| / (1 + mass), as verify_carapoint states it
BOUNDARY_TOL = 1e-6     # |phi(tau) - omega|
REP_TOL = 1e-8          # |h_rep - h| on the 25-point grid
STIELTJES_REL_TOL = 0.01  # window mass (acceptance criterion 05)

# The 5 x 5 grid of nev2d's verification, restated here.
_GRID_COORDS = (0.5j, 1j, 1 + 1j, -1 + 2j, 3j)
REP_GRID = tuple((z1, z2) for z1 in _GRID_COORDS for z2 in _GRID_COORDS)

# Documented bounds of the `verify` suites: (key, comparison, bound).
VERIFY_BOUNDS = {
    "colligations": (("schur_bound_excess_max", "le", 1e-9),
                     ("model_residual_max", "lt", 1e-9)),
    "desingularization": (("model_residual", "lt", 1e-9), ("inner", "lt", 1e-9),
                          ("radial_inner", "lt", 1e-11), ("slope_liminf", "lt", 1e-6)),
    "measures": (("round_trip_max", "lt", 1e-12),
                 ("evaluation_equivalence_max", "lt", 1e-10),
                 ("min_im_h", "ge", -1e-12), ("min_im_neg_zh", "ge", -1e-12)),
    "reps": (("min_im_h2", "ge", -1e-12), ("infinity_limit_err_max", "lt", 1e-6)),
}


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _matrix(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(int(obj["rows"]), int(obj["cols"]))


def _exit_ok(report, errors) -> bool:
    if report.get("exit_code") != 0:
        error = report.get("error", {})
        errors.append(f"exit_code {report.get('exit_code')}: {error.get('kind', '')} "
                      f"{error.get('message', '')}".strip())
        return False
    return True


def pick_closed_form(atoms, omega, z) -> complex:
    """Cayley transform i(1 + phi)/(1 - phi) of the synthesized function
    phi = omega (1 - f)/(1 + f), f = sum w / (s (1+l1)/(1-l1) + (1-s) (1+l2)/(1-l2)),
    at the half-plane point z, where (1 + lam_j)/(1 - lam_j) = -i z_j."""
    z1, z2 = z
    f = sum(w * 1j / (s * z1 + (1 - s) * z2) for s, w in atoms)
    phi = omega * (1 - f) / (1 + f)
    return 1j * (1 + phi) / (1 - phi)


def check_synth_out(report, atoms):
    errors = []
    if _exit_ok(report, errors):
        out = report.get("output", {})
        if out.get("kind") != "colligation_json" or out.get("model_dim") != 2 * len(atoms):
            errors.append(f"synth output {out!r} is not a colligation of dimension "
                          f"{2 * len(atoms)}")
    return errors, {}


def check_synth_verify(report, atoms, omega):
    """The Julia liminf equals the total mass; the boundary value equals omega."""
    errors, figures = [], {}
    if not _exit_ok(report, errors):
        return errors, figures
    cara = report["verification"]["carapoint"]
    mass = math.fsum(w for _, w in atoms)
    figures["liminf_err"] = abs(float(cara["liminf"]) - mass) / (1.0 + mass)
    figures["boundary_value_err"] = abs(_complex(cara["boundary_value"]) - omega)
    if figures["liminf_err"] >= LIMINF_TOL:
        errors.append(f"Julia liminf {cara['liminf']!r} is not the total mass {mass!r}")
    if figures["boundary_value_err"] >= BOUNDARY_TOL:
        errors.append(f"boundary value {cara['boundary_value']} is not omega {omega}")
    return errors, figures


def check_analyze(report, atoms, omega):
    """The extracted slope measure is the prescribed one, atom by atom, and
    the boundary value is omega."""
    errors, figures = [], {}
    if not _exit_ok(report, errors):
        return errors, figures
    got = sorted((float(a["s"]), float(a["w"])) for a in report["slope_measure"]["atoms"])
    want = sorted(atoms)
    figures["boundary_value_err"] = abs(_complex(report["boundary_value"]) - omega)
    if figures["boundary_value_err"] >= BOUNDARY_TOL:
        errors.append(f"boundary value {report['boundary_value']} is not omega {omega}")
    if len(got) != len(want):
        errors.append(f"measure has {len(got)} atoms of mass "
                      f"{math.fsum(w for _, w in got):.6g}, prescribed {len(want)} atoms "
                      f"of mass {math.fsum(w for _, w in want):.6g}")
        figures["measure_count_mismatch"] = 1
        return errors, figures
    err = max(max(abs(s1 - s2), abs(w1 - w2)) for (s1, w1), (s2, w2) in zip(got, want))
    figures["measure_err"] = err
    if err > MEASURE_TOL:
        errors.append(f"measure deviates from the prescribed one by {err:.3e}")
    return errors, figures


def rep_error(rep_json, atoms, omega) -> float:
    """Largest |h_rep(z) - h(z)| on the grid, h_rep from a plain resolvent."""
    b = float(rep_json["b"])
    alpha = _matrix(rep_json["alpha"])[:, 0]
    B = _matrix(rep_json["B"])
    Y = _matrix(rep_json["Y"])
    eye = np.eye(Y.shape[0])
    worst = 0.0
    for z in REP_GRID:
        x = np.linalg.solve(B + z[0] * Y + z[1] * (eye - Y), alpha)
        value = b - np.vdot(alpha, x)
        worst = max(worst, abs(value - pick_closed_form(atoms, omega, z)))
    return float(worst)


def check_nevrep(report, atoms, omega):
    errors, figures = [], {}
    if not _exit_ok(report, errors):
        return errors, figures
    figures["rep_err"] = rep_error(report["rep"], atoms, omega)
    if not figures["rep_err"] <= REP_TOL:
        errors.append(f"representation misses the Cayley transform by "
                      f"{figures['rep_err']:.3e}")
    return errors, figures


def check_verify(report, n_random, seed):
    """Every suite passes, and its flag agrees with its own figures."""
    errors, figures = [], {}
    if report.get("random") != n_random or report.get("seed") != seed:
        errors.append("report does not echo the requested --random/--seed")
    suites = report.get("suites", {})
    for name, bounds in VERIFY_BOUNDS.items():
        suite = suites.get(name)
        if suite is None:
            errors.append(f"suite {name} missing")
            continue
        ok = True
        for key, how, bound in bounds:
            value = suite[key]
            ok &= {"lt": value < bound, "le": value <= bound, "ge": value >= bound}[how]
        if not ok:
            errors.append(f"suite {name} misses its bounds: {suite}")
        if bool(suite["pass"]) != ok:
            errors.append(f"suite {name} reports pass={suite['pass']} against its figures")
    if "desingularization" in suites:
        figures["liminf_err"] = float(suites["desingularization"]["slope_liminf"])
    if not errors:
        _exit_ok(report, errors)
    return errors, figures


def check_stieltjes(mass, s, w):
    """Window mass of (1 + t^2) dmu at t = 1 - 1/s is pi w / s."""
    expected = math.pi * w / s
    rel = abs(mass - expected) / expected
    errors = [] if rel < STIELTJES_REL_TOL else [
        f"window mass {mass!r} misses {expected!r} by {rel:.2e}"]
    return errors, {"stieltjes_rel_err": rel}


def selfcheck() -> list[str]:
    """Feed the checker known-good and corrupted outputs built from closed
    forms; return what it got wrong (empty when it is sound)."""
    problems = []
    atoms = [(0.25, 0.7), (0.5, 1.0), (0.8, 1.3)]
    omega = -1.0 + 0j

    def analyze_report(measure):
        return {"exit_code": 0, "boundary_value": [omega.real, omega.imag],
                "slope_measure": {"atoms": [{"s": s, "w": w} for s, w in measure]}}

    if check_analyze(analyze_report(atoms), atoms, omega)[0]:
        problems.append("checker rejects the exact measure")
    bumped = [atoms[0], (atoms[1][0], atoms[1][1] + 1e-3), atoms[2]]
    if not check_analyze(analyze_report(bumped), atoms, omega)[0]:
        problems.append("checker accepts an atom weight off by 1e-3")
    if not check_analyze(analyze_report(atoms[:2]), atoms, omega)[0]:
        problems.append("checker accepts a missing atom")

    def rep(measure):
        # for omega = -1 the Cayley transform is -sum w / (s z1 + (1 - s) z2),
        # realized by b = 0, B = 0, Y = diag(s), alpha = sqrt(w)
        n = len(measure)
        flat = lambda A: {"rows": A.shape[0], "cols": A.shape[1],
                          "data": [[z.real, z.imag] for z in A.ravel()]}
        return {"exit_code": 0, "rep": {
            "b": 0.0, "alpha": flat(np.sqrt([[w] for _, w in measure]).astype(complex)),
            "B": flat(np.zeros((n, n), dtype=complex)),
            "Y": flat(np.diag([s for s, _ in measure]).astype(complex))}}

    if check_nevrep(rep(atoms), atoms, omega)[0]:
        problems.append("checker rejects the exact representation")
    if not check_nevrep(rep(bumped), atoms, omega)[0]:
        problems.append("checker accepts a representation with a weight off by 1e-3")
    if not check_stieltjes(math.pi * 1.0 / 0.5 * 1.02, 0.5, 1.0)[0]:
        problems.append("checker accepts a Stieltjes mass off by 2 %")
    return problems
