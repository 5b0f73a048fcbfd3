"""Command-line front end: JSON in, JSON/CSV reports out.

Subcommands: ``analyze`` (carapoint/slope analysis of a colligation),
``synth`` (build a Schur function from a slope measure, optionally writing its
exact colligation), ``nevrep`` (extract the two-variable resolvent representation)
and ``verify`` (seeded random property suites).

``main(argv)`` may be called any number of times in one process: the
argument parser is built on the first call and reused, and each call looks
up its ``cmd_*`` handler afresh.  Each handler runs its command's builder
through ``_report``, which alone turns a raised error into the report's
``error`` and exit code, and then writes the command's outputs.

Exit codes: 0 success, 2 malformed input, 3 failed precondition (not a
carapoint), 4 numeric failure, 5 verification failure, 6 obstruction
(boundary value 1).  Reports are deterministic for fixed inputs, seed and
tolerances once ``--no-timestamp`` is passed.  The environment variable
``BISCHUR_TOLERANCES`` may hold a JSON object overriding default tolerances;
it is echoed into every report.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import cache, partial

import numpy as np

from . import __version__
from . import boundary, nev2d, representations, slope as slope_mod, synthesis
from .colligation import Colligation, _stack, eval_phi, model_residual
from .desingularize import GeneralizedRealization, desingularize, eval_I, eval_phi_gen
from .errors import (
    BischurError,
    InvalidInputError,
    ObstructionError,
    PreconditionError,
    SchemaError,
)
from .generate import (
    _colligation,
    _kernel_colligation,
    _nev_rep,
    _Unitaries,
    random_interior_points,
    random_inward_directions,
    random_measure,
    random_torus_points,
    random_upper_points,
)
from .linalg import Tolerances
from .points import require_torus
from .serialization import (
    colligation_from_json,
    colligation_to_json,
    complex_to_json,
    detect_payload_kind,
    generalized_to_json,
    measure_from_json,
    measure_to_json,
    nevanlinna_to_json,
    rep_to_json,
    tolerances_from_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5
EXIT_OBSTRUCTION = 6

TOLERANCES_ENV = "BISCHUR_TOLERANCES"

SLOPE_SAMPLE_POINTS = tuple(map(complex, (0.1, 0.5, 1.0, 2.0, 10.0, 1j, 1 + 1j, 2j, -1 + 1j)))

# analyze's generalized model passes when each residual maximum is below this;
# verify's model and inner residuals are held to it too.
RESIDUAL_MAX = 1e-9

# The other bounds of the verify suites; a Pick-class value passes when its
# imaginary part is at least -slope.PICK_SLACK.
SCHUR_EXCESS_MAX = 1e-9       # |phi| - 1 inside the bidisc
RADIAL_INNER_MAX = 1e-11      # |I(r tau) - r| along the radius
SLOPE_LIMINF_MAX = 1e-6       # |Julia liminf + h(1)|
ROUND_TRIP_MAX = 1e-12        # measure -> Nevanlinna data -> measure
EQUIVALENCE_MAX = 1e-10       # h from a measure against h from its Nevanlinna data
INFINITY_LIMIT_MAX = 1e-6     # |lim y Im h(iy, iy) - ||alpha||^2|


class _InputFailure(BischurError):
    """The input could not be read, parsed or validated."""


# A builder's failure by its nearest listed class: (exit code, error kind).
_FAILURES = {
    _InputFailure: (EXIT_INPUT, "input"),
    PreconditionError: (EXIT_PRECONDITION, "precondition"),
    ObstructionError: (EXIT_OBSTRUCTION, "obstruction"),
    BischurError: (EXIT_NUMERIC, "numeric"),
}

_CSV_RADII = (0.25, 0.55, 0.85)
_CSV_ANGLES = tuple(2.0 * np.pi * k / 4 for k in range(4))


def parse_complex(text: str) -> complex:
    """Parse a complex scalar, accepting i or j for the imaginary unit; inf
    and nan are read as Python spells them."""
    raw = text.strip().lower().replace(" ", "")
    j = raw.replace("i", "j")
    if j in ("j", "+j"):
        return 1j
    if j == "-j":
        return -1j
    for candidate in (raw, j.replace("+j", "+1j").replace("-j", "-1j")):
        try:
            return complex(candidate)
        except ValueError:
            continue
    raise SchemaError(f"cannot parse complex number from {text!r}")


def parse_point(text: str) -> tuple[complex, complex]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError(f"expected two comma-separated coordinates, got {text!r}")
    return parse_complex(parts[0]), parse_complex(parts[1])


def _parse_tolerance_payload(text, where):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}: malformed JSON ({exc})") from exc


def _resolve_tolerances(flag_value: str | None):
    source = ["default"]
    tol = Tolerances()
    env = os.environ.get(TOLERANCES_ENV)
    if env:
        tol = tolerances_from_json(_parse_tolerance_payload(env, TOLERANCES_ENV), tol)
        source.append("env")
    if flag_value:
        tol = tolerances_from_json(_parse_tolerance_payload(flag_value, "--tolerances"), tol)
        source.append("flag")
    return tol, source


def _json_default(obj):
    # complex first: numpy's complex128 is a complex, and most values land here
    if isinstance(obj, (complex, np.complexfloating)):
        return complex_to_json(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _json_text(obj) -> str:
    """obj as one line of JSON with sorted keys.  Without an indent, json
    encodes in C; with one it falls back to pure Python."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, default=_json_default)


def _emit(report, out_path=None):
    text = _json_text(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


@contextmanager
def _input_stage():
    """Report a failure to read, parse or validate the input (a SchemaError
    is an InvalidInputError) as an ``input`` error."""
    try:
        yield
    except (OSError, json.JSONDecodeError, InvalidInputError) as exc:
        raise _InputFailure(str(exc)) from exc


def _report(args, build) -> dict:
    """The report of one command: the header, filled by
    ``build(args, tol, report)``, which returns the exit code.  A failure it
    raises leaves the report as far as it got, plus ``error`` and the exit
    code ``_FAILURES`` gives.  Malformed tolerances raise, before any report."""
    tol, source = _resolve_tolerances(args.tolerances)
    report = {"tool": {"name": "bischur", "version": __version__},
              "tolerances": dict(vars(tol)), "tolerances_source": source}
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    try:
        report["exit_code"] = build(args, tol, report)
    except BischurError as exc:
        code, kind = next(_FAILURES[t] for t in type(exc).__mro__ if t in _FAILURES)
        report["error"] = {"kind": kind, "message": str(exc)}
        report["exit_code"] = code
    return report


def _require_seed(args):
    """Refuse a negative ``--seed``, which numpy's generators cannot take."""
    if args.seed < 0:
        raise InvalidInputError(f"--seed must be non-negative, got {args.seed}")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- analyze


def _derivative_checks(c, tau, phi_tau, pair, rng, n_directions, tol):
    return slope_mod.derivative_checks(
        partial(eval_phi, c, tol=tol), tau, phi_tau,
        zip(*random_inward_directions(rng, tau, n_directions)),
        partial(slope_mod.slope_eval, pair))


def _gate(verification, liminf, checks):
    """Fail the verification unless every extrapolated limit converged, and
    name the cause of a failure under ``reason``."""
    unconverged = (["julia_liminf"] if not liminf.converged else []) + [
        f"derivative_checks[{k}]" for k, check in enumerate(checks) if not check["converged"]]
    if unconverged:
        verification["pass"] = False
        verification["reason"] = f"{', '.join(unconverged)} did not converge"
    elif not verification["pass"]:
        bound = np.format_float_scientific(RESIDUAL_MAX, trim="-", exp_digits=1)
        verification["reason"] = f"a residual maximum is not below {bound}"
    return verification


def _pair_stacks(rng, n):
    """n pairs (lam, mu) of interior points, drawn lam first, as two stacks."""
    l1, l2 = random_interior_points(rng, 2 * n, 0.85)
    return (l1[0::2], l2[0::2]), (l1[1::2], l2[1::2])


def _far_from(tau, lam):
    """The points of the stack lam at least 0.2 from tau in each coordinate."""
    kept = (abs(lam[0] - tau[0]) >= 0.2) & (abs(lam[1] - tau[1]) >= 0.2)
    return lam[0][kept], lam[1][kept]


def _inner_residual(g, lam, tol):
    """Max of ||I* I - 1|| over a stack of torus points, 0 for none; g may
    be a stack with one row per point."""
    if not len(lam[0]):
        return 0.0
    I_lam = eval_I(g, lam, tol)
    gap = np.swapaxes(I_lam.conj(), -1, -2) @ I_lam - np.eye(g.dim)
    return float(np.linalg.svd(gap, compute_uv=False)[:, 0].max())


def _generalized_verification(c, g, rng, tol):
    """Residual maxima for the generalized model of a desingularization."""
    lams, mus = _pair_stacks(rng, 10)
    model_max = float(model_residual(g, lams, mus, tol).max())
    agree_max = float(np.abs(eval_phi_gen(g, lams, tol) - eval_phi(c, lams, tol)).max())
    inner_max = _inner_residual(g, _far_from(g.tau, random_torus_points(rng, 10)), tol)
    return {
        "model_residual_max": model_max,
        "phi_agreement_max": agree_max,
        "inner_residual_max": inner_max,
        "pass": bool(model_max < RESIDUAL_MAX and agree_max < RESIDUAL_MAX
                     and inner_max < RESIDUAL_MAX),
    }


def cmd_analyze(args) -> int:
    report = _report(args, _analysis)
    # like --out, --csv is rewritten by every report, so no stale samples stay
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["z_re", "z_im", "h_re", "h_im"])
            writer.writerows([s["z"].real, s["z"].imag, s["h"].real, s["h"].imag]
                             for s in report.get("slope_samples", ()))
    _emit(report, args.out)
    return report["exit_code"]


def _analysis(args, tol, report) -> int:
    with _input_stage():
        payload = _load_json(args.colligation)
        c = colligation_from_json(payload)
        c.validate(tol)
        tau = require_torus(parse_point(args.tau))
        _require_seed(args)
    report["input"] = {"colligation": payload, "tau": tau}
    report["seed"] = args.seed

    try:
        g = desingularize(c, tau, tol)
    except PreconditionError as exc:
        report["carapoint"] = {"is_carapoint": False}
        raise PreconditionError(
            "no carapoint evidence: gamma is outside ran(1 - D tau)") from exc
    pair = slope_mod.SlopePair.from_realization(g)
    nu = slope_mod.slope_measure(pair)
    nd = representations.nevanlinna_from_measure(nu)
    path = boundary.ApproachPath.radial(tau)
    liminf = boundary.model_liminf(c, path, tol)
    # (1 - Q) u_tau = gamma and I(tau) = 1 in the generalized model
    phi_tau = g.a + g.u_tau @ g.beta.conj()
    rng = np.random.default_rng(args.seed)
    checks = _derivative_checks(c, tau, phi_tau, pair, rng, 4, tol)
    verification = _generalized_verification(c, g, rng, tol)
    zs = np.array((1.0, *SLOPE_SAMPLE_POINTS))
    h1, *h_samples = slope_mod.slope_eval(pair, zs).tolist()

    witness_norm_sq = float(np.linalg.norm(g.u_tau) ** 2)
    report["carapoint"] = {
        "is_carapoint": True,
        "witness_norm_sq": witness_norm_sq,
        "kernel_dim": g.kernel_dim,
        "model_dim": g.dim,
        "regular_point": g.kernel_dim == 0,
        "notes": list(g.notes),
    }
    report["boundary_value"] = phi_tau
    report["julia_liminf"] = {
        "estimate": float(liminf.estimate.real),
        "converged": liminf.converged,
        "matches_witness_norm_sq": abs(liminf.estimate.real - witness_norm_sq),
        "matches_minus_h1": abs(liminf.estimate.real + h1.real),
    }
    report["slope_measure"] = measure_to_json(nu)
    report["nevanlinna"] = nevanlinna_to_json(nd)
    report["slope_samples"] = [{"z": z, "h": h} for z, h in zip(SLOPE_SAMPLE_POINTS, h_samples)]
    report["derivative_checks"] = checks
    report["verification"] = _gate(verification, liminf, checks)
    return EXIT_OK if verification["pass"] else EXIT_NUMERIC


# ------------------------------------------------------------------ synth


def _verify_directions(tau):
    base = ((1, 1), (1, 2), (2, 1), (1 + 0.5j, 1), (1, 1 - 0.3j), (0.7, 1.4))
    return tuple((tau[0] * d1, tau[1] * d2) for d1, d2 in base)


def cmd_synth(args) -> int:
    report = _report(args, _synthesis)
    _emit(report)
    return report["exit_code"]


def _synthesis(args, tol, report) -> int:
    with _input_stage():
        nu = measure_from_json(_load_json(args.measure))
        if not nu.atoms:
            raise SchemaError("measure must carry at least one atom")
        tau = parse_point(args.tau) if args.tau else (1.0 + 0j, 1.0 + 0j)
        omega = parse_complex(args.omega) if args.omega else 1.0 + 0j
        syn = synthesis.SynthesizedSchur(nu, tau, omega)
    report["input"] = {"measure": measure_to_json(nu), "tau": syn.tau, "omega": syn.omega}
    report["seed"] = args.seed

    if args.out and args.out.endswith(".csv"):
        lams = tuple(np.array([(r1 * np.exp(1j * a1), r2 * np.exp(1j * a2))
                               for r1 in _CSV_RADII for a1 in _CSV_ANGLES
                               for r2 in _CSV_RADII for a2 in _CSV_ANGLES]).T)
        values = synthesis.synth_eval(syn, lams)
        rows = np.column_stack([lams[0].real, lams[0].imag, lams[1].real,
                                lams[1].imag, values.real, values.imag]).tolist()
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["l1_re", "l1_im", "l2_re", "l2_im", "phi_re", "phi_im"])
            writer.writerows(rows)
        report["output"] = {"kind": "samples_csv", "path": args.out, "rows": len(rows)}
    elif args.out:
        fitted = synthesis.fit_colligation(syn, tol=tol)
        with open(args.out, "w") as fh:
            fh.write(_json_text(colligation_to_json(fitted)) + "\n")
        report["output"] = {"kind": "colligation_json", "path": args.out,
                            "model_dim": fitted.dim}
    if args.verify:
        report["verification"] = checks = {
            "slope": synthesis.verify_slope(syn, _verify_directions(syn.tau)),
            "carapoint": synthesis.verify_carapoint(syn),
        }
        if not all(check["pass"] for check in checks.values()):
            return EXIT_VERIFY
    return EXIT_OK


# ----------------------------------------------------------------- nevrep


def cmd_nevrep(args) -> int:
    report = _report(args, _representation)
    if args.out and report["exit_code"] == EXIT_OK:
        with open(args.out, "w") as fh:
            fh.write(_json_text(report["rep"]) + "\n")
    _emit(report)
    return report["exit_code"]


def _representation(args, tol, report) -> int:
    chi = (1.0 + 0j, 1.0 + 0j)
    # fit_colligation stays in the input stage: an empty measure is an input error
    with _input_stage():
        payload = _load_json(args.input)
        kind = detect_payload_kind(payload)
        if kind == "colligation":
            c = colligation_from_json(payload)
            c.validate(tol)
        elif kind == "measure":
            nu = measure_from_json(payload)
            omega = parse_complex(args.omega) if args.omega else 1.0 + 0j
            syn = synthesis.SynthesizedSchur(nu, chi, omega)
            c = synthesis.fit_colligation(syn, tol=tol)
        else:
            raise SchemaError(f"nevrep needs a colligation or a measure, got {kind}")
    report["input"] = {"kind": kind}
    report["seed"] = args.seed

    g = desingularize(c, chi, tol)
    rep = nev2d.rep_from_schur(g, tol)
    infinity = nev2d.carapoint_at_infinity(partial(nev2d.eval_h2, rep, tol=tol))

    alpha_norm_sq = float(np.linalg.norm(rep.alpha) ** 2)
    report["rep"] = rep_to_json(rep)
    report["generalized"] = generalized_to_json(g)
    report["carapoint_at_infinity"] = {
        "finite": infinity.finite,
        "limit": infinity.limit,
        "value": infinity.value,
        "alpha_norm_sq": alpha_norm_sq,
        "limit_matches_alpha": (
            abs(infinity.limit - alpha_norm_sq) if infinity.limit is not None else None
        ),
    }
    return EXIT_OK


# ----------------------------------------------------------------- verify


# Each suite draws every instance and its points first, in the order the
# random stream gives them, then evaluates the instances of one dimension as
# one stack of realizations, one row per point.  The dimensions come in the
# order of their first instance and the rows in instance order, so a refusal
# names the first refused point of the first instance it meets.


def _by_dimension(dims, records):
    """The records grouped by their dimensions, in order of first record."""
    groups = {}
    for dim, record in zip(dims, records):
        groups.setdefault(dim, []).append(record)
    return groups.values()


def _rows(stacks):
    """Point stacks, one per member of a group, as one stack, and for each
    point the index of its member."""
    rows = np.repeat(np.arange(len(stacks)), [len(lam[0]) for lam in stacks])
    return rows, tuple(np.concatenate(coordinate) for coordinate in zip(*stacks))


def _model_residual_max(kind, members, pairs, tol):
    """The largest model residual of the members (field tuples of ``kind``,
    see ``_stack``) over their pairs (lam, mu) of stacks, in one call."""
    rows, lam = _rows([pair[0] for pair in pairs])
    mu = _rows([pair[1] for pair in pairs])[1]
    stack = _stack(kind, members, np.concatenate([rows, rows]))
    return float(model_residual(stack, lam, mu, tol).max())


def _suite_colligations(rng, n, tol):
    unitaries = _Unitaries()
    dims, drawn = [], []
    for _ in range(n):
        dims.append(int(rng.integers(2, 6)))
        drawn.append((_colligation(rng, dims[-1], unitaries),
                      random_interior_points(rng, 4), _pair_stacks(rng, 3)))
    worst_schur = 0.0
    worst_model = 0.0
    for group in _by_dimension(dims, drawn):
        builds, lams, pairs = zip(*group)
        cs = [build() for build in builds]
        rows, lam = _rows(lams)
        phi = eval_phi(_stack(Colligation, cs, rows), lam, tol)
        worst_schur = max(worst_schur, float(np.abs(phi).max()) - 1.0)
        worst_model = max(worst_model, _model_residual_max(Colligation, cs, pairs, tol))
    return {
        "schur_bound_excess_max": worst_schur,
        "model_residual_max": worst_model,
        "pass": bool(worst_schur <= SCHUR_EXCESS_MAX and worst_model < RESIDUAL_MAX),
    }


def _suite_desingularization(rng, n, tol):
    unitaries = _Unitaries()
    drawn = []
    for _ in range(n):
        tau = tuple(np.ravel(random_torus_points(rng, 1)))
        build = _kernel_colligation(rng, int(rng.integers(2, 5)),
                                    int(rng.integers(1, 3)), tau, unitaries)
        drawn.append((tau, build, _pair_stacks(rng, 3), random_torus_points(rng, 3)))
    worst = {"model_residual": 0.0, "inner": 0.0, "radial_inner": 0.0,
             "slope_liminf": 0.0}
    unconverged = 0
    shrink = 1.0 - np.array([0.5, 0.125, 2.0 ** -6])
    dims, records = [], []
    for tau, build, pairs, torus in drawn:
        c = build()
        g = desingularize(c, tau, tol)
        pair = slope_mod.SlopePair.from_realization(g)
        liminf = boundary.model_liminf(c, boundary.ApproachPath.radial(tau), tol)
        unconverged += not liminf.converged
        worst["slope_liminf"] = max(worst["slope_liminf"], abs(
            liminf.estimate.real + slope_mod.slope_eval(pair, 1.0).real))
        dims.append(g.dim)
        records.append(((g.a, g.beta, g.gamma, g.Q, g.Y, g.tau), pairs,
                        _far_from(g.tau, torus), (shrink * tau[0], shrink * tau[1])))
    for group in _by_dimension(dims, records):
        gs, pairs, torus, radial = zip(*group)
        worst["model_residual"] = max(worst["model_residual"], _model_residual_max(
            GeneralizedRealization, gs, pairs, tol))
        rows, lam = _rows(torus)
        worst["inner"] = max(worst["inner"], _inner_residual(
            _stack(GeneralizedRealization, gs, rows), lam, tol))
        rows, lam = _rows(radial)
        I_lam = eval_I(_stack(GeneralizedRealization, gs, rows), lam, tol)
        r = np.tile(shrink, len(gs))[:, None, None]
        worst["radial_inner"] = max(worst["radial_inner"], float(
            np.abs(I_lam - r * np.eye(I_lam.shape[-1])).max()))
    suite = {
        **worst,
        "pass": bool(not unconverged
                     and worst["model_residual"] < RESIDUAL_MAX and worst["inner"] < RESIDUAL_MAX
                     and worst["radial_inner"] < RADIAL_INNER_MAX
                     and worst["slope_liminf"] < SLOPE_LIMINF_MAX),
    }
    if unconverged:
        suite["slope_liminf"] = None
        suite["reason"] = (f"the Julia liminf did not converge for "
                           f"{unconverged} of {n} colligations")
    return suite


def _suite_measures(rng, n, tol):
    worst_round = 0.0
    worst_equiv = 0.0
    min_im = np.inf
    min_im_zh = np.inf
    lost_atoms = 0
    grid = random_upper_points(rng, (25,))
    equiv_grid = grid[:8]
    for _ in range(n):
        nu = random_measure(rng)
        nd = representations.nevanlinna_from_measure(nu)
        back = representations.measure_from_nevanlinna(nd)
        if len(back.atoms) != len(nu.atoms):
            lost_atoms += 1
        else:
            for (s1, w1), (s2, w2) in zip(nu.atoms, back.atoms):
                worst_round = max(worst_round, abs(s1 - s2), abs(w1 - w2))
        gap = (representations.h_from_measure(nu, equiv_grid)
               - representations.h_from_nevanlinna(nd, equiv_grid))
        worst_equiv = max(worst_equiv, float(np.abs(gap).max()))
        check = slope_mod.pick_check(partial(representations.h_from_measure, nu), grid)
        min_im = min(min_im, check["min_im_h"])
        min_im_zh = min(min_im_zh, check["min_im_neg_zh"])
    suite = {
        "round_trip_max": None if lost_atoms else worst_round,
        "evaluation_equivalence_max": worst_equiv,
        "min_im_h": float(min_im),
        "min_im_neg_zh": float(min_im_zh),
        "pass": bool(not lost_atoms and worst_round < ROUND_TRIP_MAX
                     and worst_equiv < EQUIVALENCE_MAX and min_im >= -slope_mod.PICK_SLACK
                     and min_im_zh >= -slope_mod.PICK_SLACK),
    }
    if lost_atoms:
        suite["reason"] = (f"the round trip changed the number of atoms of "
                           f"{lost_atoms} of {n} measures")
    return suite


def _suite_reps(rng, n, tol):
    unitaries = _Unitaries()
    dims, builds, grids = [], [], []
    for _ in range(n):
        dims.append(int(rng.integers(1, 5)))
        builds.append(_nev_rep(rng, dims[-1], unitaries))
        grids.append(tuple(random_upper_points(rng, (10, 2)).T))
    reps = [build() for build in builds]
    min_im = np.inf
    for group in _by_dimension(dims, zip(reps, grids)):
        members, zs = zip(*group)
        rows, z = _rows(zs)
        h = nev2d.eval_h2(_stack(nev2d.TwoVarNevRep, members, rows), z, tol)
        min_im = min(min_im, float(h.imag.min()))
    worst_limit = 0.0
    no_limit = 0
    for fields in reps:
        rep = nev2d.TwoVarNevRep(*fields)
        infinity = nev2d.carapoint_at_infinity(partial(nev2d.eval_h2, rep, tol=tol))
        if not infinity.finite:
            no_limit += 1
        else:
            worst_limit = max(worst_limit, abs(
                infinity.limit - float(np.linalg.norm(rep.alpha) ** 2)))
    suite = {
        "min_im_h2": float(min_im),
        "infinity_limit_err_max": None if no_limit else worst_limit,
        "pass": bool(not no_limit and min_im >= -slope_mod.PICK_SLACK
                     and worst_limit < INFINITY_LIMIT_MAX),
    }
    if no_limit:
        suite["reason"] = (f"y Im h(iy, iy) found no finite limit for "
                           f"{no_limit} of {n} representations")
    return suite


def cmd_verify(args) -> int:
    report = _report(args, _suites)
    for name, suite in report.get("suites", {}).items():
        detail = " ".join(
            f"{k}={v:.3e}" for k, v in suite.items()
            if k != "pass" and isinstance(v, float)
        )
        if "reason" in suite:
            detail += f" ({suite['reason']})"
        print(f"{'PASS' if suite['pass'] else 'FAIL'} {name}: {detail}",
              file=sys.stderr)
    _emit(report)
    return report["exit_code"]


def _suites(args, tol, report) -> int:
    with _input_stage():
        if args.random < 1:
            raise InvalidInputError(f"--random must be at least 1, got {args.random}")
        _require_seed(args)
    report["seed"] = args.seed
    rng = np.random.default_rng(args.seed)
    n = args.random
    try:
        suites = {
            "colligations": _suite_colligations(rng, n, tol),
            "desingularization": _suite_desingularization(rng, max(1, n // 2), tol),
            "measures": _suite_measures(rng, n, tol),
            "reps": _suite_reps(rng, max(1, n // 2), tol),
        }
    except PreconditionError as exc:
        # a drawn instance, not the input, missed the precondition: a numeric failure
        raise BischurError(str(exc)) from exc
    report["random"] = n
    report["suites"] = suites
    return EXIT_OK if all(s["pass"] for s in suites.values()) else EXIT_VERIFY


# ------------------------------------------------------------------- main


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=20120326,
                        help="seed of the sampled checks of analyze and verify; "
                             "the other commands only echo it into the report")
    parser.add_argument("--tolerances", default=None,
                        help="JSON object overriding tolerance defaults")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp so reports are byte-identical")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="bischur",
        description="Boundary analysis of two-variable Schur functions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="carapoint and slope analysis of a colligation")
    p.add_argument("colligation", help="colligation JSON file")
    p.add_argument("--tau", required=True, help="torus point, e.g. '1,1' or '-1,i'")
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.add_argument("--csv", default=None, help="write slope samples as CSV")
    _add_common(p)

    p = sub.add_parser("synth", help="synthesize a Schur function from a slope measure")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--tau", default=None, help="carapoint to prescribe (default 1,1)")
    p.add_argument("--omega", default=None, help="boundary value to prescribe (default 1)")
    p.add_argument("--out", default=None,
                   help="output path: .json writes the exact colligation, .csv writes samples")
    p.add_argument("--verify", action="store_true",
                   help="verify the slope and carapoint prescriptions")
    _add_common(p)

    p = sub.add_parser("nevrep", help="two-variable resolvent representation")
    p.add_argument("input", help="colligation JSON or measure JSON")
    p.add_argument("--omega", default=None,
                   help="boundary value when synthesizing from a measure")
    p.add_argument("--out", default=None, help="write the representation JSON here")
    _add_common(p)

    p = sub.add_parser("verify", help="seeded random property suites")
    p.add_argument("--random", type=int, default=20, help="instances per suite")
    _add_common(p)
    return parser


def _attach_values(argv):
    """Write ``--tau -1,1j`` as ``--tau=-1,1j``: argparse takes a separate
    value that starts with a minus, other than a plain negative number, for
    an option and stops with a usage error."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--tau", "--omega") and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    # Looked up on each call, so a rebound cmd_* (a test stub, a tracer) runs.
    handlers = {"analyze": cmd_analyze, "synth": cmd_synth,
                "nevrep": cmd_nevrep, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except (SchemaError, OSError) as exc:
        print(_json_text({"error": {"kind": "input", "message": str(exc)}}))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
