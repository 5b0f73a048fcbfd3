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
from . import boundary, gates, nev2d, representations, slope as slope_mod, synthesis
from .colligation import Colligation, _model_identity, _stack, eval_phi, model_residual
from .desingularize import GeneralizedRealization, desingularize, eval_I
from .errors import (
    BischurError,
    InvalidInputError,
    ObstructionError,
    PreconditionError,
    SchemaError,
)
from .generate import (
    _colligations,
    _kernel_colligations,
    _measures,
    _nev_reps,
    random_interior_points,
    random_inward_directions,
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

class _InputFailure(BischurError):
    """The input could not be read, parsed or validated."""


# A builder's failure by its nearest listed class: (exit code, error kind).
_FAILURES = {
    _InputFailure: (EXIT_INPUT, "input"),
    PreconditionError: (EXIT_PRECONDITION, "precondition"),
    ObstructionError: (EXIT_OBSTRUCTION, "obstruction"),
    BischurError: (EXIT_NUMERIC, "numeric"),
}


def _failure(exc: BischurError) -> tuple[int, str]:
    """The exit code and error kind of a raised error: those of its nearest
    class in ``_FAILURES``."""
    return next(_FAILURES[t] for t in type(exc).__mro__ if t in _FAILURES)


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


def _finite(obj):
    """obj with every figure that is not finite, real or complex, as None."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_finite, obj))
    return None if isinstance(obj, (float, complex, np.inexact)) and not np.isfinite(obj) else obj


def _json_text(obj) -> str:
    """obj as one line of JSON with sorted keys, a figure that is not finite
    as null, for which only an object json refuses is walked.  Without an
    indent, json encodes in C; with one it falls back to pure Python."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, default=_json_default)
    except ValueError:
        return json.dumps(_finite(obj), sort_keys=True, allow_nan=False, default=_json_default)


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
        code, kind = _failure(exc)
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


def _gate(report):
    """Fill the derivative and Julia liminf figures and the bounds into the
    report's verification and decide it: every extrapolated limit converged,
    the residual maxima passed (see ``_generalized_verification``), every
    derivative check's rel_err is below DERIVATIVE_REL_ERR_MAX, both encoding
    gaps below ENCODING_MATCH_MAX and both Julia liminf matches below their
    bound, read in that order.  The maxima are np.max's: max skips a NaN
    that does not come first."""
    verification, checks = report["verification"], report["derivative_checks"]
    julia = report["julia_liminf"]
    matches = ("matches_witness_norm_sq", "matches_minus_h1")
    verification["derivative_rel_err_max"] = float(np.max([check["rel_err"] for check in checks]))
    verification["derivative_rel_err_bound"] = gates.DERIVATIVE_REL_ERR_MAX
    verification["encoding_bound"] = gates.ENCODING_MATCH_MAX
    verification["liminf_match_max"] = float(np.max([julia[key] for key in matches]))
    verification["liminf_match_bound"] = bound = gates.LIMINF_MATCH_MAX * (
        1.0 + report["carapoint"]["witness_norm_sq"])
    return gates.verdict(verification, [
        gates.converged("julia_liminf", julia["converged"]),
        *(gates.converged(f"derivative_checks[{k}]", check["converged"])
          for k, check in enumerate(checks)),
        (verification["pass"], verification.get("reason")),
        *(gates.within(f"derivative_checks[{k}].rel_err", check["rel_err"], "lt",
                       gates.DERIVATIVE_REL_ERR_MAX) for k, check in enumerate(checks)),
        *(gates.within(name, verification[name], "lt", gates.ENCODING_MATCH_MAX)
          for name in ("measure_encoding_max", "nevanlinna_encoding_max")),
        *(gates.within(f"julia_liminf.{key}", julia[key], "lt", bound) for key in matches),
    ])


def _pair_stacks(rng, n):
    """n pairs (lam, mu) of interior points, drawn lam first, as two stacks."""
    l1, l2 = random_interior_points(rng, 2 * n, 0.85)
    return (l1[0::2], l2[0::2]), (l1[1::2], l2[1::2])


def _far_from(tau, lam):
    """Where the points of the stack lam lie at least 0.2 from tau in each
    coordinate; tau may be a stack with one point per point of lam."""
    return (abs(lam[0] - tau[0]) >= 0.2) & (abs(lam[1] - tau[1]) >= 0.2)


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
    residual, phi_g, _ = _model_identity(g, lams, mus, tol)
    model_max = float(residual.max())
    agree_max = float(np.abs(phi_g - eval_phi(c, lams, tol)).max())
    torus = random_torus_points(rng, 10)
    far = _far_from(g.tau, torus)
    inner_max = _inner_residual(g, (torus[0][far], torus[1][far]), tol)
    figures = {
        "model_residual_max": model_max,
        "phi_agreement_max": agree_max,
        "inner_residual_max": inner_max,
    }
    return gates.verdict(figures, [gates.within(name, figure, "lt", gates.RESIDUAL_MAX)
                                   for name, figure in figures.items()])


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
    liminf = boundary.model_liminf(c, tau, tol)
    # (1 - Q) u_tau = gamma and I(tau) = 1 in the generalized model
    phi_tau = g.a + g.u_tau @ g.beta.conj()
    rng = np.random.default_rng(args.seed)
    checks = _derivative_checks(c, tau, phi_tau, pair, rng, 4, tol)
    verification = _generalized_verification(c, g, rng, tol)
    zs = np.array((1.0, *SLOPE_SAMPLE_POINTS))
    h1, *h_samples = slope_mod.slope_eval(pair, zs).tolist()
    # the slope function's three encodings, each gap relative to 1 + |h|
    h, from_measure = np.array(h_samples), representations.h_from_measure(nu, zs[1:])
    from_data = representations.h_from_nevanlinna(nd, zs[1:])
    for name, gap in (("measure_encoding_max", h - from_measure),
                      ("nevanlinna_encoding_max", from_measure - from_data)):
        verification[name] = float(np.max(np.abs(gap) / (1.0 + np.abs(h))))

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
    report["verification"] = verification
    return EXIT_OK if _gate(report)["pass"] else EXIT_NUMERIC


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
    # h of the input, not of rep, whose own h meets its b and alpha by algebra
    infinity = nev2d.carapoint_at_infinity(
        lambda z: nev2d.pick_value_from_schur(eval_phi(c, nev2d.to_bidisc(z), tol)))

    alpha_norm_sq = float(np.linalg.norm(rep.alpha) ** 2)
    limit_gap = abs(infinity.limit - alpha_norm_sq) if infinity.limit is not None else None
    value_gap = abs(infinity.value - rep.b) if infinity.value is not None else None
    report["rep"] = rep_to_json(rep)
    report["generalized"] = generalized_to_json(g)
    if g.notes:
        report["generalized"]["notes"] = list(g.notes)
    report["carapoint_at_infinity"] = at_infinity = {
        "finite": infinity.finite,
        "limit": infinity.limit,
        "value": infinity.value,
        "converged": infinity.converged,
        "alpha_norm_sq": alpha_norm_sq,
        "limit_matches_alpha": limit_gap,
        "value_matches_b": value_gap,
    }
    # the section carries a failure's reason, and no pass flag
    passed = gates.verdict(at_infinity, [
        (infinity.finite, "y Im h(iy, iy) has no finite limit"),
        gates.converged("the extrapolation of h(iy, iy)", infinity.converged),
        gates.within("limit_matches_alpha", limit_gap, "le",
                     gates.INFINITY_LIMIT_MAX * (1.0 + alpha_norm_sq)),
        gates.within("value_matches_b", value_gap, "le",
                     gates.VALUE_MATCH_MAX * (1.0 + abs(rep.b))),
    ]).pop("pass")
    return EXIT_OK if passed else EXIT_NUMERIC


# ----------------------------------------------------------------- verify


# Each suite draws all its instances first, in a fixed order of batched
# generator calls: every per-instance scalar and point array of all its
# instances, each array in one call, then the instances of each dimension,
# in order of its first instance, as one batch of ``generate``.  It then
# evaluates the instances of one dimension as one stack of realizations, one
# row per point, and samples their limits as one stack.  The rows come in
# instance order, so a refusal names the first refused point of the first
# instance it meets.  A batch of the desingularization suite turns each
# block by the phase that keeps 1 out of its spectrum once the batch is
# drawn, so no value drawn changes what is drawn next.  The suite
# desingularizes the colligations of one ambient dimension in one call,
# every one before any liminf, and checks the models of one model dimension
# together.  The measures suite has no dimensions: it evaluates all its
# measures in one call per encoding, one row per measure, and checks the
# rows with one pick_check.


def _groups(keys):
    """The indices of each distinct key, by key, in order of its first index."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _grouped(keys, evaluate):
    """The results of ``evaluate(key, group)``, one per index of the group,
    for each group of ``_groups(keys)``, put back in index order."""
    results = [None] * len(keys)
    for key, group in _groups(keys).items():
        for i, result in zip(group, evaluate(key, group)):
            results[i] = result
    return results


def _rows(group, owners, lam):
    """The points of the stack lam whose owner, the instance of each point,
    is in the ascending group, and for each the index of its owner there."""
    at = np.full(max(group[-1], owners.max(initial=0)) + 1, -1)
    at[group] = np.arange(len(group))
    rows = at[owners]
    kept = rows >= 0
    return rows[kept], (lam[0][kept], lam[1][kept])


def _model_residual_max(kind, members, group, owners, pairs, tol):
    """The largest model residual of the group's members (field tuples of
    ``kind``, see ``_stack``) over their pairs (lam, mu) of the stacks
    ``pairs``, in one call."""
    rows, lam = _rows(group, owners, pairs[0])
    stack = _stack(kind, members, np.concatenate([rows, rows]))
    return float(model_residual(stack, lam, _rows(group, owners, pairs[1])[1], tol).max())


def _suite_colligations(rng, n, tol):
    dims = rng.integers(2, 6, size=n).tolist()
    lam, pairs = random_interior_points(rng, 4 * n), _pair_stacks(rng, 3 * n)
    drawn = [(group, list(zip(*_colligations(rng, dim, len(group)))))
             for dim, group in _groups(dims).items()]
    worst_schur = 0.0
    worst_model = 0.0
    for group, cs in drawn:
        rows, lam_group = _rows(group, np.arange(4 * n) // 4, lam)
        phi = eval_phi(_stack(Colligation, cs, rows), lam_group, tol)
        worst_schur = max(worst_schur, float(np.abs(phi).max()) - 1.0)
        worst_model = max(worst_model, _model_residual_max(
            Colligation, cs, group, np.arange(3 * n) // 3, pairs, tol))
    return _verdict("colligations", {"schur_bound_excess_max": worst_schur,
                                      "model_residual_max": worst_model})


def _suite_desingularization(rng, n, tol):
    taus = list(zip(*random_torus_points(rng, n)))
    shapes = list(zip(rng.integers(2, 5, size=n).tolist(), rng.integers(1, 3, size=n).tolist()))
    pairs, torus = _pair_stacks(rng, 3 * n), random_torus_points(rng, 3 * n)
    cs = _grouped(shapes, lambda shape, group: _kernel_colligations(
        rng, *shape, [taus[i] for i in group]))
    # per ambient dimension; every desingularization first, so a failing
    # suite names a desingularization's error before a liminf's
    ambient = [c.dim for c in cs]
    gs = _grouped(ambient, lambda _, group: desingularize(
        [cs[i] for i in group], [taus[i] for i in group], tol))
    liminfs = _grouped(ambient, lambda _, group: boundary.model_liminf(
        [cs[i] for i in group], [taus[i] for i in group], tol))
    notes = [f"colligation {i}: {note}" for i, g in enumerate(gs) for note in g.notes]
    unconverged = sum(not liminf.converged for liminf in liminfs)
    worst = {"model_residual": 0.0, "inner": 0.0, "radial_inner": 0.0,
             "slope_liminf": 0.0}
    owners = np.arange(3 * n) // 3
    far = _far_from(tuple(np.array([g.tau for g in gs])[owners].T), torus)
    shrink = 1.0 - np.array([0.5, 0.125, 2.0 ** -6])
    radial = tuple((np.array(taus)[:, :, None] * shrink).transpose(1, 0, 2).reshape(2, -1))
    # per model dimension: h(1) and the model, inner and radial-inner residuals
    for group in _groups([g.dim for g in gs]).values():
        members = [gs[i] for i in group]
        models = [(g.a, g.beta, g.gamma, g.Q, g.Y, g.tau) for g in members]
        h1 = slope_mod.slope_eval(_stack(slope_mod.SlopePair, [(g.Y, g.u_tau) for g in members],
                                         np.arange(len(group))), np.ones(len(group)))
        worst["slope_liminf"] = max(worst["slope_liminf"], *(
            abs(liminfs[i].estimate.real + h) for i, h in zip(group, h1.real.tolist())))
        worst["model_residual"] = max(worst["model_residual"], _model_residual_max(
            GeneralizedRealization, models, group, owners, pairs, tol))
        rows, lam = _rows(group, owners[far], (torus[0][far], torus[1][far]))
        worst["inner"] = max(worst["inner"], _inner_residual(
            _stack(GeneralizedRealization, models, rows), lam, tol))
        rows, lam = _rows(group, owners, radial)
        I_lam = eval_I(_stack(GeneralizedRealization, models, rows), lam, tol)
        r = np.tile(shrink, len(group))[:, None, None]
        worst["radial_inner"] = max(worst["radial_inner"], float(
            np.abs(I_lam - r * np.eye(I_lam.shape[-1])).max()))
    if unconverged:
        worst["slope_liminf"] = None
    suite = _verdict("desingularization", worst, (not unconverged, (
        f"the Julia liminf did not converge for {unconverged} of {n} colligations")))
    if notes:
        suite["notes"] = notes
    return suite


def _suite_measures(rng, n, tol):
    worst_round = 0.0
    lost_atoms = 0
    grid = random_upper_points(rng, (25,))
    measures = _measures(rng, n)
    nds = []
    for nu in measures:
        nds.append(representations.nevanlinna_from_measure(nu))
        back = representations.measure_from_nevanlinna(nds[-1])
        if len(back.atoms) != len(nu.atoms):
            lost_atoms += 1
        else:
            for (s1, w1), (s2, w2) in zip(nu.atoms, back.atoms):
                worst_round = max(worst_round, abs(s1 - s2), abs(w1 - w2))
    # one row per measure; the first 8 points are the equivalence grid
    h = representations.h_from_measure(measures, grid)
    worst_equiv = float(np.abs(h[:, :8] - representations.h_from_nevanlinna(nds, grid[:8])).max())
    check = slope_mod.pick_check(lambda z: h, grid)
    return _verdict("measures", {
        "round_trip_max": None if lost_atoms else worst_round,
        "evaluation_equivalence_max": worst_equiv,
        "min_im_h": check["min_im_h"],
        "min_im_neg_zh": check["min_im_neg_zh"],
    }, (not lost_atoms,
        f"the round trip changed the number of atoms of {lost_atoms} of {n} measures"))


def _suite_reps(rng, n, tol):
    dims = rng.integers(1, 5, size=n).tolist()
    zs = random_upper_points(rng, (n, 10, 2)).reshape(-1, 2).T
    drawn = [(group, list(zip(*_nev_reps(rng, dim, len(group)))))
             for dim, group in _groups(dims).items()]
    min_im = np.inf
    worst_limit = 0.0
    no_limit = 0
    for group, members in drawn:
        rows, z = _rows(group, np.arange(10 * n) // 10, zs)
        h = nev2d.eval_h2(_stack(nev2d.TwoVarNevRep, members, rows), z, tol)
        min_im = min(min_im, float(h.imag.min()))
        # the rays (iy, iy) of every representation of the dimension from one sampling
        infinities = nev2d.carapoint_at_infinity(
            lambda seq, z: nev2d.eval_h2(_stack(nev2d.TwoVarNevRep, members, seq), z, tol),
            len(members))
        for (_, alpha, _, _), infinity in zip(members, infinities):
            if infinity.finite and infinity.converged:
                worst_limit = max(worst_limit, abs(
                    infinity.limit - float(np.linalg.norm(alpha) ** 2)))
            else:
                no_limit += 1
    return _verdict("reps", {
        "min_im_h2": float(min_im),
        "infinity_limit_err_max": None if no_limit else worst_limit,
    }, (not no_limit, f"y Im h(iy, iy) found no finite limit, or h(iy, iy) no "
                      f"converged value, for {no_limit} of {n} representations"))


# verify's suites in report order, by name (``_suite_<name>``): the share of
# --random a suite draws (share 2 draws half as many, at least one) and each
# figure with the comparison and the bound in ``gates`` that decide it (see
# ``gates.within`` and ``gates.bound``).  A suite that raises reports null figures.
_SUITES = {
    "colligations": (1, (("schur_bound_excess_max", "le", "SCHUR_EXCESS_MAX"),
                         ("model_residual_max", "lt", "RESIDUAL_MAX"))),
    "desingularization": (2, (("model_residual", "lt", "RESIDUAL_MAX"),
                              ("inner", "lt", "RESIDUAL_MAX"),
                              ("radial_inner", "lt", "RADIAL_INNER_MAX"),
                              ("slope_liminf", "lt", "SLOPE_LIMINF_MAX"))),
    "measures": (1, (("round_trip_max", "lt", "ROUND_TRIP_MAX"),
                     ("evaluation_equivalence_max", "lt", "EQUIVALENCE_MAX"),
                     ("min_im_h", "ge", "-PICK_SLACK"),
                     ("min_im_neg_zh", "ge", "-PICK_SLACK"))),
    "reps": (2, (("min_im_h2", "ge", "-PICK_SLACK"),
                 ("infinity_limit_err_max", "lt", "INFINITY_LIMIT_MAX"))),
}


def _verdict(name, figures, *checks):
    """The figures of suite ``name`` decided by ``checks``, then by each
    figure's bound in ``_SUITES``."""
    return gates.verdict(figures, [*checks, *(
        gates.within(figure, figures[figure], comparison, gates.bound(bound))
        for figure, comparison, bound in _SUITES[name][1])])


def cmd_verify(args) -> int:
    report = _report(args, _suites)
    for name, suite in report.get("suites", {}).items():
        detail = " ".join(
            [f"{k}={v:.3e}" for k, v in suite.items()
             if k != "pass" and isinstance(v, float)]
            + ([f"({suite['reason']})"] if "reason" in suite else [])
        )
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
    suites = {}
    for name, (share, rows) in _SUITES.items():
        # Every suite draws all its instances before it evaluates one, so a
        # suite that raises leaves the stream where it would have, and the
        # later suites draw what they draw after a pass; only a refused
        # block stops the draws where it is met.  Looked up on each call,
        # so a rebound suite (a tracer) runs.
        try:
            suites[name] = globals()[f"_suite_{name}"](rng, max(1, n // share), tol)
        except BischurError as exc:
            suites[name] = gates.verdict(dict.fromkeys(row[0] for row in rows),
                                         [(False, f"{_failure(exc)[1]} error: {exc}")])
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
