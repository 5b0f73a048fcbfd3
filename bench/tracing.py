"""Span tracing of bischur's layers from outside the package.

``Tracer.install`` wraps the public functions named in ``TARGETS`` and the
``numpy.linalg`` kernels bischur calls, rebinding each wrapper in every
``bischur.*`` namespace that holds the original (the CLI binds names with
``from ... import``).  While a job is active each wrapped call records a span
``(name, start, end, parent, job)`` in memory, with start and end read from
the process CPU clock, like the measured runs; ``uninstall`` restores the
originals.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import process_time

import numpy as np

# (module, attribute, span name); a dotted attribute names a method.
TARGETS = [
    ("bischur.cli", "main", "cli.main"),
    ("bischur.cli", "cmd_synth", "cli.cmd_synth"),
    ("bischur.cli", "cmd_analyze", "cli.cmd_analyze"),
    ("bischur.cli", "cmd_nevrep", "cli.cmd_nevrep"),
    ("bischur.cli", "cmd_verify", "cli.cmd_verify"),
    ("bischur.cli", "_derivative_checks", "cli.derivative_checks"),
    ("bischur.cli", "_generalized_verification", "cli.generalized_verification"),
    ("bischur.cli", "_suite_colligations", "cli.suite_colligations"),
    ("bischur.cli", "_suite_desingularization", "cli.suite_desingularization"),
    ("bischur.cli", "_suite_measures", "cli.suite_measures"),
    ("bischur.cli", "_suite_reps", "cli.suite_reps"),
    ("bischur.cli", "_emit", "serialization.emit"),
    ("bischur.cli", "_load_json", "serialization.load_json"),
    ("bischur.synthesis", "fit_colligation", "synthesis.fit_colligation"),
    ("bischur.synthesis", "synth_eval", "synthesis.synth_eval"),
    ("bischur.synthesis", "verify_slope", "synthesis.verify_slope"),
    ("bischur.synthesis", "verify_carapoint", "synthesis.verify_carapoint"),
    ("bischur.colligation", "unitary_extension", "colligation.unitary_extension"),
    ("bischur.colligation", "eval_phi", "colligation.eval_phi"),
    ("bischur.colligation", "model_residual", "colligation.model_residual"),
    ("bischur.colligation", "Colligation.validate", "colligation.validate"),
    ("bischur.linalg", "min_norm_solve", "linalg.min_norm_solve"),
    ("bischur.linalg", "structure_check", "linalg.structure_check"),
    ("bischur.boundary", "is_carapoint", "boundary.is_carapoint"),
    ("bischur.boundary", "radial_liminf", "boundary.radial_liminf"),
    ("bischur.boundary", "nontangential_value", "boundary.nontangential_value"),
    ("bischur._limits", "refine_to_limit", "limits.refine_to_limit"),
    ("bischur.desingularize", "desingularize", "desingularize.desingularize"),
    ("bischur.desingularize", "eval_I", "desingularize.eval_I"),
    ("bischur.desingularize", "u_vector", "desingularize.u_vector"),
    ("bischur.desingularize", "eval_phi_gen", "desingularize.eval_phi_gen"),
    ("bischur.slope", "slope_eval", "slope.slope_eval"),
    ("bischur.slope", "slope_measure", "slope.slope_measure"),
    ("bischur.slope", "directional_derivative_numeric", "slope.directional_derivative_numeric"),
    ("bischur.slope", "pick_check", "slope.pick_check"),
    ("bischur.nev2d", "rep_from_schur", "nev2d.rep_from_schur"),
    ("bischur.nev2d", "eval_h2", "nev2d.eval_h2"),
    ("bischur.nev2d", "carapoint_at_infinity", "nev2d.carapoint_at_infinity"),
    ("bischur.representations", "stieltjes_recover", "representations.stieltjes_recover"),
    ("bischur.representations", "nevanlinna_from_measure", "representations.nevanlinna_from_measure"),
    ("bischur._integrate", "adaptive_trapezoid", "integrate.adaptive_trapezoid"),
] + [("bischur.generate", name, "generate." + name) for name in (
    "random_unitary", "random_projection", "random_colligation",
    "random_colligation_with_kernel", "random_measure", "random_nev_rep",
    "random_interior_point", "random_torus_point", "random_inward_direction")] + [
    ("bischur.serialization", name, "serialization." + name) for name in (
        "colligation_to_json", "colligation_from_json", "generalized_to_json",
        "measure_to_json", "measure_from_json", "nevanlinna_to_json", "rep_to_json")]

KERNELS = ("svd", "solve", "cond", "eigh", "norm")


def _n3(a) -> int:
    """Sum over the stack of m * n * min(m, n) for an (..., m, n) array."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 0
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


class Tracer:
    """In-memory spans plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, job]
        self.stack: list[int] = []
        self.job = None               # spans are recorded only while set
        self.jobs = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording
    def start_job(self):
        self.jobs += 1
        self.job = self.jobs

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, process_time(), 0.0, parent, self.job])
        self.stack.append(len(self.spans) - 1)

    def _leave(self):
        self.spans[self.stack.pop()][2] = process_time()

    def _wrap(self, name, fn, after=None, before=None):
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            finally:
                self._leave()
            if after is not None:
                after(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # ----------------------------------------------------------- counters
    def _after_limit(self, args, kwargs, result, exc):
        self.counts["limits.refine_to_limit.calls"] += 1
        if result is None or not result.converged:
            self.counts["limits.unconverged"] += 1
        if result is not None:
            self.counts["limits.samples"] += len(result.samples)

    def _before_stieltjes(self, args, kwargs):
        h = args[0]

        def counted(z):
            self.counts["representations.h_evals"] += 1
            return h(z)

        return (counted, *args[1:]), kwargs

    def _after_stieltjes(self, args, kwargs, result, exc):
        if exc is not None and type(exc).__name__ == "NoLimitError":
            self.counts["representations.no_limit"] += 1

    def _after_kernel(self, kind):
        def after(args, kwargs, result, exc):
            a = args[0] if args else kwargs.get("a", kwargs.get("x"))
            if kind in ("svd", "cond") or (
                    kind == "norm" and np.ndim(a) == 2
                    and (args[1:2] or (kwargs.get("ord"),))[0] in (2, -2)):
                self.counts["kernel.svd.calls"] += 1
                self.counts["kernel.svd.n3"] += _n3(a)
            elif kind == "solve":
                self.counts["kernel.solve.calls"] += 1
                self.counts["kernel.solve.n3"] += _n3(a)
        return after

    # --------------------------------------------------------- installing
    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "bischur" or modname.startswith("bischur.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        specials = {
            "limits.refine_to_limit": {"after": self._after_limit},
            "representations.stieltjes_recover": {"before": self._before_stieltjes,
                                                  "after": self._after_stieltjes},
        }
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            self._rebind(original, self._wrap(name, original, **specials.get(name, {})))
        for kind in KERNELS:
            original = getattr(np.linalg, kind)
            self._restore.append((np.linalg, kind, original))
            setattr(np.linalg, kind, self._wrap("kernel." + kind, original,
                                                after=self._after_kernel(kind)))
        # the CLI writes colligations and representations with json.dump
        cli = sys.modules["bischur.cli"]
        shim = types.ModuleType("json")
        shim.__dict__.update(vars(cli.json))
        shim.dump = self._wrap("serialization.json_dump", cli.json.dump)
        self._restore.append((cli, "json", cli.json))
        cli.json = shim

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ----------------------------------------------------------- analysis
    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += (end - start) - covered
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "names": names,
                       "spans": [[index[n], s, e, p, j] for n, s, e, p, j in self.spans]},
                      fh, separators=(",", ":"))
