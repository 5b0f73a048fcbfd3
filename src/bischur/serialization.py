"""JSON encodings of the package's data types.

Wire conventions: a complex scalar is a two-element array [re, im]; a matrix
is {"rows": r, "cols": c, "data": [[re, im], ...]} in row-major order;
vectors are single-column matrices; measures are {"atoms": [{"s": .., "w": ..}]}
and Nevanlinna data {"c": .., "d": .., "atoms": [{"t": .., "m": ..}]}.
Tolerance payloads may set any of rank_rel/structural/solve_cond_max.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .colligation import Colligation
from .desingularize import GeneralizedRealization
from .errors import SchemaError
from .linalg import Tolerances
from .nev2d import TwoVarNevRep
from .representations import DiscreteMeasure01, NevanlinnaData

__all__ = [
    "complex_to_json", "complex_from_json",
    "matrix_to_json", "matrix_from_json",
    "vector_to_json", "vector_from_json",
    "colligation_to_json", "colligation_from_json",
    "generalized_to_json",
    "measure_to_json", "measure_from_json",
    "nevanlinna_to_json",
    "rep_to_json",
    "tolerances_from_json",
    "detect_payload_kind",
]


def _real(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a real number, got {value!r}")
    return float(value)


def complex_to_json(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj, where="complex") -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise SchemaError(f"{where}: expected [re, im]")
    return complex(_real(obj[0], where), _real(obj[1], where))


def matrix_to_json(A) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim == 1:
        A = A[:, None]
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "data": np.ascontiguousarray(A).view(float).reshape(-1, 2).tolist(),
    }


def _pairs_as_complex(data, n):
    """n [re, im] pairs of plain numbers as one complex array, or None when
    any entry is something else: the caller then walks the entries one by
    one to name the first bad one."""
    try:
        if not set(map(type, chain.from_iterable(data))) <= {float, int}:
            return None
        pairs = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if pairs.shape != (n, 2):
        return None
    return pairs.view(complex)


def matrix_from_json(obj, where="matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object with rows/cols/data")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError):
        raise SchemaError(f"{where}: missing or malformed rows/cols/data") from None
    if rows < 1 or cols < 1 or not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(f"{where}: data length must equal rows*cols")
    A = _pairs_as_complex(data, rows * cols)
    if A is None:
        flat = [complex_from_json(entry, f"{where}.data[{k}]") for k, entry in enumerate(data)]
        A = np.array(flat, dtype=complex)
    A = A.reshape(rows, cols)
    if not np.all(np.isfinite(A)):
        raise SchemaError(f"{where}: entries must be finite")
    return A


def vector_to_json(v) -> dict:
    return matrix_to_json(np.asarray(v, dtype=complex).reshape(-1, 1))


def vector_from_json(obj, where="vector") -> np.ndarray:
    A = matrix_from_json(obj, where)
    if A.shape[1] != 1:
        raise SchemaError(f"{where}: expected a single-column matrix")
    return A[:, 0]


def colligation_to_json(c: Colligation) -> dict:
    return {
        "a": complex_to_json(c.a),
        "beta": vector_to_json(c.beta),
        "gamma": vector_to_json(c.gamma),
        "D": matrix_to_json(c.D),
        "P1": matrix_to_json(c.P1),
    }


def colligation_from_json(obj) -> Colligation:
    if not isinstance(obj, dict):
        raise SchemaError("colligation: expected a JSON object")
    for key in ("a", "beta", "gamma", "D", "P1"):
        if key not in obj:
            raise SchemaError(f"colligation: missing field {key!r}")
    try:
        return Colligation(
            a=complex_from_json(obj["a"], "a"),
            beta=vector_from_json(obj["beta"], "beta"),
            gamma=vector_from_json(obj["gamma"], "gamma"),
            D=matrix_from_json(obj["D"], "D"),
            P1=matrix_from_json(obj["P1"], "P1"),
        )
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"colligation: {exc}") from exc


def generalized_to_json(g: GeneralizedRealization) -> dict:
    return {
        "a": complex_to_json(g.a),
        "beta": vector_to_json(g.beta),
        "gamma": vector_to_json(g.gamma),
        "Q": matrix_to_json(g.Q),
        "Y": matrix_to_json(g.Y),
        "tau": [complex_to_json(g.tau[0]), complex_to_json(g.tau[1])],
        "u_tau": vector_to_json(g.u_tau),
    }


def measure_to_json(nu: DiscreteMeasure01) -> dict:
    return {"atoms": [{"s": s, "w": w} for s, w in nu.atoms]}


def measure_from_json(obj) -> DiscreteMeasure01:
    if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
        raise SchemaError("measure: expected {'atoms': [...]}")
    pairs = []
    for k, atom in enumerate(obj["atoms"]):
        if not isinstance(atom, dict) or "s" not in atom or "w" not in atom:
            raise SchemaError(f"measure.atoms[{k}]: expected {{'s': .., 'w': ..}}")
        pairs.append((_real(atom["s"], f"atoms[{k}].s"), _real(atom["w"], f"atoms[{k}].w")))
    try:
        return DiscreteMeasure01(tuple(pairs))
    except Exception as exc:
        raise SchemaError(f"measure: {exc}") from exc


def nevanlinna_to_json(nd: NevanlinnaData) -> dict:
    return {"c": nd.c, "d": nd.d, "atoms": [{"t": t, "m": m} for t, m in nd.atoms]}


def rep_to_json(rep: TwoVarNevRep) -> dict:
    return {
        "b": rep.b,
        "alpha": vector_to_json(rep.alpha),
        "B": matrix_to_json(rep.B),
        "Y": matrix_to_json(rep.Y),
    }


def tolerances_from_json(obj, base: Tolerances) -> Tolerances:
    if obj is None:
        return base
    if not isinstance(obj, dict):
        raise SchemaError("tolerances: expected an object")
    allowed = {"rank_rel", "structural", "solve_cond_max"}
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"tolerances: unknown fields {sorted(unknown)}")
    values = {name: _real(obj[name], f"tolerances.{name}") for name in obj}
    try:
        return Tolerances(
            rank_rel=values.get("rank_rel", base.rank_rel),
            structural=values.get("structural", base.structural),
            solve_cond_max=values.get("solve_cond_max", base.solve_cond_max),
        )
    except Exception as exc:
        raise SchemaError(f"tolerances: {exc}") from exc


def detect_payload_kind(obj) -> str:
    """Classify a loaded JSON object by its schema."""
    if not isinstance(obj, dict):
        raise SchemaError("payload must be a JSON object")
    if {"a", "beta", "gamma", "D", "P1"} <= set(obj):
        return "colligation"
    if {"b", "alpha", "B", "Y"} <= set(obj):
        return "rep"
    if "atoms" in obj:
        atoms = obj["atoms"]
        if atoms and isinstance(atoms[0], dict) and "t" in atoms[0]:
            return "nevanlinna"
        if "c" in obj or "d" in obj:
            return "nevanlinna"
        return "measure"
    raise SchemaError("payload matches no known schema")
