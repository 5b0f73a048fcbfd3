import json
import math

import numpy as np
import pytest

from bischur import DiscreteMeasure01, NevanlinnaData, SchemaError, Tolerances
from bischur.generate import random_colligation, random_nev_rep
from bischur.serialization import (
    colligation_from_json,
    colligation_to_json,
    complex_from_json,
    detect_payload_kind,
    matrix_from_json,
    matrix_to_json,
    measure_from_json,
    measure_to_json,
    nevanlinna_to_json,
    rep_to_json,
    tolerances_from_json,
    vector_from_json,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(70)
    A = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    assert np.array_equal(matrix_from_json(matrix_to_json(A)), A)


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
    with pytest.raises(SchemaError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[1.0, "x"]]})
    with pytest.raises(SchemaError):
        complex_from_json([1.0])


def test_colligation_round_trip():
    rng = np.random.default_rng(71)
    c = random_colligation(rng, 3)
    back = colligation_from_json(colligation_to_json(c))
    assert back.a == c.a
    assert np.array_equal(back.beta, c.beta)
    assert np.array_equal(back.D, c.D)
    assert np.array_equal(back.P1, c.P1)


def test_measure_and_nevanlinna_round_trip():
    nu = DiscreteMeasure01(((0.25, 1.0), (0.5, 2.0)))
    assert measure_from_json(measure_to_json(nu)) == nu
    nd = NevanlinnaData(c=-1.0, d=0.0, atoms=((-1.0, math.pi),))
    # the Nevanlinna encoder against README's schema {"c", "d", "atoms": [{"t", "m"}]}
    obj = nevanlinna_to_json(nd)
    assert obj == {"c": -1.0, "d": 0.0, "atoms": [{"t": -1.0, "m": math.pi}]}
    assert json.loads(json.dumps(obj)) == obj


def test_measure_schema_rejects_negative_weight():
    with pytest.raises(SchemaError):
        measure_from_json({"atoms": [{"s": 0.5, "w": -1.0}]})


def test_rep_round_trip():
    rng = np.random.default_rng(72)
    rep = random_nev_rep(rng, 2)
    # the representation encoder against README's schema {"b", "alpha", "B", "Y"}
    obj = json.loads(json.dumps(rep_to_json(rep)))
    assert set(obj) == {"b", "alpha", "B", "Y"}
    assert obj["b"] == rep.b
    assert (obj["alpha"]["rows"], obj["alpha"]["cols"]) == (2, 1)
    assert np.array_equal(vector_from_json(obj["alpha"]), rep.alpha)
    assert np.array_equal(matrix_from_json(obj["B"]), rep.B)
    assert np.array_equal(matrix_from_json(obj["Y"]), rep.Y)


def test_tolerances_partial_override():
    tol = tolerances_from_json({"structural": 1e-7}, Tolerances())
    assert tol.structural == 1e-7
    assert tol.rank_rel == Tolerances().rank_rel
    with pytest.raises(SchemaError):
        tolerances_from_json({"unknown_field": 1.0})


def test_detect_payload_kind():
    rng = np.random.default_rng(73)
    assert detect_payload_kind(colligation_to_json(random_colligation(rng, 2))) == "colligation"
    assert detect_payload_kind({"atoms": [{"s": 0.5, "w": 1.0}]}) == "measure"
    assert detect_payload_kind({"c": 0.0, "d": 0.0, "atoms": [{"t": -1.0, "m": 1.0}]}) == "nevanlinna"
    assert detect_payload_kind(rep_to_json(random_nev_rep(rng, 2))) == "rep"
    with pytest.raises(SchemaError):
        detect_payload_kind({"something": 1})
