import json
import math

import numpy as np
import pytest

from bischur import DiscreteMeasure01, NevanlinnaData, SchemaError, Tolerances
from bischur.cli import main
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
        tolerances_from_json({"unknown_field": 1.0}, Tolerances())


def test_detect_payload_kind():
    rng = np.random.default_rng(73)
    assert detect_payload_kind(colligation_to_json(random_colligation(rng, 2))) == "colligation"
    assert detect_payload_kind({"atoms": [{"s": 0.5, "w": 1.0}]}) == "measure"
    assert detect_payload_kind({"c": 0.0, "d": 0.0, "atoms": [{"t": -1.0, "m": 1.0}]}) == "nevanlinna"
    assert detect_payload_kind(rep_to_json(random_nev_rep(rng, 2))) == "rep"
    with pytest.raises(SchemaError):
        detect_payload_kind({"something": 1})


def _bits(A):
    return np.ascontiguousarray(A, dtype=complex).view(np.uint64).tolist()


def test_matrix_codec_is_bit_exact_through_json_text():
    A = np.array([[complex(-0.0, 5e-324), complex(1e308, -1e308)],
                  [complex(-5e-324, -0.0), complex(0.1, 1 / 3)]])
    obj = matrix_to_json(A)
    assert all(type(x) is float for pair in obj["data"] for x in pair)
    assert math.copysign(1.0, obj["data"][0][0]) == -1.0
    back = matrix_from_json(json.loads(json.dumps(obj)))
    assert _bits(back) == _bits(A)
    # a transposed view is written row-major all the same
    assert _bits(matrix_from_json(matrix_to_json(A.T))) == _bits(A.T)


def test_matrix_decoder_matches_the_entry_loop():
    rng = np.random.default_rng(74)
    specials = [-0.0, 5e-324, -1e308, 2**53 + 1, -7, 0]
    data = [[float(x) for x in rng.normal(size=2) * 10.0 ** rng.integers(-300, 300)]
            for _ in range(12)]
    data += [[a, b] for a, b in zip(specials, reversed(specials))]
    reference = [complex_from_json(entry) for entry in data]
    back = matrix_from_json({"rows": 6, "cols": 3, "data": data})
    assert _bits(back) == _bits(np.reshape(reference, (6, 3)))


@pytest.mark.parametrize("entry, message", [
    ([True, 0.0], "D.data[3]: expected a real number, got True"),
    ([0.0, "x"], "D.data[3]: expected a real number, got 'x'"),
    ([None, 0.0], "D.data[3]: expected a real number, got None"),
    ([1.0], "D.data[3]: expected [re, im]"),
    ([1.0, 0.0, 0.0], "D.data[3]: expected [re, im]"),
    ([[1.0, 0.0], 0.0], "D.data[3]: expected a real number, got [1.0, 0.0]"),
    (True, "D.data[3]: expected [re, im]"),
    (0.5, "D.data[3]: expected [re, im]"),
    ([float("nan"), 0.0], "D: entries must be finite"),
    ([0.0, float("-inf")], "D: entries must be finite"),
], ids=["bool", "str", "none", "short-pair", "long-pair", "deeper", "bare-bool",
        "bare-number", "nan", "inf"])
def test_malformed_matrix_entry_exits_2_naming_it(capsys, tmp_path, favourite_colligation,
                                                  entry, message):
    payload = colligation_to_json(favourite_colligation)
    payload["D"]["data"][3] = entry
    assert analyze_error(capsys, tmp_path, payload) == {"kind": "input", "message": message}


def test_wrong_data_length_exits_2(capsys, tmp_path, favourite_colligation):
    payload = colligation_to_json(favourite_colligation)
    payload["D"]["data"].pop()
    assert analyze_error(capsys, tmp_path, payload) == {
        "kind": "input", "message": "D: data length must equal rows*cols"}


def analyze_error(capsys, tmp_path, payload):
    """The error of `analyze` on a colligation payload, which must exit 2."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = main(["analyze", str(path), "--tau=1,1", "--no-timestamp"])
    report = json.loads(capsys.readouterr().out)
    assert code == report["exit_code"] == 2
    return report["error"]
