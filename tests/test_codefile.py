import json

import numpy as np
import pytest

from cubacode import CodeFileError, build_catalog_code, load_code, save_code
from cubacode.codefile import dumps_code, loads_code


def good_doc():
    return {
        "name": "pair",
        "modes": 1,
        "shells": [1.0],
        "claimed_degree": 1,
        "logicals": [
            [
                {"point": [[1.0, 0.0]], "weight": 0.5},
                {"point": [[-1.0, 0.0]], "weight": 0.5},
            ],
            [
                {"point": [[0.0, 1.0]], "weight": 0.5},
                {"point": [[0.0, -1.0]], "weight": 0.5},
            ],
        ],
    }


def test_round_trip(tmp_path):
    code = build_catalog_code("twoshell_24cell", {"tau": 2.0})
    path = tmp_path / "code.json"
    save_code(code, path)
    loaded = load_code(path)
    assert loaded.name == code.name
    assert loaded.modes == code.modes
    for a, b in zip(loaded.logicals, code.logicals):
        assert np.allclose(a.points, b.points)
        assert np.allclose(a.weights, b.weights)


def test_saved_file_has_no_shells_key_and_loads_back(tmp_path):
    code = build_catalog_code("polygon_shells", {"m": 4, "p": 3, "radii": (1.0, 2.0, 3.0)})
    path = tmp_path / "code.json"
    save_code(code, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert "shells" not in doc
    loaded = load_code(path)
    assert (loaded.name, loaded.claimed_degree) == (code.name, code.claimed_degree)
    for a, b in zip(loaded.logicals, code.logicals, strict=True):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)


def test_valid_document_loads():
    code = loads_code(json.dumps(good_doc()))
    assert code.dim == 2 and code.modes == 1


def test_missing_field_reports_path():
    doc = good_doc()
    del doc["modes"]
    with pytest.raises(CodeFileError) as err:
        loads_code(json.dumps(doc))
    assert err.value.path == "$.modes"


def test_negative_weight_reports_path():
    doc = good_doc()
    doc["logicals"][0][1]["weight"] = -0.5
    with pytest.raises(CodeFileError) as err:
        loads_code(json.dumps(doc))
    assert err.value.path == "$.logicals[0][1].weight"


def test_unnormalized_weights_report_constellation():
    doc = good_doc()
    doc["logicals"][1][0]["weight"] = 0.7
    with pytest.raises(CodeFileError) as err:
        loads_code(json.dumps(doc))
    assert err.value.path == "$.logicals[1]"
    assert "sum to 1" in str(err.value)
    assert str(err.value).endswith("weights must sum to 1 within 1e-12 (got 1.2)")


def test_wrong_point_arity_reports_path():
    doc = good_doc()
    doc["logicals"][0][0]["point"] = [[1.0, 0.0], [0.0, 0.0]]
    with pytest.raises(CodeFileError) as err:
        loads_code(json.dumps(doc))
    assert err.value.path == "$.logicals[0][0].point"


def test_invalid_json_reported():
    with pytest.raises(CodeFileError, match="invalid JSON"):
        loads_code("{not json")


def test_shell_mismatch_reports_top_level():
    doc = good_doc()
    doc["shells"] = [3.0]
    with pytest.raises(CodeFileError) as err:
        loads_code(json.dumps(doc))
    assert err.value.path == "$"
    assert "point 0 of logical 0 has norm 1.0 matching no declared shell" in str(err.value)


def test_dumps_is_deterministic():
    code = build_catalog_code("cat", {"m": 4})
    assert dumps_code(code) == dumps_code(code)
