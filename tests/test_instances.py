"""Instance file parsing, validation and round-tripping."""

import json

import pytest

from hada.errors import InstanceError
from hada.instances import (
    Instance,
    emit_instance,
    parse_instance,
    parse_instance_dict,
    save_instance,
)
from hada.projective import Hyperplane, PointSet
from hada.space import Line3


GRID_DOC = {
    "space": 2,
    "lines": {"L": [3, 1, -30], "Lp": [67, -6, -110]},
    "points": {
        "X": [[6, 12, 1], [22, 54, 4], [29, 63, 5]],
        "Xp": [[22, 154, 5], [28, 221, 5], [34, 288, 5], [18, 146, 3]],
    },
}


def test_grid_doc_round_trips_canonically():
    # parse(emit(x)) == x: emitted files are canonical fixed points
    inst = parse_instance_dict(GRID_DOC)
    emitted = emit_instance(inst)
    again = parse_instance_dict(emitted)
    assert emit_instance(again) == emitted
    assert again.point_set("X") == inst.point_set("X")
    assert again.line("L") == inst.line("L")
    # the non-primitive input point [22:54:4] canonicalizes
    assert [11, 27, 2] in emitted["points"]["X"]


def test_rational_strings_parse_exactly():
    inst = parse_instance_dict(
        {"space": 2, "points": {"P": [["1/3", "2", "-4/6"]]}}
    )
    assert inst.point_set("P").points[0].coords == (1, 6, -2)


def test_zero_over_zero_rejected():
    with pytest.raises(InstanceError, match=r"points\.P\[0\]\[0\]"):
        parse_instance_dict({"space": 2, "points": {"P": [["0/0", "1", "2"]]}})


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"space": 2, "points": {"X": [[1, 2, 3], [None, 1, 1]]}},
            "points.X[1][0]: not a rational: None",
        ),
        (
            {"space": 2, "lines": {"L": [1, None, 1]}},
            "lines.L[1]: not a rational: None",
        ),
        (
            {"space": 3, "lines": {"M": {"H": [1, 1, None, 1], "K": [1, 2, 3, 4]}}},
            "lines.M.H[2]: not a rational: None",
        ),
        (
            {"space": 2, "points": {"X": [[1, 2, 3], [1, 1]]}},
            "points.X[1]: expected 3 coordinates",
        ),
    ],
    ids=["point", "line", "plane-pair", "length"],
)
def test_each_location_is_named_once(doc, message):
    with pytest.raises(InstanceError) as info:
        parse_instance_dict(doc)
    assert str(info.value) == message


def test_floats_rejected():
    with pytest.raises(InstanceError, match="floats"):
        parse_instance_dict({"space": 2, "points": {"P": [[0.5, 1, 2]]}})


def test_duplicate_names_rejected():
    with pytest.raises(InstanceError, match="duplicate name"):
        parse_instance_dict(
            {"space": 2, "lines": {"L": [1, 1, 1]}, "points": {"L": [[1, 2, 3]]}}
        )


def test_wrong_coordinate_count():
    with pytest.raises(InstanceError, match="expected 3 coordinates"):
        parse_instance_dict({"space": 2, "lines": {"L": [1, 1, 1, 1]}})


def test_bad_space():
    with pytest.raises(InstanceError, match="space"):
        parse_instance_dict({"space": 4})


def test_plane_pairs_only_in_space_three():
    with pytest.raises(InstanceError, match="plane pairs"):
        parse_instance_dict(
            {"space": 2, "lines": {"L": {"H": [1, 1, 1], "K": [1, 2, 3]}}}
        )
    inst = parse_instance_dict(
        {"space": 3, "lines": {"L": {"H": [1, 2, 1, 1], "K": [1, 1, 1, -3]}}}
    )
    assert isinstance(inst.line3("L"), Line3)


def test_coincident_plane_pair_rejected():
    with pytest.raises(InstanceError, match="lines.L"):
        parse_instance_dict(
            {"space": 3, "lines": {"L": {"H": [1, 2, 1, 1], "K": [2, 4, 2, 2]}}}
        )


def test_duplicate_points_rejected():
    with pytest.raises(InstanceError, match=r"points\.X"):
        parse_instance_dict(
            {"space": 2, "points": {"X": [[1, 2, 3], [2, 4, 6]]}}
        )


def test_save_and_parse_file(tmp_path):
    inst = parse_instance_dict(GRID_DOC)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = parse_instance(path)
    assert emit_instance(again) == emit_instance(inst)


def test_malformed_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InstanceError, match="not valid JSON"):
        parse_instance(path)


def test_missing_file():
    with pytest.raises(InstanceError, match="cannot read"):
        parse_instance("/nonexistent/instance.json")


def test_seed_round_trip():
    inst = parse_instance_dict({"space": 3, "seed": 42})
    assert inst.seed == 42
    assert emit_instance(inst)["seed"] == 42
    with pytest.raises(InstanceError, match="seed"):
        parse_instance_dict({"space": 3, "seed": "7"})


def test_emit_canonicalizes():
    inst = parse_instance_dict(
        {"space": 2, "lines": {"L": ["2/4", "1", "-6"]}}
    )
    assert emit_instance(inst)["lines"]["L"] == [1, 2, -12]


@pytest.mark.parametrize("line", [[1, 1, 1], {"H": [1, 0, 0, 1], "K": [0, 1, 0, 1]}],
                         ids=["plane-line", "space-line"])
def test_point_set_named_like_a_line_is_rejected(line):
    space = 3 if isinstance(line, dict) else 2
    doc = {"space": space, "lines": {"X": line}, "points": {"X": [[1] * (space + 1)]}}
    with pytest.raises(InstanceError, match="duplicate name 'X'"):
        parse_instance_dict(doc)


def test_parsed_sets_and_lines_serve_as_keys():
    inst = parse_instance_dict({
        "space": 3,
        "lines": {"L": {"H": [1, -1, 1, 2], "K": [1, 2, -1, 1]},
                  "M": {"H": [2, 1, 0, 3], "K": [1, 2, -1, 1]}},
        "points": {"X": [[1, 2, 3, 4], [0, 1, 0, 1]], "Y": [[0, 2, 0, 2], [2, 4, 6, 8]]},
    })
    # the same line from another plane pair, the same set in another order
    assert len({inst.line3("L"), inst.line3("M")}) == 1
    assert len({inst.point_set("X"), inst.point_set("Y")}) == 1
    assert repr(inst.point_set("Y")) == "{[0:1:0:1], [1:2:3:4]}"
    assert repr(inst.line3("L")) == "Line3({1*x0-1*x1+1*x2+2*x3=0}, {1*x0+2*x1-1*x2+1*x3=0})"
