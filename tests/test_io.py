import json
import os
import threading
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartpatch import BezierPatch, PatchFormatError, PatchSet, io
from smartpatch.io import (
    _float_text,
    dump_patchset,
    export_obj,
    load_newell,
    load_patchset,
    read_newell,
    read_patchset,
    write_obj,
    write_patchset,
)
from smartpatch.tessellation import (
    Adjacency,
    EdgeId,
    EdgeSide,
    TriangleMesh,
    detect_adjacency,
    merge_meshes,
    tessellate,
    tessellate_set,
)

from helpers import loop_export_obj, loop_load_newell, patchset_json, random_patch, split_patch


def test_single_constant_patch_document():
    grid = [[1.0] * 4 for _ in range(4)]
    doc = json.dumps({"name": "one", "patches": [{"x": grid, "y": grid, "z": grid}]})
    ps = load_patchset(doc)
    assert ps.name == "one"
    assert len(ps.patches) == 1
    assert np.allclose(ps.patches[0].x, 1.0)
    assert ps.adjacency is None


def test_missing_grid_is_schema_error():
    grid = [[0.0] * 4 for _ in range(4)]
    doc = json.dumps({"name": "bad", "patches": [{"x": grid, "y": grid}]})
    with pytest.raises(PatchFormatError, match="patch 0.*'z'"):
        load_patchset(doc)


def test_wrong_grid_size_names_patch():
    good = [[0.0] * 4 for _ in range(4)]
    bad = [[0.0] * 4 for _ in range(3)]
    doc = json.dumps(
        {"name": "bad", "patches": [{"x": good, "y": good, "z": good},
                                    {"x": bad, "y": good, "z": good}]}
    )
    with pytest.raises(PatchFormatError, match="patch 1"):
        load_patchset(doc)


def test_nonfinite_value_rejected():
    good = [[0.0] * 4 for _ in range(4)]
    bad = [[0.0] * 4 for _ in range(3)] + [[0.0, 0.0, 0.0, "Infinity"]]
    text = json.dumps({"name": "bad", "patches": [{"x": bad, "y": good, "z": good}]})
    text = text.replace('"Infinity"', "Infinity")  # json.loads accepts the literal
    with pytest.raises(PatchFormatError, match="non-finite"):
        load_patchset(text)


def test_parse_error_reports_line():
    with pytest.raises(PatchFormatError, match="line 3"):
        load_patchset('{\n "name": "x",\n "patches": ]\n}')


def test_save_load_roundtrip_bit_exact(rng):
    patches = [random_patch(rng) for _ in range(3)]
    # values with awkward decimal expansions survive exactly
    tricky = np.full((4, 4), 0.1) + np.arange(16).reshape(4, 4) * 1e-17
    patches.append(BezierPatch(tricky, tricky * -3.7, tricky / 3.0))
    adjacency = [Adjacency(0, EdgeId(EdgeSide.U1), 1, EdgeId(EdgeSide.U0, reversed=True))]
    ps = PatchSet(name="round", patches=patches, adjacency=adjacency)
    text = dump_patchset(ps)
    back = load_patchset(text)
    assert back.name == "round"
    for p, q in zip(ps.patches, back.patches):
        for g, h in zip(p.grids, q.grids):
            assert np.array_equal(g, h)
    assert back.adjacency.tolist() == [[[0, 1, 0], [1, 0, 1]]]  # (patch, side, reversed) per side
    assert back == ps
    assert dump_patchset(back) == text  # deterministic re-serialization


def test_dump_is_the_indented_json_document(teapot_path):
    teapot = read_newell(teapot_path)
    split = PatchSet("split", [q for p in teapot.patches for q in split_patch(p)])
    edges = [EdgeId(side, flip) for side in EdgeSide for flip in (False, True)]
    records = [Adjacency(k, edges[k % 8], k + 1, edges[(3 * k) % 8]) for k in range(8)]
    special = np.array([[-0.0, 1e-300, 1.5e20, 3], [0, -2, 1e16, -1.5e-7]] * 2)
    sets = [
        teapot,
        split,
        PatchSet(split.name, split.patches, detect_adjacency(split.patches)),
        PatchSet('quote " back \\ tab \t', teapot.patches[:9], records),
        PatchSet("Kanne \u00e9\u00fc \u2603", [BezierPatch(special, special.T, -special)], []),
        PatchSet("", []),
    ]
    assert any(r.edge_a.reversed for r in records)  # a reversed_a written as true
    assert sets[2].adjacency[:, 1, 2].any()  # a reversed_b written as true
    for ps in sets:
        assert dump_patchset(ps).encode() == patchset_json(ps).encode()


def test_adjacency_validation():
    grid = [[0.0] * 4 for _ in range(4)]
    base = {"name": "x", "patches": [{"x": grid, "y": grid, "z": grid}]}
    doc = dict(base, adjacency=[{"a": 0, "edge_a": "U0", "b": 3, "edge_b": "U1"}])
    with pytest.raises(PatchFormatError, match="out of range"):
        load_patchset(json.dumps(doc))
    doc = dict(base, adjacency=[{"a": 0, "edge_a": "U0", "b": 0, "edge_b": "U0"}])
    with pytest.raises(PatchFormatError, match="itself"):
        load_patchset(json.dumps(doc))
    doc = dict(base, adjacency=[{"a": 0, "edge_a": "XX", "b": 0, "edge_b": "U1"}])
    with pytest.raises(PatchFormatError, match="edge_a"):
        load_patchset(json.dumps(doc))


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("a", "x", "adjacency 1: 'a' must be an integer"),
        ("a", None, "adjacency 1: 'a' must be an integer"),
        ("b", [1], "adjacency 1: 'b' must be an integer"),
        ("b", 1.7, "adjacency 1: 'b' must be an integer"),
        ("a", 1.0, "adjacency 1: 'a' must be an integer"),
        ("a", True, "adjacency 1: 'a' must be an integer"),
        ("reversed_a", "no", "adjacency 1: 'reversed_a' must be true or false"),
        ("reversed_b", 0, "adjacency 1: 'reversed_b' must be true or false"),
        ("reversed_b", None, "adjacency 1: 'reversed_b' must be true or false"),
    ],
)
def test_adjacency_record_types(field, value, match):
    grid = [[0.0] * 4 for _ in range(4)]
    good = {"a": 0, "edge_a": "U1", "b": 1, "edge_b": "U0"}
    doc = {"patches": [{"x": grid, "y": grid, "z": grid}] * 2, "adjacency": [good, dict(good)]}
    doc["adjacency"][1][field] = value
    with pytest.raises(PatchFormatError, match=match):
        load_patchset(json.dumps(doc))


def test_adjacency_record_flags_are_kept():
    grid = [[0.0] * 4 for _ in range(4)]
    rec = {"a": 0, "edge_a": "U1", "reversed_a": True, "b": 1, "edge_b": "U0", "reversed_b": False}
    doc = {"patches": [{"x": grid, "y": grid, "z": grid}] * 2, "adjacency": [rec]}
    got = load_patchset(json.dumps(doc)).adjacency
    assert got.tolist() == [[[0, 1, 1], [1, 0, 0]]] and got.dtype == np.intp


_GRID = [[0.0] * 4 for _ in range(4)]
_PATCH = {"x": _GRID, "y": _GRID, "z": _GRID}


@pytest.mark.parametrize("doc, message", [
    ([_PATCH], "top-level JSON value must be an object"),
    ({"name": "x"}, "document needs a 'patches' list"),
    ({"patches": {"0": _PATCH}}, "document needs a 'patches' list"),
    ({"name": 0, "patches": []}, "'name' must be a string"),
    ({"name": False, "patches": []}, "'name' must be a string"),
    ({"name": None, "patches": []}, "'name' must be a string"),
    ({"name": [], "patches": []}, "'name' must be a string"),
    ({"patches": [[_GRID] * 3]}, "patch 0: must be an object with x/y/z grids"),
    ({"patches": [_PATCH, dict(_PATCH, y=_GRID[:3] + [[0.0, "1", 0.0, 0.0]])]},
     "patch 1: grid 'y' has a non-numeric entry"),
    ({"patches": [dict(_PATCH, z=_GRID[:3] + [[0.0, 0.0, 0.0, True]])]},
     "patch 0: grid 'z' has a non-numeric entry"),
    ({"patches": [_PATCH], "adjacency": {"a": 0, "b": 0}}, "'adjacency' must be a list"),
    ({"patches": [_PATCH] * 2, "adjacency": [[0, 1]]},
     "adjacency 0: must be an object with 'a' and 'b'"),
    ({"patches": [_PATCH] * 2, "adjacency": [{"a": 0, "edge_a": "U1", "edge_b": "U0"}]},
     "adjacency 0: must be an object with 'a' and 'b'"),
])
def test_structural_errors_name_what_is_wrong(doc, message):
    with pytest.raises(PatchFormatError) as exc:
        load_patchset(json.dumps(doc), name="fallback")
    assert str(exc.value) == message


def test_read_patchset_tells_the_formats_apart_and_names_the_set(tmp_path, teapot_path):
    teapot = read_newell(teapot_path)
    doc = json.loads(dump_patchset(teapot))
    unnamed = {k: v for k, v in doc.items() if k != "name"}
    for file, text, name in [
        ("named.json", json.dumps(dict(doc, name="kept")), "kept"),
        ("unnamed.json", "\n  " + json.dumps(unnamed), "unnamed"),
        ("blank.json", json.dumps(dict(doc, name="")), "blank"),
        ("copy.newell", teapot_path.read_text(), "copy"),
    ]:
        (tmp_path / file).write_text(text)
        ps = read_patchset(tmp_path / file)
        assert ps.name == name
        assert np.array_equal(np.stack([p.as_array for p in ps.patches]),
                              np.stack([p.as_array for p in teapot.patches]))
    # only an object is JSON: any other text is read as Newell
    (tmp_path / "list.json").write_text(json.dumps([_PATCH]))
    with pytest.raises(PatchFormatError, match="^line 1: expected patch count"):
        read_patchset(tmp_path / "list.json")


# ---------------------------------------------------------------------------
# Float text


def rendered(values, lead=0):
    """The text of each row of ``_float_text``: its nonzero bytes."""
    text = _float_text(np.asarray(values, dtype=float).ravel(), np.zeros((1, lead + 1), np.uint8))
    assert not text[:, :lead].any() and not text[:, -1].any()  # the caller's columns
    return [bytes(row[row != 0]).decode() for row in text]


def assert_reprs(values):
    values = np.asarray(values, dtype=float)
    assert rendered(values) == [repr(x) for x in values.ravel().tolist()]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=300))
@settings(max_examples=200, deadline=None)
def test_reprs_of_arbitrary_bit_patterns(bits):
    assert_reprs(np.array(bits, dtype=np.uint64).view(np.float64))


@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.floats(1e-4, 1e16)
        | st.floats(-1e16, -1e-4)
        | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308]),
        max_size=300,
    )
)
@settings(max_examples=200, deadline=None)
def test_reprs_of_floats_in_and_out_of_the_positional_range(values):
    assert_reprs(values)


def test_reprs_next_to_the_range_limits():
    for edge in (1e-4, 1e-5, 1e16, 2.0**53):
        below, above = [edge], [edge]
        for _ in range(40):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        values = np.array(below[::-1] + above[1:])
        assert_reprs(values)
        assert_reprs(-values)


def test_reprs_of_powers_of_two_and_integers(rng):
    powers = 2.0 ** np.arange(-1074, 1024)
    assert_reprs(np.concatenate([powers, -powers]))
    ints = rng.integers(-(2**53), 2**53, 5000, endpoint=True).astype(float)
    assert_reprs(np.concatenate([ints, np.arange(-3000.0, 3000.0), [2.0**53 - 1, 2.0**53]]))


@pytest.mark.parametrize("ndigits", [14, 15, 16, 17])
def test_reprs_by_shortest_digit_count(rng, ndigits):
    # random decimal strings of ndigits significant digits over the
    # positional exponents; their shortest forms have ndigits or fewer
    mantissas = rng.integers(10 ** (ndigits - 1), 10**ndigits, 2000)
    exponents = rng.integers(-4 - ndigits + 1, 16 - ndigits + 1, 2000)
    values = np.array([float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())])
    lengths = {len(repr(x).lstrip("-0.").replace(".", "").rstrip("0")) for x in values.tolist()}
    assert ndigits in lengths
    assert_reprs(values * rng.choice([-1.0, 1.0], len(values)))


def test_reprs_on_rounding_ties(rng):
    # |x|·10^s ends in exactly .5: two 17-digit candidates are equally near
    values = []
    for low, high, q in ((1e15, 2.0**51, -2), (2.0**49, 1e15, -3)):
        odd = rng.integers(int(low * 2**-q), int(high * 2**-q), 1000) | 1
        values.append(odd * 2.0**q)
    assert_reprs(np.concatenate(values))


def test_reprs_where_log10_misjudges_the_exponent():
    # log10 is off by at most a couple of ulps of its result, so every
    # misjudged value lies within 200 steps of a power of ten
    values = []
    for k in range(-4, 17):
        below, above = [10.0**k], [10.0**k]
        for _ in range(200):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        values += below + above[1:]
    misjudged = [x for x in values if np.floor(np.log10(x)) != Decimal(x).adjusted()]
    assert len(misjudged) > 50
    assert_reprs(values)
    assert_reprs(-np.array(values))


def test_reprs_of_empty_and_shaped_arrays(rng):
    assert _float_text(np.zeros(0), np.zeros((1, 4), np.uint8)).shape[0] == 0
    values = rng.normal(size=40) * 10.0 ** rng.integers(-6, 18, 40)
    assert rendered(values, lead=5) == [repr(x) for x in values.tolist()]
    assert_reprs(rng.normal(size=(7, 5, 3)))
    assert_reprs(rng.normal(size=(8, 6))[:, ::2])


def test_reprs_decide_most_values_in_array_passes(monkeypatch, rng):
    calls = []
    monkeypatch.setattr(io, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    magnitudes = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 3000))
    values = np.concatenate([rng.uniform(-10, 10, 3000), magnitudes * rng.choice([-1, 1], 3000)])
    assert_reprs(values)
    # left to repr: ties and decisions within 2e-5 of their thresholds
    assert len(calls) < 0.002 * len(values)
    # powers of two (a gap below half the gap above) and of ten in the
    # positional range 1e-4 <= |x| < 1e16: none is left to repr
    calls.clear()
    powers = np.concatenate([2.0 ** np.arange(-13, 54), 10.0 ** np.arange(-4, 16)])
    assert powers.min() >= 1e-4 and powers.max() < 1e16 and 2.0**-14 < 1e-4 <= 2.0**-13
    assert_reprs(np.concatenate([powers, -powers]))
    assert calls == []


def several_blocks(lines):
    """True when ``lines`` OBJ lines fill two blocks and part of a third or more."""
    return lines > 2 * io._BLOCK and lines % io._BLOCK != 0


def test_exports_mixing_array_and_repr_values_match_the_oracles(rng):
    special = [0.0, -0.0, 1.0, -2.0, 0.5, 1e-300, -1e20, 2.0**53, 0.1, 1e-5, 1e16, 12345.0, 5e-324]
    patches = []
    for k in range(2 * io._PATCH_BLOCK + 5):  # patch-set blocks hold _PATCH_BLOCK patches
        grid = rng.normal(size=(3, 4, 4)) * 10.0 ** rng.integers(-3, 6)
        grid.flat[rng.choice(48, 12, replace=False)] = rng.choice(special, 12)
        patches.append(BezierPatch(*grid))
    ps = PatchSet(name="mixed", patches=patches)
    assert dump_patchset(ps).encode() == patchset_json(ps).encode()
    mesh = merge_meshes([tessellate(p, 30, with_normals=True) for p in patches[: 2 * io._BLOCK // 961 + 1]])
    mesh.vertices.flat[rng.choice(mesh.vertices.size, 500, replace=False)] = rng.choice(special, 500)
    mesh.normals.flat[rng.choice(mesh.normals.size, 500, replace=False)] = rng.choice(special, 500)
    assert several_blocks(len(mesh.vertices))
    assert export_obj(mesh).encode() == loop_export_obj(mesh).encode()


# ---------------------------------------------------------------------------
# Newell format


def test_newell_single_patch_identity_mapping():
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    coords = [(float(k), float(k) * 2.0, float(k) * -1.0) for k in range(16)]
    lines += [f"{x},{y},{z}" for x, y, z in coords]
    ps = load_newell("\n".join(lines))
    assert len(ps.patches) == 1
    patch = ps.patches[0]
    expect = np.array([c[0] for c in coords]).reshape(4, 4)
    assert np.array_equal(patch.x, expect)
    assert np.array_equal(patch.y, expect * 2.0)
    assert np.array_equal(patch.z, expect * -1.0)


def test_newell_rejects_zero_index():
    lines = ["1", "0," + ",".join(str(i) for i in range(2, 17)), "16"]
    lines += ["0,0,0"] * 16
    with pytest.raises(PatchFormatError, match="out of range"):
        load_newell("\n".join(lines))


def test_newell_count_mismatch():
    lines = ["2", ",".join(str(i) for i in range(1, 17))]
    with pytest.raises(PatchFormatError, match="end of file"):
        load_newell("\n".join(lines))


def test_newell_bad_coordinate_line():
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    lines += ["0,0,0"] * 15 + ["0,0"]
    with pytest.raises(PatchFormatError, match=f"line {len(lines)}"):
        load_newell("\n".join(lines))


_BOUND = 2.0**250
_BEYOND = ["nan", "inf", "-inf", repr(float(np.nextafter(_BOUND, np.inf))),
           repr(-float(np.nextafter(_BOUND, np.inf))), "1e76", "1.7976931348623157e+308"]


def _beyond_message(text):
    return "non-finite" if text in ("nan", "inf", "-inf") else "of magnitude above 2\\*\\*250"


def test_the_bound_is_two_to_the_250():
    assert io.MAX_COORDINATE == _BOUND == float(2**250)


@pytest.mark.parametrize("bad", _BEYOND)
def test_newell_rejects_a_coordinate_beyond_the_bound(bad):
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"] + ["0,0,0"] * 16
    lines[-1] = f"0,{bad},0"
    with pytest.raises(PatchFormatError, match=f"^line 19: .*{_beyond_message(bad)}"):
        load_newell("\n".join(lines))
    lines[6], lines[9] = lines[-1], "0,x,0"
    # named before a later malformed line, and before the end of the file
    for text in ("\n".join(lines), "\n".join(lines[:12])):
        with pytest.raises(PatchFormatError, match=f"^line 7: .*{_beyond_message(bad)}"):
            load_newell(text)


@pytest.mark.parametrize("bad", _BEYOND)
def test_json_rejects_a_coordinate_beyond_the_bound(bad):
    good = [[0.0] * 4 for _ in range(4)]
    doc = json.dumps({"patches": [{"x": good, "y": good, "z": good}] * 2})
    # the last value of patch 1's z grid; json reads NaN and Infinity literals
    head, _, tail = doc.rpartition("0.0")
    token = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(bad, bad)
    with pytest.raises(PatchFormatError, match=f"^patch 1: grid 'z' has .*{_beyond_message(bad)}"):
        load_patchset(head + token + tail)


@pytest.mark.parametrize("literal, accepted", [
    (str(2**250), True), (str(-(2**250)), True), (repr(_BOUND), True),
    (str(2**250 + 1), False), (str(-(2**250) - 1), False), ("1" + "0" * 400, False),
    ("-1" + "0" * 400, False),
])
def test_json_integers_are_compared_exactly(literal, accepted):
    """An integer literal is compared with the bound as an integer, so one
    too large for a float is refused by name and not by an OverflowError."""
    grid = [[0, 0, 0, 0]] * 3 + [[0, 0, 0, "@"]]
    doc = json.dumps({"patches": [{"x": grid, "y": grid, "z": grid}]}).replace('"@"', literal)
    if accepted:
        assert load_patchset(doc).points[0, 0, 3, 3] == float(literal)
    else:
        with pytest.raises(PatchFormatError,
                           match=r"^patch 0: grid 'x' has an entry of magnitude above 2\*\*250$"):
            load_patchset(doc)


def test_both_loaders_accept_coordinates_at_the_bound():
    values = np.array([[_BOUND, -_BOUND, 0.0], [-_BOUND, 1.0, _BOUND]])
    text = "\n".join(["1", ",".join(["1", "2"] * 8), "2"]
                     + [",".join(map(repr, v)) for v in values.tolist()])
    newell = load_newell(text)
    assert np.array_equal(newell.points[0, :, 0, 0], values[0])
    assert load_patchset(dump_patchset(newell)) == PatchSet("newell", newell.points)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_newell_rejects_nonfinite_coordinate(bad):
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    lines += ["0,0,0"] * 15 + [f"0,{bad},0"]
    with pytest.raises(PatchFormatError, match=f"line {len(lines)}: non-finite"):
        load_newell("\n".join(lines))


def test_newell_reports_the_first_bad_vertex_line():
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    lines += ["0,0,0"] * 3 + ["0,nan,0"] + ["0,0,0"] * 2 + ["0,x,0", "0,0"]
    with pytest.raises(PatchFormatError, match="^line 7: non-finite"):
        load_newell("\n".join(lines))  # before the later non-numeric line
    with pytest.raises(PatchFormatError, match="^line 7: non-finite"):
        load_newell("\n".join(lines[:8]))  # before the end of the file


@pytest.mark.parametrize("index", ["0", "-3", "17", "9" * 30, "-" + "9" * 30])
def test_newell_reports_the_first_index_out_of_range(index):
    rows = [[str(i) for i in range(1, 17)] for _ in range(3)]
    rows[1][5] = index
    rows[2][0] = "18"
    lines = ["3"] + [",".join(r) for r in rows] + ["16"] + ["0,0,0"] * 16
    with pytest.raises(PatchFormatError, match=f"^line 3: vertex index {index} out of range 1..16"):
        load_newell("\n".join(lines))


@pytest.mark.parametrize("what, line", [("patch count", 1), ("vertex count", 3)])
def test_newell_rejects_negative_counts(what, line):
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"] + ["0,0,0"] * 16
    lines[line - 1] = "-1"
    with pytest.raises(PatchFormatError, match=f"^line {line}: expected {what}, got '-1'"):
        load_newell("\n".join(lines))


def test_newell_trailing_garbage():
    lines = ["1", ",".join(str(i) for i in range(1, 17)), "16"]
    lines += ["0,0,0"] * 16 + ["extra"]
    with pytest.raises(PatchFormatError, match="trailing"):
        load_newell("\n".join(lines))


_DIGITS = "0123456789"
_NON_ASCII_ZERO = (0x660, 0x6F0, 0x966, 0xFF10)  # Arabic-Indic, Persian, Devanagari, fullwidth


def _edit_field(kind, field, pick):
    """``field`` with one edit of ``kind``; ``pick`` draws an index below its argument."""
    digits = [k for k, c in enumerate(field) if c in _DIGITS]
    if kind == "space":
        return (" ", "\t", "  ")[pick(3)] + field + (" ", "")[pick(2)]
    if kind == "inner space" and len(field) > 1:
        k = 1 + pick(len(field) - 1)
        return field[:k] + " " + field[k:]
    if kind == "plus":
        return "+" + field.lstrip("-")
    if kind == "underscore" and digits:
        k = digits[pick(len(digits))]
        return field[:k] + ("_", "__")[pick(2)] + field[k:]
    if kind == "non-ascii digit" and digits:
        k = digits[pick(len(digits))]
        return field[:k] + chr(_NON_ASCII_ZERO[pick(4)] + int(field[k])) + field[k + 1 :]
    if kind == "non-finite":
        return ("nan", "inf", "-inf", "Infinity", "-NaN", "1e999")[pick(6)]
    if kind == "bound":  # 2**250, accepted, and values beyond it
        return (repr(2.0**250), repr(-(2.0**250)), repr(float(np.nextafter(2.0**250, np.inf))),
                "-1e76", "1.7e308", "1" + "0" * 80)[pick(6)]
    if kind == "number":
        return ("0", "-3", "-0", "17", "21", "007")[pick(6)]
    if kind == "long":
        return ("9" * 30, "-" + "9" * 30, "0" * 29 + "7", "1" + "0" * 29)[pick(4)]
    if kind == "word":
        return ("x", "", "0x1", "1e3", "1.5", "1,", "\u0663")[pick(7)]
    return field


_LINE_EDITS = ("drop field", "add field", "shift field", "blank before", "space", "inner space",
               "plus", "underscore", "non-ascii digit", "non-finite", "bound", "number", "long",
               "word")


@st.composite
def newell_texts(draw):
    """Newell texts with random edits: valid ones (blank lines, CRLF,
    spaces, +, _ and non-ASCII digits in fields) and malformed ones (wrong
    field counts, non-numbers, non-finite values, coordinates beyond
    2**250, 30-digit indices, truncation and trailing content)."""
    pick = lambda n: draw(st.integers(0, n - 1))
    patches = draw(st.integers(0, 3))
    vertices = draw(st.integers(16 if patches else 0, 20))
    rows = [[str(draw(st.integers(1, vertices))) for _ in range(16)] for _ in range(patches)]
    coord = st.one_of(
        st.floats(-1e3, 1e3).map(repr),
        st.integers(-5, 5).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )
    points = [[draw(coord) for _ in range(3)] for _ in range(vertices)]
    lines = [[str(patches)], *rows, [str(vertices)], *points]
    for _ in range(draw(st.integers(0, 3))):
        k = pick(len(lines) if draw(st.booleans()) else patches + 2)  # half on counts, indices
        kind = _LINE_EDITS[pick(len(_LINE_EDITS))]
        if kind == "drop field":
            lines[k] = lines[k][:-1]
        elif kind == "add field":
            lines[k] = lines[k] + ["1"]
        elif kind == "shift field" and k + 1 < len(lines):  # the block keeps its field count
            lines[k], lines[k + 1] = lines[k][:-1], lines[k][-1:] + lines[k + 1]
        elif kind == "blank before":
            lines.insert(k, [("", " ", "\t ")[pick(3)]])
        elif lines[k]:
            j = pick(len(lines[k]))
            lines[k] = lines[k][:j] + [_edit_field(kind, lines[k][j], pick)] + lines[k][j + 1 :]
    breaks = ("\n", "\r\n", "\r", "\u2028", "\n \n")  # str.splitlines splits at each
    text = breaks[pick(5)].join(",".join(f) for f in lines) + "\n"
    if pick(4) == 0:
        text = text[: pick(len(text) + 1)]
    if pick(4) == 0:
        text += ("extra\n", "0,0,0\n", "\n\n", "1\n")[pick(4)]
    return text


def _newell_outcome(load, text):
    try:
        ps = load(text)
    except PatchFormatError as e:
        return "error", str(e)
    return "ok", len(ps.patches), b"".join(p.as_array.tobytes() for p in ps.patches)


_ROW = ",".join(str(i) for i in range(1, 17))


@given(text=newell_texts())
@example(text="\n".join(["2", _ROW, _ROW, "17"] + ["0,0,0"] * 16 + ["0,nan,0"]))
@example(text="\n".join(["1", _ROW, "16"] + ["0,0,0"] * 3 + ["0,0,-1e76"] + ["0,nan,0", "0,x"]))
@example(text="\n".join(["1", _ROW, "16"] + [f"{2.0**250!r},0,{-(2.0**250)!r}"] * 16))
@example(text="\n".join(["2", _ROW[:-3], _ROW + ",1", "16"] + ["0,0,0"] * 16))
@example(text="\n".join(["1", _ROW, "16"] + ["0,0,0"] * 14 + ["1,2", "3,4,5,6"]))
@example(text="\r\n".join(["1", _ROW.replace("1", "+1_0", 1), " 16 ", ""] + ["0,\u0663,0"] * 16))
@settings(max_examples=200, deadline=None)
def test_newell_matches_the_line_loop_on_edited_texts(text):
    assert _newell_outcome(load_newell, text) == _newell_outcome(loop_load_newell, text)


def test_newell_patches_are_views_of_one_checked_array(teapot_path):
    patches = read_newell(teapot_path).patches
    base = patches[0].as_array.base
    assert base is not None and base.shape == (32, 3, 4, 4)
    for p in patches:
        q = BezierPatch(*p.grids)
        for a, b in zip(p.grids + (p.as_array,), q.grids + (q.as_array,)):
            assert a.base is base and not a.flags.writeable and np.array_equal(a, b)


def test_teapot_counts(teapot_path):
    ps = read_newell(teapot_path)
    assert len(ps.patches) == 32
    # the shipped dataset carries the 290 distinct control points actually
    # referenced by the 32 patches
    text = teapot_path.read_text().splitlines()
    assert text[33] == "290"
    assert len(text) == 1 + 32 + 1 + 290


def test_teapot_first_patch_spot_values(teapot_path):
    ps = read_newell(teapot_path)
    rim = ps.patches[0]
    assert rim.x[0, 0] == 1.4 and rim.y[0, 0] == 0.0 and rim.z[0, 0] == 2.4
    assert rim.x[3, 3] == 0.0 and rim.y[3, 3] == -1.5 and rim.z[3, 3] == 2.4


# ---------------------------------------------------------------------------
# OBJ export


def test_export_single_triangle():
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    text = export_obj(mesh)
    lines = text.splitlines()
    assert lines == ["v 0.0 0.0 0.0", "v 1.0 0.0 0.0", "v 0.0 1.0 0.0", "f 1 2 3"]


def test_export_empty_mesh():
    mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    assert export_obj(mesh) == ""


def test_export_with_normals_layout():
    mesh = TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        [[0, 1, 2]],
        normals=[[0, 0, 1], [0, 0, 1], [0, 0, 1]],
    )
    lines = export_obj(mesh).splitlines()
    assert lines[3:] == ["vn 0.0 0.0 1.0"] * 3 + ["f 1//1 2//2 3//3"]


def test_export_deterministic(rng):
    mesh = tessellate(random_patch(rng), 4, with_normals=True)
    assert export_obj(mesh) == export_obj(mesh)


def test_export_roundtrips_float_values(rng):
    mesh = tessellate(random_patch(rng), 2)
    text = export_obj(mesh)
    parsed = [
        [float(tok) for tok in line.split()[1:]]
        for line in text.splitlines()
        if line.startswith("v ")
    ]
    assert np.array_equal(np.array(parsed), mesh.vertices)


@pytest.mark.parametrize("with_normals", [False, True])
def test_export_bytes_match_line_loop(teapot_path, with_normals):
    patches = read_newell(teapot_path).patches
    mesh = merge_meshes([tessellate(p, 4, with_normals=with_normals) for p in patches])
    mesh.vertices[0] = (-0.0, 1e-300, 1.5e20)
    assert export_obj(mesh).encode() == loop_export_obj(mesh).encode()


@pytest.mark.parametrize("with_normals", [False, True])
def test_export_bytes_match_line_loop_over_many_blocks(rng, with_normals):
    # triangles in random order, so each face block indexes vertices across the mesh
    patches = [random_patch(rng) for _ in range(2 * io._BLOCK // 961 + 1)]  # 961 vertices each
    mesh = merge_meshes([tessellate(p, 30, with_normals=with_normals) for p in patches])
    mesh.triangles = mesh.triangles[rng.permutation(len(mesh.triangles))]
    assert several_blocks(len(mesh.vertices)) and several_blocks(len(mesh.triangles))
    assert export_obj(mesh).encode() == loop_export_obj(mesh).encode()


@pytest.mark.parametrize("with_normals", [False, True])
def test_write_obj_writes_export_obj(tmp_path, rng, with_normals):
    # several blocks per section
    patches = [random_patch(rng) for _ in range(2 * io._BLOCK // 1681 + 1)]  # 1681 vertices each
    mesh = merge_meshes([tessellate(p, 40, with_normals=with_normals) for p in patches])
    assert several_blocks(len(mesh.vertices)) and several_blocks(len(mesh.triangles))
    path = tmp_path / "mesh.obj"
    write_obj(mesh, path)
    assert path.read_bytes() == export_obj(mesh).encode()


# ---------------------------------------------------------------------------
# Writing in place


@pytest.mark.parametrize("before", [None, b"", b"v 1.0\n" * 4, b"#" * 3_000_000])
def test_writers_leave_their_bytes_whatever_the_file_held(tmp_path, teapot_path, before):
    # a new file, an empty one, a shorter one and a longer one: each ends as
    # the text alone, in the same inode
    ps = read_newell(teapot_path)
    mesh = tessellate_set(ps.points, 4, with_normals=True)
    for name, write, text in (
        ("teapot.obj", lambda path: write_obj(mesh, path), export_obj(mesh)),
        ("teapot.json", lambda path: write_patchset(ps, path), dump_patchset(ps) + "\n"),
    ):
        path = tmp_path / name
        if before is not None:
            path.write_bytes(before)
            inode = path.stat().st_ino
        write(path)
        assert path.read_bytes() == text.encode()
        assert before is None or path.stat().st_ino == inode


def test_writing_to_the_null_device_or_a_pipe_cuts_nothing(tmp_path, rng):
    # neither is a regular file: a cut there would raise, so none is made
    mesh = tessellate(random_patch(rng), 30, with_normals=True)
    write_obj(mesh, os.devnull)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_obj(mesh, fifo)
    reader.join(timeout=30)
    assert not reader.is_alive() and received == [export_obj(mesh).encode()]


def test_a_writer_that_raises_leaves_the_bytes_written_and_nothing_after(tmp_path, rng,
                                                                          monkeypatch):
    # the file is written over, not emptied first: until the writer stops, it
    # holds its old length (so a killed writer leaves the old tail), and then
    # it is cut where the writing stopped
    mesh = tessellate(random_patch(rng), 4)
    first = next(io._obj_blocks(mesh)).tobytes()
    path = tmp_path / "mesh.obj"
    path.write_bytes(b"#" * (10 * len(first)))
    sizes = []

    def one_block(mesh):
        yield first
        sizes.append(path.stat().st_size)
        raise RuntimeError("stopped after one block")

    monkeypatch.setattr(io, "_obj_blocks", one_block)
    with pytest.raises(RuntimeError, match="stopped after one block"):
        write_obj(mesh, path)
    assert sizes == [10 * len(first)]
    assert path.read_bytes() == first


@pytest.mark.parametrize("with_normals", [False, True])
def test_face_text_across_digit_counts(rng, with_normals):
    # one-based vertex ids on both sides of 9/10, 99/100, 9999/10000 and
    # 99999/100000: a block of ids 99 990..100 000 only (its largest id has
    # a digit more than the one before), a block mixing all four crossings
    # and a block over the whole range
    count = 100_001
    edges = np.array([b - 3 + k for b in (10, 100, 10_000, 100_000) for k in range(4)])

    def block(ids):
        t = ids[rng.integers(0, len(ids), (3 * io._BLOCK, 3))]
        return t[(t[:, 0] != t[:, 1]) & (t[:, 1] != t[:, 2]) & (t[:, 0] != t[:, 2])][: io._BLOCK]

    narrow, wide = np.arange(count - 12, count - 1), np.arange(count)
    triangles = np.concatenate([block(narrow), block(edges), block(wide)])
    vertices = np.zeros((count, 3))
    mesh = TriangleMesh(vertices, triangles, vertices + 1.0 if with_normals else None)
    assert len(mesh.triangles) == 3 * io._BLOCK and mesh.triangles.max() == count - 1 == edges[-1]
    assert export_obj(mesh).encode() == loop_export_obj(mesh).encode()


def test_empty_blocks():
    assert io._vector_lines(b"v ", np.zeros((0, 3))).size == 0
    mesh = TriangleMesh([[0.5, -0.25, 3.0]], np.zeros((0, 3), dtype=int), [[0.0, -0.0, 1.0]])
    assert export_obj(mesh) == "v 0.5 -0.25 3.0\nvn 0.0 -0.0 1.0\n" == loop_export_obj(mesh)
    assert b"".join(io._patch_groups([])) == b"[]"


def test_write_patchset_memory_stays_flat(tmp_path, teapot_path):
    # the teapot split three times (2048 patches), written io._PATCH_BLOCK
    # patches at a time: the peak is a block's worth (measured 0.50 MiB), not
    # the 2.4 MB text
    patches = read_newell(teapot_path).patches
    for _ in range(3):
        patches = [q for p in patches for q in split_patch(p)]
    ps = PatchSet("split", patches, detect_adjacency(patches))
    tracemalloc.start()
    try:
        write_patchset(ps, tmp_path / "split.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "split.json").read_bytes() == (dump_patchset(ps) + "\n").encode()
    assert (tmp_path / "split.json").stat().st_size > 2_000_000
    assert peak < 1.3 * 2**20


def test_write_obj_memory_stays_flat(tmp_path, teapot_path):
    # 9248 vertices, normals and 16384 faces, written a block of io._BLOCK
    # lines at a time: the peak is a block's worth (measured 0.49 MiB at
    # 2048 lines, the digit tables included), not the text
    mesh = tessellate_set(read_newell(teapot_path).patches, 16, with_normals=True)
    tracemalloc.start()
    try:
        write_obj(mesh, tmp_path / "teapot.obj")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "teapot.obj").stat().st_size > 1_500_000
    assert peak < 0.6 * 2**20


def test_write_obj_memory_does_not_grow_with_the_mesh(tmp_path, teapot_path):
    # the teapot and its 2x2 de Casteljau split, both at n=16 with normals:
    # 4x the lines, and a peak within 10% of the teapot's (measured 2.4%)
    patches = read_newell(teapot_path).patches
    split = [q for p in patches for q in split_patch(p)]
    one = TriangleMesh([[0.5, 1.0, 2.0]], np.zeros((0, 3), dtype=int), [[0.0, 0.0, 1.0]])
    write_obj(one, tmp_path / "one.obj")  # the digit tables are built once, outside the peaks
    peaks, sizes = [], []
    for k, ps in enumerate((patches, split)):
        mesh = tessellate_set(ps, 16, with_normals=True)
        tracemalloc.start()
        try:
            write_obj(mesh, tmp_path / f"{k}.obj")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append((tmp_path / f"{k}.obj").stat().st_size)
    assert sizes[1] > 3.5 * sizes[0]
    assert peaks[1] <= 1.1 * peaks[0]
