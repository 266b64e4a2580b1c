"""Adjacency records as one array from loader and detector to writer:
``PatchSet.adjacency`` and ``tessellation._adjacency`` hold the (E, 2, 3)
intp array whose rows are, for side a and then side b, (patch, side code
in EdgeSide order, reversed 0/1).  ``Adjacency`` records are views of it
made only by the public ``detect_adjacency``."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartpatch import cli, io
from smartpatch.io import PatchFormatError, PatchSet, dump_patchset, load_patchset, read_newell
from smartpatch.tessellation import (
    Adjacency,
    EdgeId,
    EdgeSide,
    _adjacency,
    _record_array,
    continuity_measures,
    detect_adjacency,
)

from helpers import (
    bezier_patches,
    height_field_patches,
    key_codes_adjacency,
    pairwise_adjacency,
    random_patch,
    split_patch,
)

_SIDES = list(EdgeSide)


def _sets(rng, teapot_path):
    teapot = read_newell(teapot_path).patches
    collapsed = rng.uniform(-1.0, 1.0, (3, 4, 4))
    collapsed[:, 0, :] = collapsed[:, 0, :1]  # a pole on U0
    return {
        "teapot": teapot,
        "split": [q for p in teapot for q in split_patch(p)],
        "height-field": height_field_patches(rng.uniform(-1.0, 1.0, (6, 6))),
        "empty": [],
        "collapsed": bezier_patches(collapsed[None]) + [random_patch(rng)],
    }


def _rows(records):
    """The (patch, side code, reversed) rows of a list of Adjacency, one loop per field."""
    return [[[r.a, _SIDES.index(r.edge_a.side), int(r.edge_a.reversed)],
             [r.b, _SIDES.index(r.edge_b.side), int(r.edge_b.reversed)]] for r in records]


@pytest.mark.parametrize("name", ["teapot", "split", "height-field", "empty", "collapsed"])
def test_the_public_list_views_the_record_array(rng, teapot_path, name):
    patches = _sets(rng, teapot_path)[name]
    records = _adjacency(patches)
    assert records.dtype == np.intp and records.shape == (len(records), 2, 3)
    listed = detect_adjacency(patches)
    assert listed == pairwise_adjacency(patches) == key_codes_adjacency(patches)
    assert records.tolist() == _rows(listed)
    assert all(type(r.edge_b.reversed) is bool for r in listed)
    assert not records[:, 0, 2].any()  # side a is never reversed
    assert _record_array(listed).tolist() == records.tolist()


@pytest.mark.parametrize("name", ["teapot", "split", "height-field", "collapsed"])
def test_detected_records_round_trip_through_the_writer(rng, teapot_path, name):
    patches = _sets(rng, teapot_path)[name]
    records = _adjacency(patches)
    back = load_patchset(dump_patchset(PatchSet(name, patches, records))).adjacency
    assert back.dtype == records.dtype and back.shape == records.shape
    assert back.tobytes() == records.tobytes() and not back.flags.writeable
    # and the set made from the Adjacency list writes the same text
    assert dump_patchset(PatchSet(name, patches, detect_adjacency(patches))) == dump_patchset(
        PatchSet(name, patches, back))


def test_continuity_is_bit_identical_from_the_list_and_the_array(rng, teapot_path):
    patches = [q for p in read_newell(teapot_path).patches for q in split_patch(p)]
    patches[5] = random_patch(rng)
    edges = [EdgeId(side, flip) for side in EdgeSide for flip in (False, True)]
    listed = detect_adjacency(patches) + [
        Adjacency(k % 9, ea, (k * 7) % 11, eb)
        for k, (ea, eb) in enumerate(itertools.product(edges, edges))
    ]
    records = _record_array(listed)
    held = PatchSet("s", patches, listed[:-64]).adjacency  # the detected ones, as a set holds them
    for n in (2, 5, 16):
        want = continuity_measures(patches, listed, n)
        for source in (records, np.concatenate([held, records[-64:]])):
            got = continuity_measures(patches, source, n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert continuity_measures(patches, np.zeros((0, 2, 3), dtype=np.intp), 2).shape == (0, 3)


def _parent_check(records, count):
    """The message of the first bad record, the way the set checked its
    Adjacency list one record at a time, else None."""
    for rec in records:
        for idx in (rec.a, rec.b):
            if not (0 <= idx < count):
                return f"adjacency index {idx} out of range"
        if rec.a == rec.b and rec.edge_a.side == rec.edge_b.side:
            return f"patch {rec.a} edge {rec.edge_a.side.value} marked adjacent to itself"
    return None


def _record_doc(records, count):
    grid = [[0.0] * 4 for _ in range(4)]
    return json.dumps({"patches": [{"x": grid, "y": grid, "z": grid}] * count, "adjacency": [
        {"a": r.a, "edge_a": r.edge_a.side.value, "reversed_a": r.edge_a.reversed,
         "b": r.b, "edge_b": r.edge_b.side.value, "reversed_b": r.edge_b.reversed}
        for r in records]})


def _assert_checked_as_before(records, count):
    """Each way of giving ``records`` to a set of ``count`` patches raises
    the parent's message for the same first bad record, or none; and
    ``continuity_measures`` raises ValueError with the message of the first
    index out of range, in record order, or measures every record, an edge
    against itself too."""
    want = _parent_check(records, count)
    points = np.zeros((count, 3, 4, 4))
    sources = [records]
    if all(abs(i) < 2**62 for r in records for i in (r.a, r.b)):
        sources.append(_record_array(records))
    givers = [lambda: load_patchset(_record_doc(records, count))]
    givers += [lambda source=source: PatchSet("s", points, source) for source in sources]
    for give in givers:
        if want is None:
            assert give().adjacency.tolist() == _rows(records)
        else:
            with pytest.raises(PatchFormatError) as exc:
                give()
            assert str(exc.value) == want
    fault = next((f"adjacency index {i} out of range"
                  for r in records for i in (r.a, r.b) if not 0 <= i < count), None)
    for source in sources:
        if fault is None:
            assert continuity_measures(points, source, 2).shape == (len(records), 3)
        else:
            with pytest.raises(ValueError) as exc:
                continuity_measures(points, source, 2)
            assert type(exc.value) is ValueError and str(exc.value) == fault


_U0, _U1, _V1 = EdgeId(EdgeSide.U0), EdgeId(EdgeSide.U1), EdgeId(EdgeSide.V1)


@pytest.mark.parametrize("records", [
    [Adjacency(0, _U1, 1, _U0), Adjacency(3, _U1, 1, _U0)],            # a out of range
    [Adjacency(0, _U1, 1, _U0), Adjacency(1, _U1, 3, _U0)],            # b out of range
    [Adjacency(-1, _U1, 1, _U0)],                                      # a negative
    [Adjacency(0, _U1, -3, _U0)],                                      # b negative
    [Adjacency(5, _U1, -3, _U0)],                                      # both: a first
    [Adjacency(1, _V1, 1, EdgeId(EdgeSide.V1, True))],                 # adjacent to itself
    [Adjacency(1, _U1, 1, _U0), Adjacency(2, _V1, 2, _V1)],           # self, other side fine
    [Adjacency(0, _U0, 0, _U0), Adjacency(9, _U1, 1, _U0)],           # self, then out of range
    [Adjacency(9, _U1, 1, _U0), Adjacency(0, _U0, 0, _U0)],           # out of range, then self
    [Adjacency(7, _U0, 7, _U0)],                                       # both faults: range first
    [Adjacency(0, _U1, 10**30, _U0)],                                  # beyond intp
    [Adjacency(0, _U0, 0, _U0), Adjacency(-(2**70), _U1, 1, _U0)],    # self, then beyond intp
    [Adjacency(0, _U1, 2, _U0), Adjacency(1, _U1, 0, _U0)],           # all good
    [],
])
def test_bad_records_raise_the_parent_message_for_the_same_record(records):
    _assert_checked_as_before(records, 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 4), st.sampled_from(_SIDES), st.booleans(),
                          st.integers(-2, 4), st.sampled_from(_SIDES), st.booleans()),
                max_size=6))
def test_random_records_are_checked_as_one_at_a_time(fields):
    records = [Adjacency(a, EdgeId(sa, ra), b, EdgeId(sb, rb)) for a, sa, ra, b, sb, rb in fields]
    _assert_checked_as_before(records, 3)


def test_a_set_checks_and_freezes_its_records_once(teapot_path):
    ps = read_newell(teapot_path)
    bad = [Adjacency(70, EdgeId(EdgeSide.U1), 0, EdgeId(EdgeSide.U0))]
    with pytest.raises(AttributeError):
        ps.adjacency = bad
    assert ps.adjacency is None
    with pytest.raises(PatchFormatError, match="^adjacency index 70 out of range$"):
        PatchSet(ps.name, ps.points, bad)
    given = _adjacency(ps.points)
    held = PatchSet(ps.name, ps.points, given)
    given[0, 0, 0] = 70  # the caller's array is not the set's
    assert held.adjacency[0, 0, 0] == 0 and not held.adjacency.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        held.adjacency[0, 0, 0] = 70
    assert held == PatchSet(ps.name, ps.points, detect_adjacency(ps.points))
    assert held != PatchSet(ps.name, ps.points) and PatchSet("s", []) != PatchSet("s", [], [])
    empty = np.zeros((0, 2, 3), dtype=np.intp)
    assert repr(PatchSet("s", [], [])) == f"PatchSet(name='s', patches=[], adjacency={empty!r})"


@pytest.mark.parametrize("bad", [
    np.zeros((2, 3), dtype=np.intp),
    np.zeros((2, 3, 2), dtype=np.intp),
    np.array([[[0, 4, 0], [1, 0, 0]]]),
    np.array([[[0, 0, 0], [1, -1, 0]]]),
    np.array([[[0, 0, 2], [1, 0, 0]]]),
], ids=["flat", "transposed", "side-4", "side-minus-1", "flag-2"])
def test_a_malformed_record_array_is_refused(bad):
    for stage in (lambda r: PatchSet("s", np.zeros((2, 3, 4, 4)), r),
                  lambda r: continuity_measures(np.zeros((2, 3, 4, 4)), r, 2)):
        with pytest.raises(ValueError, match="^records must be"):
            stage(bad)


def _count_records(monkeypatch):
    """The Adjacency and EdgeId objects made from here on, by class."""
    made = []
    for cls in (Adjacency, EdgeId):

        def counted(c, *args, _new=cls.__new__, **kwargs):
            made.append(c)
            return _new(c, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counted)
    return made


def test_the_pipeline_builds_no_adjacency_object(capsys, tmp_path, teapot_path, monkeypatch):
    patches = [q for p in read_newell(teapot_path).patches for q in split_patch(p)]
    given = tmp_path / "with_records.json"
    given.write_text(dump_patchset(PatchSet("split", patches, _adjacency(patches))))
    made = _count_records(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["teapot", "--in", str(teapot_path), "--out", str(out), "--n", "3"]) == 0
    assert "shared edges: 52;" in capsys.readouterr().out
    assert cli.main(["continuity", "--in", str(given), "--n", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pair_count"] == 232
    assert cli.main(["continuity", "--in", str(out / "teapot_repaired.json"), "--n", "3"]) == 0
    assert "worst of 52 pairs" in capsys.readouterr().out
    assert made == []
    assert len(detect_adjacency(patches[:4])) > 0 and Adjacency in made  # the counter counts
    assert not any(hasattr(m, "Adjacency") or hasattr(m, "EdgeId") for m in (io, cli))
