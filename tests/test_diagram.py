import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from linkvol import diagram

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,8,5,7] X[8,4,1,3] X[2,5,3,6] X[6,1,7,2]"
WHITEHEAD = "X[1,6,2,5] X[3,7,4,8] X[8,4,9,1] X[10,3,5,2] X[6,9,7,10]"
# two-component diagram with curls: both an over-arc and an under-arc pass
# three crossings in a row, which exercises the multi-passage bookkeeping
KINKED = "X[5,1,6,2] X[6,3,7,2] X[3,4,4,1] X[7,5,8,8]"

ALL = [TREFOIL, FIG8, WHITEHEAD, KINKED]


def test_parse_pd_compact():
    pd = diagram.parse_pd(FIG8)
    assert len(pd.crossings) == 4
    assert pd.crossings[0] == (4, 8, 5, 7)


def test_parse_pd_json_form():
    pd = diagram.parse_pd(
        '{"pd": [[4,8,5,7],[8,4,1,3],[2,5,3,6],[6,1,7,2]]}')
    assert pd.crossings == diagram.parse_pd(FIG8).crossings


def test_parse_pd_accepts_comments_and_multiline():
    text = "X[1,4,2,5]  # first\nX[3,6,4,1],X[5,2,6,3]\n"
    assert diagram.parse_pd(text).crossings == \
        diagram.parse_pd(TREFOIL).crossings


def test_parse_pd_rejects_bad_input():
    with pytest.raises(diagram.DiagramError, match="empty"):
        diagram.parse_pd("   ")
    with pytest.raises(diagram.DiagramError, match="syntax error"):
        diagram.parse_pd("X[1,2,3] X[4,5,6,7]")
    with pytest.raises(diagram.DiagramError, match="appears"):
        diagram.parse_pd("X[1,1,1,2] X[2,3,3,4]")
    with pytest.raises(diagram.DiagramError, match="positive"):
        diagram.parse_pd("X[0,1,0,1]")


def test_figure_eight_combinatorics():
    d = diagram.load_diagram(FIG8)
    assert d.summary() == "n=6 regions, 4 crossings, 1 component"
    assert d.n_regions == 6
    assert d.n_components == 1
    assert [c.sign for c in d.crossings] == [1, 1, -1, -1]
    assert d.writhes == [0]


def test_trefoil_combinatorics():
    d = diagram.load_diagram(TREFOIL)
    assert d.n_regions == 5
    assert d.n_components == 1
    assert [c.sign for c in d.crossings] == [-1, -1, -1]
    assert d.writhes == [-3]


def test_whitehead_combinatorics():
    d = diagram.load_diagram(WHITEHEAD)
    assert d.summary() == "n=7 regions, 5 crossings, 2 components"
    assert sorted(d.writhes) == [-1, 0]
    assert sum(c.sign for c in d.crossings) == -1


def test_region_count_is_euler():
    for pd in ALL:
        d = diagram.load_diagram(pd)
        assert d.n_regions == d.n_crossings + 2


def test_edges_traverse_components():
    for pd in ALL:
        d = diagram.load_diagram(pd)
        seen = set()
        for comp in d.components:
            e = comp[0]
            cycle = []
            while e not in seen:
                seen.add(e)
                cycle.append(e)
                e = d.succ[e]
            assert sorted(cycle) == sorted(comp)
        assert len(seen) == 2 * d.n_crossings


def test_left_and_right_regions_differ():
    # a diagram edge always separates two distinct regions
    for pd in ALL:
        d = diagram.load_diagram(pd)
        for e in d.succ:
            assert d.left_region[e] != d.right_region[e]


def test_arcs_partition_edges():
    for pd in ALL:
        d = diagram.load_diagram(pd)
        for arcs in (d.over_arcs, d.under_arcs):
            flattened = [e for arc in arcs for e in arc]
            assert sorted(flattened) == sorted(d.succ)


def test_kinked_has_multi_passage_arcs():
    d = diagram.load_diagram(KINKED)
    assert d.n_components == 2
    assert max(len(a) for a in d.over_arcs) >= 3
    assert max(len(a) for a in d.under_arcs) >= 3


def test_wirtinger_presentation_shape():
    for pd in ALL:
        d = diagram.load_diagram(pd)
        relations = diagram.wirtinger(d)
        assert len(relations) == d.n_crossings
        for out, over, inn, eps in relations:
            assert eps in (-1, 1)
            for g in (out, over, inn):
                assert 0 <= g < len(d.over_arcs)


def test_longitude_words_abelianize_to_zero():
    # the canonical longitude is null-homologous in the knot complement:
    # its total signed generator count, meridian correction included, is 0
    for pd in (TREFOIL, FIG8):
        d = diagram.load_diagram(pd)
        word = diagram.longitude_word(d, 0)
        assert sum(e for _, e in word.letters) == 0


def test_figure_eight_longitude_word():
    d = diagram.load_diagram(FIG8)
    assert str(diagram.longitude_word(d, 0)) == "g3^-1 g4 g1^-1 g2"
    assert str(diagram.Word(())) == "1"


def test_diagram_without_crossings_is_rejected():
    # parse_pd rejects empty text first; build_diagram's own face count
    # (n_crossings + 2 regions) rejects an empty crossing list
    with pytest.raises(diagram.DiagramError,
                       match="got 0 regions for 0 crossings"):
        diagram.build_diagram(diagram.PDCode([], []))


def test_longitude_word_bad_component():
    d = diagram.load_diagram(FIG8)
    with pytest.raises(diagram.DiagramError):
        diagram.longitude_word(d, 1)


def test_meridian_override():
    pd = diagram.parse_pd(
        '{"pd": [[4,8,5,7],[8,4,1,3],[2,5,3,6],[6,1,7,2]],'
        ' "meridians": ["g3"]}')
    d = diagram.build_diagram(pd)
    assert d.meridian_gen == [2]
    with pytest.raises(diagram.DiagramError, match="bad generator name"):
        diagram.build_diagram(diagram.parse_pd(
            '{"pd": [[4,8,5,7],[8,4,1,3],[2,5,3,6],[6,1,7,2]],'
            ' "meridians": [3]}'))


_FIG8_ROWS = [[4, 8, 5, 7], [8, 4, 1, 3], [2, 5, 3, 6], [6, 1, 7, 2]]
_WHITEHEAD_ROWS = [[1, 6, 2, 5], [3, 7, 4, 8], [8, 4, 9, 1], [10, 3, 5, 2],
                   [6, 9, 7, 10]]


@pytest.mark.parametrize("rows, meridians, message", [
    (_FIG8_ROWS, ["g1", "g2"],
     "meridian override for component 2: no such component"),
    (_FIG8_ROWS, ["g99"], "no generator named g99"),
    (_WHITEHEAD_ROWS, ["g3"], "generator g3 is not on component 1"),
], ids=["no-component", "no-generator", "other-component"])
def test_meridian_override_errors(rows, meridians, message):
    text = json.dumps({"pd": rows, "meridians": meridians})
    with pytest.raises(diagram.DiagramError, match=re.escape(message)):
        diagram.load_diagram(text)


@pytest.mark.parametrize("meridians, gens", [
    ([None, "g3"], [0, 2]),
    ([None, "g4"], [0, 3]),
], ids=["default-second", "other-second"])
def test_null_meridian_keeps_the_default(meridians, gens):
    # component 1's default meridian is its first over-arc, g1
    d = diagram.load_diagram(json.dumps({"pd": _WHITEHEAD_ROWS,
                                         "meridians": meridians}))
    assert d.meridian_gen == gens


# a circle lying over another (a 2-crossing unlink diagram): arcs 1 and 2
# pass over at both crossings and never under
OVER_EVERYWHERE = "X[3,1,4,2] X[4,2,3,1]"


def test_component_that_never_passes_under_is_rejected():
    with pytest.raises(diagram.DiagramError,
                       match="component without under-passing crossing"):
        diagram.load_diagram(OVER_EVERYWHERE)


@pytest.mark.parametrize("text, message", [
    ("X[1,3,4,2] X[1,3,4,2]", "invalid PD: inconsistent arc orientations"),
    ("X[1,2,3,4] X[3,1,4,2]",
     "arc labels not consecutive along the component containing arc 1"),
    # the figure-eight with one crossing's over-strand reversed: arcs 1 and
    # 2 now pass under at both of their crossings
    ("X[4,8,5,7] X[3,4,1,8] X[2,5,3,6] X[1,7,2,6]",
     "component 1 without over-passing crossing"),
    (TREFOIL + " X[7,10,8,11] X[9,12,10,7] X[11,8,12,9]",
     "disconnected diagram: unsupported"),
    ("X[4,2,3,1] X[1,4,2,3]",
     "face count mismatch: got 2 regions for 2 crossings (expected 4)"),
], ids=["orientation", "labels", "no-over-pass", "disconnected", "faces"])
def test_malformed_diagram_messages(text, message):
    with pytest.raises(diagram.DiagramError) as exc:
        diagram.load_diagram(text)
    assert message in str(exc.value)


def test_generator_names_are_ascii():
    assert diagram.generator_index("g3") == 2
    assert diagram.generator_index("g03") == 2
    assert diagram.generator_index("g" + "9" * 9) == 999999998
    for name in ["g\u0663", "g" + "1" * 10, "g", "G3", "g3 ", 3, None]:
        assert diagram.generator_index(name) is None


@st.composite
def mutated_pd(draw):
    """A golden PD code after one to three edits: a crossing's 4-tuple
    rotated or reversed, two of its slots swapped, or two labels swapped
    throughout."""
    rows = [list(t) for t in diagram.parse_pd(draw(
        st.sampled_from(ALL))).crossings]
    labels = sorted({e for t in rows for e in t})
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["rotate", "labels", "slots",
                                     "reverse"]))
        if edit == "rotate":
            k = draw(st.integers(1, 3))
            rows[i] = rows[i][k:] + rows[i][:k]
        elif edit == "labels":
            x, y = draw(st.permutations(labels))[:2]
            rows = [[y if e == x else x if e == y else e for e in t]
                    for t in rows]
        elif edit == "slots":
            p, q = draw(st.permutations(range(4)))[:2]
            rows[i][p], rows[i][q] = rows[i][q], rows[i][p]
        else:
            rows[i] = rows[i][::-1]
    return " ".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(text=mutated_pd())
def test_mutated_pd_is_rejected_or_well_formed(text):
    # what the orientation pass guarantees of every diagram it accepts:
    # succ permutes the arcs, each arc has one head and one tail slot, and
    # the faces number n_crossings + 2
    try:
        d = diagram.load_diagram(text)
    except diagram.DiagramError:
        return
    cr = diagram.parse_pd(text).crossings
    arcs = sorted({e for t in cr for e in t})
    assert sorted(d.succ) == arcs and sorted(d.succ.values()) == arcs
    assert sorted(d.head) == arcs and sorted(d.tail) == arcs
    for e in arcs:
        (ch, ph), (ct, pt) = d.head[e], d.tail[e]
        assert cr[ch][ph] == cr[ct][pt] == e and (ch, ph) != (ct, pt)
    assert d.n_regions == d.n_crossings + 2
