"""Fuzzing of the command line's input paths: the PD text and JSON
diagram (analyze), the representation file (from-rep), --m and --filling
(solve), and verify's report and filling files.

Whatever the input, a run ends with an exit code in {0, 1, 2}, without a
traceback or a warning; a failed run explains itself in one ``error:`` or
``verification failure:`` line on stderr (verify, which reports a failed
check on stdout, may leave stderr empty), and malformed input exits 2.
The examples are derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from linkvol import _examples, cli

FIG8_CROSSINGS = [[4, 8, 5, 7], [8, 4, 1, 3], [2, 5, 3, 6], [6, 1, 7, 2]]
WHITEHEAD_CROSSINGS = [[1, 6, 2, 5], [3, 7, 4, 8], [8, 4, 9, 1],
                       [10, 3, 5, 2], [6, 9, 7, 10]]

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=100)

# one file in sixteen is not UTF-8
CORRUPT = st.sampled_from([False] * 15 + [True])

# the figure-eight golden's PD code and its generators as [re, im] entries
_GOLDEN = _examples.figure_eight_golden()
_GENS = {g: [[z.real, z.imag] for row in m for z in map(complex, row)]
         for g, m in _GOLDEN.seed_matrices.items()}

# any JSON value, nested a few levels
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)

# a number where the program reads one: ordinary, at the ends of the double
# range, non-finite, an integer of more digits than int() converts, or no
# number at all
NUMBER = st.one_of(
    st.floats(-4, 4), st.integers(-3, 3),
    st.sampled_from([0.0, 1e308, -1e308, 5e-324, float("nan"),
                     float("inf"), 10 ** 400, "1", None, [1.0, 0.0]]))


def run(argv):
    """main(argv) with its output captured: (exit code, stdout, stderr).
    A warning fails the test, as an exception (a traceback) does."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit(code, out, err, malformed=False):
    assert code in (0, 1, 2)
    if malformed:
        assert code == 2, (out, err)
    if code == 0:
        assert err == ""
    elif err or code == 2:
        prefix = "error: " if code == 2 else "verification failure: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
    else:
        assert "FAIL" in out


def write(path, data, corrupt=False):
    """Write data (text, or a JSON document) to path as UTF-8; a corrupt
    file starts with a byte that is not UTF-8."""
    text = data if isinstance(data, str) else json.dumps(data)
    path.write_bytes((b"\xff" if corrupt else b"") + text.encode())
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A temporary directory, the figure-eight PD file, its golden
    representation file, and the golden's from-rep report."""
    tmp = tmp_path_factory.mktemp("fuzz")
    pd = write(tmp / "fig8.pd", _GOLDEN.pd + "\n")
    rep = write(tmp / "rep.json", {"generators": _GENS})
    report = tmp / "report.json"
    assert cli.main(["from-rep", pd, rep, "--filling", "2/3",
                     "--json", str(report)]) == 0
    return {"dir": tmp, "pd": pd, "rep": rep,
            "report": json.loads(report.read_text())}


# ---------------------------------------------------------------------------
# analyze: the PD text and JSON diagram
# ---------------------------------------------------------------------------

@st.composite
def crossings(draw):
    """A golden's crossings, perhaps reordered, with a crossing dropped or
    repeated, or labels changed."""
    rows = [list(r) for r in draw(st.sampled_from(
        [FIG8_CROSSINGS, WHITEHEAD_CROSSINGS]))]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "label", "rotate"]))
        if edit == "drop":
            del rows[i]
        elif edit == "repeat":
            rows.append(list(rows[i]))
        elif edit == "label":
            rows[i][draw(st.integers(0, 3))] = draw(st.integers(-1, 11))
        else:
            rows[i] = rows[i][1:] + rows[i][:1]
        if not rows:
            break
    return rows


COMPACT_NOISE = st.sampled_from(
    ["", " ", ",", "\n", "# note\n", "X[", "]", "X[1,2,3]", "Y[1,2,3,4]",
     "X[1,2,3,4", "X[" + "9" * 5000 + ",1,2,3]", "X[٣,1,2,3]", "{", "\t"])


@FUZZ
@given(rows=crossings(), noise=st.lists(COMPACT_NOISE, max_size=2),
       at=st.integers(0, 6), corrupt=CORRUPT)
def test_analyze_pd_text_fuzz(files, rows, noise, at, corrupt):
    parts = [f"X[{a},{b},{c},{d}]" for a, b, c, d in rows]
    parts[at:at] = noise
    path = write(files["dir"] / "d.pd", " ".join(parts) + "\n", corrupt)
    code, out, err = run(["analyze", path])
    # a diagram analyze does not take is malformed input
    assert code in (0, 2)
    check_exit(code, out, err, malformed=corrupt)


MERIDIANS = st.one_of(
    st.none(), st.none(), JSON,
    st.lists(st.sampled_from(["g1", "g2", "g5", "g9", "gx", None, 1]),
             max_size=3),
    st.dictionaries(st.sampled_from(["1", "2", "3", "0", "٣", "x", ""]),
                    st.sampled_from(["g1", "g3", "g4", "g9", None, []]),
                    max_size=2))


@FUZZ
@given(rows=st.one_of(crossings(), crossings(), JSON), meridians=MERIDIANS,
       extra=st.sampled_from(["", "", "", "x", "[" * 3000 + "]" * 3000]))
def test_analyze_json_diagram_fuzz(files, rows, meridians, extra):
    doc = {"pd": rows, "meridians": meridians}
    if extra.startswith("["):
        doc["pd"] = []       # the nesting replaces the crossings
        text = json.dumps(doc).replace("[]", extra)
    else:
        text = json.dumps(doc) + extra
    code, out, err = run(["analyze", write(files["dir"] / "d.json", text)])
    assert code in (0, 2)
    check_exit(code, out, err, malformed=bool(extra))


# ---------------------------------------------------------------------------
# from-rep: the representation file
# ---------------------------------------------------------------------------

@st.composite
def generator_entries(draw, golden):
    """(entries, malformed): one generator's row-major [re, im] entries,
    the golden's or changed."""
    kind = draw(st.sampled_from(
        ["golden"] * 3 + ["scaled", "number", "short", "long", "ragged",
                          "matrix", "scalar", "text"]))
    entries = [list(p) for p in golden]
    if kind == "scaled":
        k = draw(st.sampled_from([0.0, 1e-200, 1e200, -1.0, 1.5]))
        entries = [[k * a, k * b] for a, b in entries]
    elif kind == "number":
        entries[draw(st.integers(0, 3))][draw(st.integers(0, 1))] = \
            draw(NUMBER)
        # a finite float, or an int within the double range, keeps the
        # shape
        x = [v for p in entries for v in p]
        return entries, not all(
            type(v) is float and math.isfinite(v)
            or type(v) is int and abs(v) <= 10 ** 308 for v in x)
    elif kind == "short":
        entries = entries[:3]
    elif kind == "long":
        entries = entries + [[0.0, 0.0]]
    elif kind == "ragged":
        entries[draw(st.integers(0, 3))] = [1.0]
    elif kind == "matrix":
        entries = [entries[:2], entries[2:]]
    elif kind == "scalar":
        entries = draw(st.sampled_from([1.0, 0, None, True]))
    elif kind == "text":
        entries = draw(st.sampled_from(["abcd", "1,0,0,1", ""]))
    return entries, kind not in ("golden", "scaled")


GOLDEN_NAMES = ["g3", "g4"]
OTHER_NAMES = ["g1", "g2", "g03", "g9", "g0", "gx", "g" + "9" * 5000]


@st.composite
def representation_docs(draw):
    """(document, malformed) from the figure-eight's golden generators
    with up to three edits: a generator's entries changed or dropped, or
    another name added. malformed is None where unknown."""
    shape = draw(st.sampled_from(["golden"] * 8 + ["json", "generators"]))
    if shape == "json":
        # no 'generators' key: JSON's keys here are at most 3 characters
        return draw(JSON), True
    if shape == "generators":
        return {"generators": draw(JSON)}, None
    out = dict(_GENS)
    bad = dict.fromkeys(out, False)
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(GOLDEN_NAMES * 3 + OTHER_NAMES))
        if name in out and draw(st.integers(0, 3)) == 0:
            del out[name], bad[name]
            continue
        out[name], bad[name] = draw(generator_entries(
            _GENS.get(name, _GENS["g4"])))
        bad[name] |= name in ("g9", "g0", "gx") or len(name) > 10
    # two names of one generator ("g3" and "g03") are a format error
    numbers = [int(n[1:]) for n in out if len(n) <= 10 and n[1:].isdigit()]
    twice = len(numbers) != len(set(numbers))
    return {"generators": out}, not out or twice or any(bad.values())


@settings(FUZZ, max_examples=150)
@given(data=st.data(), filling=st.sampled_from([[], ["--filling", "2/3"]]),
       corrupt=CORRUPT)
def test_from_rep_representation_file_fuzz(files, data, filling, corrupt):
    doc, malformed = data.draw(representation_docs())
    path = write(files["dir"] / "r.json", doc, corrupt)
    code, out, err = run(["from-rep", files["pd"], path, *filling])
    check_exit(code, out, err, malformed=corrupt or bool(malformed))
    if malformed is False and not corrupt:
        # a well-shaped file passes or fails its checks, never its parse
        assert code in (0, 1), err


# ---------------------------------------------------------------------------
# solve: --m and --filling
# ---------------------------------------------------------------------------

COMPLEX_TEXT = st.one_of(
    st.sampled_from(["1", "-1", "1+0i", "1.1+0.3i", "-1.30664+0.04987i"]),
    st.sampled_from(["0", "0+0i", "inf", "nan", "1e400", "1e-320", "i",
                     "2i", "1+", "abc", "", " ", "1,", "1e308+1e308i"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))

SLOPE_TEXT = st.one_of(
    st.sampled_from(["inf", "infinity", "2/3", "-5/1", "1/0", "0/1", "2/4",
                     "1", "-5", "1/2/3", "a/b", "", "2/-3", "1_0/3",
                     "9" * 5000, "9" * 40 + "/1", "1/" + str(2 ** 53 + 1)]),
    st.tuples(st.integers(-7, 7), st.integers(-7, 7)).map(
        lambda rs: f"{rs[0]}/{rs[1]}"))


@FUZZ
@given(pd=st.sampled_from([_examples.FIG8_PD, _examples.WHITEHEAD_PD]),
       data=st.data())
def test_solve_meridian_and_filling_fuzz(files, pd, data):
    # mostly one entry per component, as a well-formed run has
    n = 1 if pd == _examples.FIG8_PD else 2
    count = st.sampled_from([n] * 6 + [0, 1, 2, 3])
    m = data.draw(st.lists(COMPLEX_TEXT, min_size=1, max_size=3)
                  if data.draw(count) != n else
                  st.lists(COMPLEX_TEXT, min_size=n, max_size=n))
    slopes = data.draw(st.none() | st.lists(
        SLOPE_TEXT, min_size=n, max_size=n) | st.lists(SLOPE_TEXT,
                                                        max_size=3))
    path = write(files["dir"] / "s.pd", pd)
    argv = ["solve", path, "--m=" + ",".join(m), "--seeds", "1"]
    if slopes is not None:
        argv.append("--filling=" + ",".join(slopes))
    code, out, err = run(argv)
    check_exit(code, out, err)


# ---------------------------------------------------------------------------
# verify: the report and filling files
# ---------------------------------------------------------------------------

FILLINGS = st.one_of(
    st.fixed_dictionaries({"slopes": st.one_of(
        JSON, st.lists(st.one_of(
            st.sampled_from(["inf", None, [2, 3], [1, 0], [2, 4],
                             [10 ** 400, 1], [2, 3, 1], ["2", "3"]]),
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(list)),
            max_size=2))},
        optional={"l": st.one_of(JSON, st.lists(st.one_of(
                      st.none(), st.lists(NUMBER, max_size=3)), max_size=2)),
                  "uv": st.one_of(JSON, st.lists(st.one_of(
                      st.none(), st.lists(st.one_of(
                          st.integers(-3, 3), st.just(10 ** 400),
                          st.just(1.5)), max_size=3)), max_size=2))}),
    JSON)


@st.composite
def solution_records(draw, solution):
    """The golden's solution record, or one with a changed weight or
    meridian, a key dropped, or an inline filling."""
    doc = json.loads(json.dumps(solution))
    edit = draw(st.sampled_from(["none"] * 3 + ["w", "m", "drop",
                                               "filling", "other"]))
    if edit in ("w", "m"):
        entries = doc[edit]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(
            st.one_of(st.lists(NUMBER, max_size=3), NUMBER))
        if draw(st.booleans()):
            doc[edit] = draw(st.one_of(JSON, st.lists(
                st.lists(NUMBER, min_size=2, max_size=2), max_size=7)))
    elif edit == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif edit == "filling":
        doc["filling"] = draw(FILLINGS)
    elif edit == "other":
        doc = draw(JSON)
    return doc


@settings(FUZZ, max_examples=150)
@given(data=st.data(), wrap=st.sampled_from(["record", "solution",
                                             "solutions", "report"]),
       filling=st.sampled_from([None, None, "golden"]) | FILLINGS,
       corrupt=st.sampled_from([None] * 14 + ["report", "filling"]))
def test_verify_report_and_filling_fuzz(files, data, wrap, filling,
                                        corrupt):
    report = files["report"]
    if filling == "golden":
        filling = report["filling"]
    records = data.draw(st.lists(solution_records(report["solution"]),
                                 min_size=1, max_size=2))
    doc = {"record": records[0], "solution": {"solution": records[0]},
           "solutions": {"solutions": records},
           "report": dict(report, solution=records[0])}[wrap]
    argv = ["verify", files["pd"], write(files["dir"] / "v.json", doc,
                                         corrupt == "report")]
    if filling is not None:
        argv.append(write(files["dir"] / "f.json", filling,
                          corrupt == "filling"))
    code, out, err = run(argv)
    check_exit(code, out, err, malformed=corrupt == "report" or (
        corrupt == "filling" and filling is not None))


# ---------------------------------------------------------------------------
# Inputs that once ended in a traceback, or in exit 1 although malformed
# ---------------------------------------------------------------------------

_DEEP = "[" * 5000 + "]" * 5000
_LONG = "9" * 5000
# a solution record of the figure-eight's shape: six weights, one meridian
_RECORD = {"w": [[1.0, 0.0]] * 6, "m": [[1.0, 0.0]]}
_FIG8_JSON = {"pd": FIG8_CROSSINGS}
_TREFOIL_CROSSINGS = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]


def _golden_solution(key, f):
    """The golden's solution record with f applied to every entry of one
    key; the record is known only once the ``files`` fixture has run."""
    return lambda files: dict(files["report"]["solution"], **{
        key: [f(p) for p in files["report"]["solution"][key]]})


@pytest.mark.parametrize("argv, contents, message", [
    (["analyze", "d.pd"], {"d.pd": b"\xff" + _GOLDEN.pd.encode()}, "cannot read"),
    (["analyze", "d.pd"], {"d.pd": f"X[{_LONG},1,2,3]"},
     "expected X[a,b,c,d]"),
    (["analyze", "d.pd"], {"d.pd": f'{{"pd": [[{_LONG},1,2,3]]}}'},
     "unreadable JSON diagram: an integer has more than 4300 digits"),
    (["analyze", "d.pd"], {"d.pd": f'{{"pd": {_DEEP}}}'},
     "unreadable JSON diagram"),
    (["from-rep", "d.pd", "r.json"], {"r.json": b"\xff{}"}, "cannot read"),
    (["from-rep", "d.pd", "r.json"],
     {"r.json": f'{{"generators": {{"g3": [[{_LONG}, 0]]}}}}'},
     "is not valid JSON: an integer has more than 4300 digits"),
    (["from-rep", "d.pd", "r.json"], {"r.json": _DEEP}, "is not valid JSON"),
    (["from-rep", "d.pd", "r.json"],
     {"r.json": {"generators": dict(_GENS, **{"g" + _LONG: _GENS["g3"]})}},
     "bad generator name"),
    (["from-rep", "d.pd", "r.json"],
     {"r.json": {"generators": dict(_GENS, g3=[[math.nan, 0.0]] * 4)}},
     "generator g3: entries must be finite"),
    (["from-rep", "d.pd", "r.json"],
     {"r.json": {"generators": dict(_GENS, g4=[[1.0, math.inf]] * 4)}},
     "generator g4: entries must be finite"),
    # a key the diagram does not have is found before a failing matrix
    (["from-rep", "d.pd", "r.json"],
     {"r.json": {"generators": {"g3": [[0.0, 0.0]] * 4, "g9": _GENS["g3"]}}},
     "no generator g9"),
    (["from-rep", "d.pd", "r.json", "--filling", f"{10 ** 39}/1"], {},
     "is out of range"),
    (["from-rep", "d.pd", "r.json", "--filling", f"1/{2 ** 53 + 1}"], {},
     "is out of range"),
    (["verify", "d.pd", "v.json"],
     {"v.json": {"w": [[10 ** 400, 0.0]] * 6, "m": [[1.0, 0.0]]}},
     "bad solution record 1: 'w' entry 1 is beyond the double range"),
    (["verify", "d.pd", "v.json"],
     {"v.json": {"solutions": [_RECORD, {"w": _RECORD["w"]}]}},
     "bad solution record 2: missing key 'm'"),
    (["verify", "d.pd", "v.json"],
     {"v.json": {"w": "abcd", "m": [[1.0, 0.0]]}},
     "bad solution record 1: 'w' must be a list of [re, im] pairs"),
    (["verify", "d.pd", "v.json"],
     {"v.json": {"w": _RECORD["w"][:5] + [[1.0]], "m": [[1.0, 0.0]]}},
     "bad solution record 1: 'w' entry 6 is not an [re, im] pair"),
    (["verify", "d.pd", "v.json"], {"v.json": {"solutions": [7]}},
     "bad solution record 1: not an object"),
    (["verify", "d.pd", "v.json", "f.json"],
     {"f.json": {"slopes": [[10 ** 400, 1]]}}, "is out of range"),
    (["verify", "d.pd", "v.json", "f.json"],
     {"f.json": {"slopes": [[2, 3]], "uv": [[10 ** 400, 1]]}},
     "is out of range"),
    (["analyze", "d.json"],
     {"d.json": dict(_FIG8_JSON, meridians=["g" + "1" * 5000])},
     "bad generator name"),
    (["from-rep", "d.pd", "r.json"],
     {"r.json": {"generators": {"g\u0663": _GENS["g4"], "g3": _GENS["g3"]}}},
     "bad generator name"),
    (["analyze", "d.json"],
     {"d.json": dict(_FIG8_JSON, meridians={"1" * 5000: "g1"})},
     "'meridians' must be a list, or an object keyed by component numbers"),
    (["analyze", "d.json"],
     {"d.json": dict(_FIG8_JSON, meridians={"\u0661": "g1"})},
     "'meridians' must be a list, or an object keyed by component numbers"),
    (["analyze", "d.json"],
     {"d.json": dict(_FIG8_JSON, meridians={"1": "g1", "01": "g3"})},
     "'meridians' names component 1 twice"),
    (["from-rep", "d.pd", "r.json"],
     {"r.json": {"generators": {g: [p + [99.0] for p in e]
                                for g, e in _GENS.items()}}},
     "entry 1 is not an [re, im] pair"),
    (["from-rep", "d.pd", "r.json"],
     {"r.json": {"generators": dict(_GENS, g3=[[True, False]] * 4)}},
     "generator g3 entry 1 is not an [re, im] pair"),
    (["verify", "d.pd", "v.json"],
     {"v.json": _golden_solution("w", lambda p: p + [7])},
     "bad solution record 1: 'w' entry 1 is not an [re, im] pair"),
    (["verify", "d.pd", "v.json"],
     {"v.json": _golden_solution("m", lambda p: [True, False])},
     "bad solution record 1: 'm' entry 1 is not an [re, im] pair"),
    (["verify", "d.pd", "v.json", "f.json"],
     {"f.json": {"slopes": [[2, 3]], "l": [[10 ** 400, 0]]}},
     "filling l 1 is beyond the double range"),
    (["analyze", "d.json"],
     {"d.json": f'{{"pd": {FIG8_CROSSINGS}, "pd": {_TREFOIL_CROSSINGS}}}'},
     'unreadable JSON diagram: object key "pd" is repeated'),
    (["from-rep", "d.pd", "r.json"],
     {"r.json": '{"generators": {%s, "g3": %s}}' % (
         json.dumps(_GENS)[1:-1], json.dumps(_GENS["g4"]))},
     'is not valid JSON: object key "g3" is repeated'),
    (["verify", "d.pd", "v.json"],
     {"v.json": lambda files: json.dumps(files["report"]["solution"])[:-1]
      + ', "w": ' + json.dumps(_RECORD["w"]) + "}"},
     'is not valid JSON: object key "w" is repeated'),
    (["from-rep", "d.pd", "r.json"],
     {"r.json": "\ufeff" + json.dumps({"generators": _GENS})},
     "is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (["analyze", "d.pd"], {"d.pd": "\ufeff" + _GOLDEN.pd},
     "syntax error at line 1, column 1: Unexpected UTF-8 BOM"),
    (["analyze", "d.json"], {"d.json": "\ufeff" + json.dumps(_FIG8_JSON)},
     "syntax error at line 1, column 1: Unexpected UTF-8 BOM"),
    # a det-1 matrix under a second key of g4 no longer replaces g4's
    (["from-rep", "d.pd", "r.json"],
     {"r.json": {"generators": dict(_GENS, g04=_GENS["g3"])}},
     "error: generator keys 'g4' and 'g04' both name g4\n"),
    (["verify", "d.pd", "v.json"], {"v.json": {"solutions": []}},
     "v.json: no solution records to verify\n"),
    # W0 rejected every point after the whole Newton run
    (["solve", "w.pd", "--m=0.60430+1.35917i,1.43249+1.08047i",
      "--filling", "inf,-5/2", "--tol", "1e-3"],
     {"w.pd": _examples.WHITEHEAD_PD},
     "error: --filling: component 1 is unfilled beside a filled one, so "
     "its --m must be 1 or -1\n"),
    # the report path was opened after the run and raised a traceback;
    # an empty one wrote nothing and said nothing
    (["analyze", "d.pd", "--json", "no-such-dir/r.json"], {},
     "error: cannot write report no-such-dir/r.json: "
     "No such file or directory\n"),
    (["analyze", "d.pd", "--json", "."], {},
     "error: cannot write report .: Is a directory\n"),
    (["analyze", "d.pd", "--json", ""], {},
     "error: cannot write report : No such file or directory\n"),
    # an empty filling path was dropped and the record's own filling used
    (["verify", "d.pd", "v.json", ""], {},
     "error: cannot read : [Errno 2] No such file or directory: ''\n"),
], ids=["pd-not-utf8", "pd-long-label", "json-pd-long-int", "json-pd-deep",
        "rep-not-utf8", "rep-long-int", "rep-deep", "rep-long-name",
        "rep-nan", "rep-infinity", "rep-name-after-bad-matrix",
        "filling-beyond-float", "filling-beyond-2^53",
        "verify-weight-beyond-float", "verify-record-without-m",
        "verify-string-w", "verify-ragged-w", "verify-record-not-object",
        "verify-slope-beyond-float", "verify-uv-beyond-float",
        "meridian-name-long", "rep-name-not-ascii", "meridian-key-long",
        "meridian-key-not-ascii", "meridian-key-twice", "rep-three-numbers",
        "rep-bool-entry", "verify-three-numbers", "verify-bool-entry",
        "verify-filling-l-beyond-float", "json-pd-key-twice",
        "rep-generator-twice", "verify-key-twice", "rep-bom", "pd-bom",
        "json-pd-bom", "rep-generator-two-names", "verify-no-records",
        "solve-unfilled-off-parabolic", "report-missing-directory",
        "report-directory", "report-empty", "verify-empty-filling-file"])
def test_found_inputs_are_input_errors(files, tmp_path, argv, contents,
                                       message):
    paths = {"d.pd": files["pd"], "r.json": files["rep"],
             "v.json": write(tmp_path / "v.json",
                             files["report"]["solution"])}
    for name, data in contents.items():
        paths[name] = str(tmp_path / name)
        if callable(data):
            data = data(files)
        if isinstance(data, bytes):
            (tmp_path / name).write_bytes(data)
        else:
            write(tmp_path / name, data)
    code, out, err = run([paths.get(a, a) for a in argv])
    check_exit(code, out, err, malformed=True)
    assert message in err
    # no advice that no linkvol option can act on
    assert "set_int_max_str_digits" not in err
