"""Command-line front end for the link-invariant pipeline.

Subcommands: ``analyze`` (diagram combinatorics), ``from-rep`` (volume and
Chern-Simons invariant from a representation file), ``solve`` (numerical
multi-start search at fixed meridians), ``verify`` (re-check solution
files), and ``selftest`` (built-in reproduction suite).

Each ``cmd_*`` returns (exit code, report document); ``main`` checks the
``--json`` path before the run and writes the document there after a
manifest of the run.

Exit codes: 0 success, 1 verification failure, 2 input error.
Complex numbers on the command line use the form ``a+bi``; JSON files use
``[re, im]`` pairs.
"""

import argparse
import cmath
import errno
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from . import _examples, coloring, diagram, engine, potential, representation
from .numerics import PI_SQUARED, dilog, mod_pi2_equal, principal_log


class InputError(ValueError):
    """Bad file, flag syntax, or inconsistent options (exit code 2)."""


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------

def parse_complex(text):
    """Parse 'a+bi' (optional signs, either part omittable). Only the
    imaginary unit, an i or I that ends a term, becomes Python's j, so
    the spellings inf, infinity and nan keep their meaning."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise InputError("empty complex number")
    try:
        return complex(re.sub(r"[iI](?=[+-]|$)", "j", cleaned))
    except ValueError:
        raise InputError(f"cannot parse complex number {text!r}; "
                         f"expected the form a+bi") from None


def parse_vec2(text, flag):
    vals = text.split(",")
    if len(vals) != 2:
        raise InputError(f"{flag} needs two comma-separated complex "
                         f"numbers, e.g. \"1+0i,0+1i\"")
    vec = tuple(parse_complex(v) for v in vals)
    if not all(cmath.isfinite(z) for z in vec):
        raise InputError(f"{flag} entries must be finite")
    return vec


def parse_filling(text, n_components):
    """'r/s,r/s,inf' positionally per component; 'r' means r/1."""
    parts = text.split(",")
    if len(parts) != n_components:
        raise InputError(f"--filling needs {n_components} slope(s) "
                         f"(one per component), got {len(parts)}")
    slopes = []
    for part in parts:
        part = part.strip()
        if part.lower() in ("inf", "infinity"):
            slopes.append(None)
            continue
        try:
            if "/" in part:
                r_txt, s_txt = part.split("/")
                r, s = int(r_txt), int(s_txt)
            else:
                r, s = int(part), 1
        except ValueError:
            raise InputError(f"cannot parse slope {part!r}; expected "
                             f"r/s, an integer, or inf") from None
        slopes.append((r, s))
    try:
        representation.FillingSpec(slopes)
    except representation.RepresentationError as exc:
        raise InputError(f"--filling: {exc}") from None
    return slopes


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _read_json(path):
    text = _read_text(path)
    try:
        return diagram.parse_json(text)
    except (ValueError, RecursionError) as exc:
        # also an integer past int()'s 4300 digits, or too deep a nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_diagram(path):
    try:
        return diagram.load_diagram(_read_text(path))
    except diagram.DiagramError as exc:
        raise InputError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

_INPUT_ARGS = ("diagram", "rep", "solutions", "filling_file")


def _check_report_path(path):
    """Fail before the run on a report path that opening for writing is
    sure to refuse, with the message the write would give: the empty
    path, a parent directory that cannot be reached (missing, not a
    directory, a symlink loop, no search permission), a directory, and a
    name with a trailing slash, which open() takes for a directory. An
    error only the write can find, such as a parent that is not writable,
    still shows at the write."""
    parent = os.path.dirname(path.rstrip("/")) or "."
    try:
        # the trailing separator makes a parent that is a file fail too
        os.stat(os.path.join(parent, ""))
        code = (errno.ENOENT if not path
                else errno.EISDIR if path.endswith("/") or os.path.isdir(path)
                else None)
    except OSError as exc:
        code = exc.errno
    if code is not None:
        raise InputError(f"cannot write report {path}: {os.strerror(code)}")


def _write_report(args, doc):
    """Write doc to --json as one line of JSON, after a manifest read off
    the parsed arguments; an argument the subcommand lacks reads null.
    Without indent, json.dumps runs its C encoder."""
    path = args.json
    if path is None:
        return
    inputs = [getattr(args, a) for a in _INPUT_ARGS if getattr(args, a, None)]
    doc = {"manifest": {"command": args.command, "inputs": inputs,
                        "tolerance": getattr(args, "tol", None),
                        "output": path,
                        "rng_seed": getattr(args, "rng_seed", None)},
           **doc}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write report {path}: {exc.strerror}") \
            from None


def _f9(x, sign=""):
    """x to 9 decimals. A value that rounds to zero prints without the
    sign of its rounding noise: 0.000000000, or +0.000000000 with sign "+"."""
    x = float(x)
    return f"{x if round(x, 9) else 0.0:{sign}.9f}"


def _c2s(z):
    """Human-readable complex."""
    return f"{_f9(z.real)}{_f9(z.imag, '+')}i"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    d = _load_diagram(args.diagram)
    relations = diagram.wirtinger(d)
    print(d.summary())
    print(f"edges: {len(d.succ)}")
    signs = " ".join(f"{x.sign:+d}" for x in d.crossings)
    print(f"crossing signs: {signs}")
    for i, comp in enumerate(d.components):
        print(f"component {i + 1}: edges {[e for e in comp]}, "
              f"writhe {d.writhes[i]}")
    print("over-arcs (Wirtinger generators):")
    for gi, arc in enumerate(d.over_arcs):
        print(f"  g{gi + 1}: edges {list(arc)}")
    print("relations (g_out = g^e g_in g^-e):")
    for (out, over, inn, eps) in relations:
        print(f"  g{out + 1} = g{over + 1}^{eps:+d} g{inn + 1} "
              f"g{over + 1}^{-eps:+d}")
    print("longitude words (canonical, writhe-corrected):")
    for i in range(d.n_components):
        print(f"  component {i + 1}: {diagram.longitude_word(d, i)}")
    return 0, {"summary": d.summary(),
               "n_regions": d.n_regions, "n_crossings": d.n_crossings,
               "n_components": d.n_components, "n_edges": len(d.succ),
               "crossing_signs": [x.sign for x in d.crossings],
               "writhes": list(d.writhes),
               "over_arcs": [list(arc) for arc in d.over_arcs],
               "relations": [list(r) for r in relations],
               "longitudes": [str(diagram.longitude_word(d, i))
                              for i in range(d.n_components)]}


# ---------------------------------------------------------------------------
# from-rep
# ---------------------------------------------------------------------------

def _pinned_or_random_coloring(args, rep):
    pinned = [args.seedV is not None, args.W is not None,
              args.seed_region is not None]
    if any(pinned) and not all(pinned):
        raise InputError("--seedV, --W and --seed-region must be given "
                         "together (or all omitted for a random generic "
                         "coloring)")
    if all(pinned):
        seedV = parse_vec2(args.seedV, "--seedV")
        if not any(seedV):
            raise InputError("--seedV must be nonzero")
        W = parse_vec2(args.W, "--W")
        if not (1 <= args.seed_region <= rep.diagram.n_regions):
            raise InputError(f"--seed-region must be in 1.."
                             f"{rep.diagram.n_regions}")
        return coloring.propagate(rep, args.seed_region - 1, seedV, W)
    return coloring.random_generic_coloring(rep, args.rng_seed)


def cmd_from_rep(args):
    d = _load_diagram(args.diagram)
    rep = representation.representation_from_json(d, _read_json(args.rep))
    col = _pinned_or_random_coloring(args, rep)
    slopes = (parse_filling(args.filling, d.n_components)
              if args.filling else [None] * d.n_components)
    sol, f, vr = engine.from_representation(rep, col, slopes, args.tol)
    for i in range(d.n_components):
        line = f"component {i + 1}: m = {_c2s(sol.m[i])}, " \
               f"l = {_c2s(f.l[i])}"
        if slopes[i] is not None:
            line += f", slope {slopes[i][0]}/{slopes[i][1]}, " \
                    f"(u,v) = {f.uv[i]}"
        print(line)
    print(f"W0  = {_c2s(vr.W0)}")
    print(f"vol = {_f9(vr.vol)}")
    print(f"cs  = {vr.cs:.9f}  (mod pi^2 = {PI_SQUARED:.9f})")
    print(f"residual_max = {vr.residual_max:.3g}")
    doc = sol.to_json()
    doc.update(vr.to_json())
    return 0, {"summary": d.summary(),
               "l": [[z.real, z.imag] for z in f.l],
               "filling": f.to_json(),
               "solution": doc}


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args):
    d = _load_diagram(args.diagram)
    if not args.m:
        raise InputError("solve needs --m (comma-separated meridian "
                         "eigenvalues, one per component)")
    m = [parse_complex(part) for part in args.m.split(",")]
    if len(m) != d.n_components:
        raise InputError(f"expected {d.n_components} meridian(s), got "
                         f"{len(m)}")
    if not all(z != 0 and cmath.isfinite(z) for z in m):
        raise InputError("meridian eigenvalues must be finite and nonzero")
    try:
        cfg = engine.SolveConfig(seeds=args.seeds, rng_seed=args.rng_seed)
        if args.tol is not None:
            cfg = replace(cfg, residual_tol=args.tol)
    except engine.EngineError as exc:
        raise InputError(f"invalid --seeds: {exc}") from None
    slopes = (parse_filling(args.filling, d.n_components)
              if args.filling else None)
    filling_tol = args.tol or 1e-6
    for i, (z, sl) in enumerate(zip(m, slopes or ())):
        # at m = ±1 a point has l = ±1, where every slope holds trivially
        if sl is not None and z in (1, -1):
            raise InputError(f"--filling: component {i + 1} is filled, so "
                             f"its --m must not be 1 or -1 (every slope "
                             f"holds there)")
        # beside a filled one, W0 needs an unfilled cusp to be parabolic
        if sl is None and any(slopes) and \
                min(abs(z - 1), abs(z + 1)) > filling_tol:
            raise InputError(f"--filling: component {i + 1} is unfilled "
                             f"beside a filled one, so its --m must be 1 "
                             f"or -1")

    p = engine.multi_start(d, m, cfg)
    # each point carries its own longitudes, l = exp(-(m dW/dm)/2)
    docs = []
    for k, l in enumerate(p.l):
        f = None
        if slopes is not None:
            # a point whose (m, l) miss the slope is not a filled solution
            try:
                f = representation.FillingSpec.from_eigenvalues(
                    slopes, p.m[k], l, tol=filling_tol)
            except representation.RepresentationError:
                continue
        docs.append(engine.solution_report(
            p, k, f, residual_tol=cfg.residual_tol, filling_tol=filling_tol))
    n_sols = len(p.w)
    print(f"meridians: " + ", ".join(_c2s(z) for z in m))
    print(f"found {n_sols} distinct solution(s) from {cfg.seeds} seeds"
          + (f"; {n_sols - len(docs)} of them do not satisfy the filling "
             f"and are left out" if slopes is not None else ""))
    for k, doc in enumerate(docs):
        print(f"  #{k + 1}: vol = {_f9(doc['vol'], '+')}  "
              f"cs = {doc['cs']:.9f}  residual {doc['residual_max']:.2e}")
    return 0, {"summary": d.summary(),
               "m": [[z.real, z.imag] for z in m],
               "filling": (None if slopes is None else
                           representation.FillingSpec(slopes).to_json()),
               "solutions": docs}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_one(p, k, f, tol):
    """Returns (passed, human lines, json record) for row k of the
    evaluation p, checked against the filling f when it is not None."""
    lines = []
    report = p.reports[k]
    record = {"nondegenerate": not report}
    if report:
        lines.append("  degenerate point:")
        lines.extend(f"    {r}" for r in report[:6])
        record["degeneracy_report"] = report
        record["passed"] = False
        return False, lines, record

    ok = True
    res = np.abs(p.residuals[k])
    rmax = record["residual_max"] = float(res.max())
    if rmax > tol:
        ok = False
        lines.append(f"  criticality FAILED (max residual "
                     f"{rmax:.3g} > {tol:g}); residual table:")
        lines.extend(f"    region {j + 1}: {r:.3e}"
                     for j, r in enumerate(res))

    if f is not None and ok:
        try:
            vr = potential.W0(p, k, f, residual_tol=tol, filling_tol=tol)
            record.update(vr.to_json())
            lines.append(f"  vol = {_f9(vr.vol)}, cs = {vr.cs:.9f}")
        except (potential.PotentialError,
                representation.RepresentationError) as exc:
            ok = False
            lines.append(f"  filling correction FAILED: {exc}")
    record["passed"] = bool(ok)
    return ok, lines, record


def cmd_verify(args):
    d = _load_diagram(args.diagram)
    payload = _read_json(args.solutions)
    if isinstance(payload, dict) and "solutions" in payload:
        docs = payload["solutions"]
    elif isinstance(payload, dict) and "w" in payload:
        docs = [payload]
    elif isinstance(payload, dict) and "solution" in payload:
        docs = [payload["solution"]]
    else:
        raise InputError(f"{args.solutions}: expected a solution object "
                         f"or a report with a 'solutions' list")
    if not isinstance(docs, list):
        raise InputError(f"{args.solutions}: 'solutions' must be a list")
    if not docs:
        raise InputError(f"{args.solutions}: no solution records to verify")

    def filling(doc):
        f = representation.FillingSpec.from_json(doc)
        if f.n_components != d.n_components:
            raise InputError(f"filling lists {f.n_components} components, "
                             f"diagram has {d.n_components}")
        return f

    shared = None
    if args.filling_file is not None:
        shared = filling(_read_json(args.filling_file))
    elif isinstance(payload, dict) and payload.get("filling"):
        shared = filling(payload["filling"])
    # every record and filling is read before any point is evaluated
    sols, fills = [], []
    for i, doc in enumerate(docs, 1):
        # a filling file applies to all; else a solution's own comes first
        own = args.filling_file is None and isinstance(doc, dict) \
            and doc.get("filling")
        fills.append(filling(doc["filling"]) if own else shared)
        try:
            sols.append(potential.Solution.from_json(d, doc))
        except potential.PotentialError as exc:
            raise InputError(f"bad solution record {i}: {exc}") from None
    p = potential.evaluate(
        d, np.array([s.w for s in sols]).reshape(-1, d.n_regions),
        np.array([s.m for s in sols]).reshape(-1, d.n_components))
    tol = args.tol
    all_ok = True
    records = []
    for k, f in enumerate(fills):
        ok, lines, record = _verify_one(p, k, f, tol)
        record["index"] = k
        records.append(record)
        all_ok = all_ok and ok
        print(f"solution {k + 1}: {'PASS' if ok else 'FAIL'}")
        for line in lines:
            print(line)
    print(f"overall: {'PASS' if all_ok else 'FAIL'} "
          f"({len(docs)} solution(s), tolerance {tol:g})")
    return (0 if all_ok else 1), {"passed": all_ok, "results": records}


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_checks():
    rng = np.random.default_rng(0)

    def dilog_identities():
        worst = abs(dilog(1.0) - PI_SQUARED / 6)
        worst = max(worst, abs(dilog(-1.0) + PI_SQUARED / 12))
        z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        z = z[np.abs(z) > 1e-3]
        z = z[np.abs(z - 1) > 1e-3]
        for zz in z:
            zz = complex(zz)
            inv = (dilog(zz) + dilog(1 / zz) + PI_SQUARED / 6
                   + principal_log(-zz) ** 2 / 2)
            refl = (dilog(zz) + dilog(1 - zz) - PI_SQUARED / 6
                    + principal_log(zz) * principal_log(1 - zz))
            worst = max(worst, abs(inv), abs(refl))
        return worst <= 1e-10, f"max identity deviation {worst:.2e}"

    def derivative_checks():
        d = diagram.load_diagram(_examples.FIG8_PD)
        n = d.n_regions
        m = [complex(1.1, 0.3)]
        # random non-degenerate point, not a solution
        while True:
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            p = potential.evaluate(d, w[None], m)
            if not p.reports[0]:
                break
        h = 1e-7
        # row j scales w_j by 1 + h, row n + j by 1 - h
        q = potential.evaluate(
            d, w * np.concatenate([1 + h * np.eye(n), 1 - h * np.eye(n)]), m)
        worst = max(abs((q.W[j] - q.W[n + j]) / (2 * h) - p.wdW[0, j])
                    for j in range(n))
        return worst <= 1e-6, f"finite differences {worst:.2e}"

    def golden(ex):
        def check():
            run = _examples.run_pipeline(ex)
            dev = abs(run.result.W0 - ex.regression_W0)
            ok = (dev <= 1e-9
                  and abs(run.result.vol - ex.regression_vol) <= 1e-9
                  and mod_pi2_equal(run.result.W0, ex.reference_W0, 1e-3))
            if ex.regression_w:
                dw = max(abs(a - b) for a, b
                         in zip(run.solution.w, ex.regression_w))
                ok = ok and dw <= 1e-9
            return ok, f"|dW0| = {dev:.2e}"
        return check

    checks = [("dilogarithm identities", dilog_identities),
              ("derivative cross-checks", derivative_checks)]
    for ex in _examples.all_golden():
        checks.append((ex.name, golden(ex)))
    return checks


def cmd_selftest(args):
    t0 = time.perf_counter()
    all_ok = True
    results = []
    for name, fn in _selftest_checks():
        try:
            ok, detail = fn()
        except Exception as exc:          # noqa: BLE001 - report, don't die
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        results.append({"name": name, "passed": bool(ok), "detail": detail})
        print(f"  {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    dt = time.perf_counter() - t0
    print(f"selftest: {'PASS' if all_ok else 'FAIL'} ({dt:.1f} s)")
    return (0 if all_ok else 1), {"passed": all_ok, "seconds": dt,
                                  "checks": results}


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The one parser of the process, built on the first main() call (not
    at import). It holds no state that parse_args changes: each call gets
    a fresh Namespace from defaults that are immutable."""
    p = argparse.ArgumentParser(
        prog="linkvol",
        description="Volume and Chern-Simons invariants of link diagram "
                    "representations via a region-weight potential "
                    "function.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, rng=False, tol=None):
        if tol is not None:
            sp.add_argument("--tol", type=float, default=tol,
                            help=f"acceptance tolerance (default {tol:g})")
        if rng:
            sp.add_argument("--rng-seed", type=int, default=0,
                            help="random seed (default 0)")
        sp.add_argument("--json", metavar="PATH",
                        help="write a machine-readable report here")

    sp = sub.add_parser("analyze", help="diagram combinatorics")
    sp.add_argument("diagram", help="path to a PD-code file")
    common(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("from-rep",
                        help="invariants from a representation file")
    sp.add_argument("diagram")
    sp.add_argument("rep", help="JSON file with generator matrices")
    sp.add_argument("--filling", help="slopes r/s,r/s,inf per component "
                                      "(default: all unfilled)")
    sp.add_argument("--seedV", help="pinned seed vector \"a+bi,c+di\"")
    sp.add_argument("--W", help="pinned auxiliary vector \"a+bi,c+di\"")
    sp.add_argument("--seed-region", type=int,
                    help="1-based region carrying the seed vector")
    common(sp, rng=True, tol=1e-3)
    sp.set_defaults(fn=cmd_from_rep)

    sp = sub.add_parser("solve", help="multi-start numerical solve")
    sp.add_argument("diagram")
    sp.add_argument("--m", help="meridian eigenvalues a+bi, comma-separated")
    sp.add_argument("--filling", help="slopes r/s,r/s,inf per component; "
                                      "solutions off the filling are left "
                                      "out")
    sp.add_argument("--seeds", type=int, default=64,
                    help="number of random starts (default 64)")
    common(sp, rng=True, tol=None)
    sp.add_argument("--tol", type=float, default=None,
                    help="Newton residual tolerance (default 1e-10)")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("verify", help="re-check a solution file")
    sp.add_argument("diagram")
    sp.add_argument("solutions", help="JSON from solve/from-rep, or a "
                                      "single solution object")
    sp.add_argument("filling_file", nargs="?", default=None,
                    help="optional filling JSON (default: taken from the "
                         "solution file when present)")
    common(sp, tol=1e-3)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("selftest", help="built-in reproduction suite")
    common(sp)
    sp.set_defaults(fn=cmd_selftest)
    return p


_INPUT_ERRORS = (InputError, diagram.DiagramError,
                 representation.RepresentationFormatError)
_VERIFY_ERRORS = (potential.PotentialError,
                  representation.RepresentationError, coloring.ColoringError,
                  engine.EngineError)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not 0 < tol < math.inf:
            raise InputError(f"--tol must be finite and positive, got "
                             f"{tol:g}")
        if getattr(args, "rng_seed", 0) < 0:
            raise InputError(f"--rng-seed must not be negative, got "
                             f"{args.rng_seed}")
        if args.json is not None:
            _check_report_path(args.json)
        code, doc = args.fn(args)
        _write_report(args, doc)
        return code
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _VERIFY_ERRORS as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
