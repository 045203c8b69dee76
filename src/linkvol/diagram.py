"""Oriented link diagram combinatorics from PD codes.

A PD code lists each crossing as X[a,b,c,d]: the four arc labels met
counterclockwise starting at the incoming under-strand. Arc labels are
positive integers, consecutive along each component's orientation (with a
single wrap from the component's highest label back to its lowest).

From that we derive everything downstream modules need: strand successors,
components, crossing signs, the regions (faces) with a deterministic
enumeration, the four region labels and two component labels attached to
every crossing, over-/under-arc decompositions, a Wirtinger presentation,
meridian choices, writhes, and canonical longitude words.
"""

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass


class DiagramError(ValueError):
    pass


# Around a crossing the four rays are numbered 0..3 counterclockwise from
# the incoming under-strand, and quadrant q sits counterclockwise between
# rays q and q+1. These tuples say which quadrant carries each of the four
# region labels (j, k, l, m) used by the potential function, per crossing
# sign. The placement cannot be derived from the strand combinatorics
# alone; it is pinned by requiring the internal octahedron identities and
# the bundled reference examples to come out right (see tests).
PLACEMENT_POS = (3, 0, 1, 2)
PLACEMENT_NEG = (0, 3, 2, 1)

# Global exponent conventions, pinned the same way: the Wirtinger relation
# at a crossing of sign s reads  g_out = g_over^(EPS*s) g_in g_over^(-EPS*s),
# and each under-passage of sign s contributes g_over^(LONG_EXP*s) to the
# blackboard-framed longitude.
WIRTINGER_EPS = -1
LONG_EXP = 1


@dataclass
class PDCode:
    crossings: list
    # (component index, generator name) pairs from a JSON "meridians"
    meridian_overrides: list = ()


@dataclass
class Word:
    """A word in Wirtinger generators: sequence of (generator index, ±1)."""

    letters: tuple

    def __str__(self):
        if not self.letters:
            return "1"
        parts = []
        for g, e in self.letters:
            parts.append(f"g{g + 1}" if e == 1 else f"g{g + 1}^{e}")
        return " ".join(parts)


@dataclass
class Crossing:
    sign: int
    regions: tuple  # (j, k, l, m) region indices
    alpha: int      # under-strand component
    beta: int       # over-strand component
    in_gen: int     # generator of the arc entering underneath
    out_gen: int    # generator of the arc leaving underneath
    over_gen: int   # generator of the arc passing over


@dataclass
class LinkDiagram:
    crossings: list
    n_regions: int
    n_components: int
    components: list       # per component, its edge cycle starting at min label
    comp_of: dict          # edge -> component index
    succ: dict             # edge -> next edge along orientation
    head: dict             # edge -> (crossing index, ray position) where it ends
    tail: dict             # edge -> (crossing index, ray position) where it starts
    over_arcs: list        # per generator, list of edges
    under_arcs: list
    overarc_of: dict       # edge -> generator index
    left_region: dict      # edge -> region index on its left
    right_region: dict
    meridian_gen: list     # per component, chosen meridian generator index
    writhes: list

    @property
    def n_crossings(self):
        return len(self.crossings)

    def summary(self):
        h = self.n_components
        comp = "1 component" if h == 1 else f"{h} components"
        return (f"n={self.n_regions} regions, {self.n_crossings} crossings, "
                f"{comp}")


# a label past int()'s 4300 digits is no match
_X_RE = re.compile(r"X\[\s*(\d{1,4300})\s*,\s*(\d{1,4300})\s*,"
                   r"\s*(\d{1,4300})\s*,\s*(\d{1,4300})\s*\]")
# a component number is ASCII decimal, and as for a label, one past
# int()'s 4300 digits is none
_COMPONENT_RE = re.compile(r"[0-9]{1,4300}")
# a generator name of ten digits or more is none that a diagram has
_GENERATOR_RE = re.compile(r"g([0-9]{1,9})")


def generator_index(name):
    """The 0-based index that a generator name "g<k>" stands for, k of one
    to nine ASCII digits; None for any other value."""
    m = isinstance(name, str) and _GENERATOR_RE.fullmatch(name)
    return int(m.group(1)) - 1 if m else None


def _parse_compact(text):
    crossings = []
    for ln, line in enumerate(text.splitlines(), 1):
        col = 0
        end = len(line)
        while col < end:
            ch = line[col]
            if ch.isspace() or ch == ",":
                col += 1
                continue
            if ch == "#":
                break
            m = _X_RE.match(line, col)
            if m is None:
                raise DiagramError(
                    f"syntax error at line {ln}, column {col + 1}: "
                    f"expected X[a,b,c,d]")
            crossings.append(tuple(int(g) for g in m.groups()))
            col = m.end()
    return crossings


class RepeatedKeyError(ValueError):
    """A JSON object names one key twice."""


def _object(pairs):
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items()
                   if n > 1)
        raise RepeatedKeyError(f"object key {json.dumps(key)} is repeated")
    return doc


# one decoder for every document (json.loads with an object_pairs_hook
# would build a new one per call)
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def parse_json(text):
    """json.loads, except that an object that repeats a key fails with a
    RepeatedKeyError, and an integer too long to convert with a ValueError
    that says so."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except (json.JSONDecodeError, RepeatedKeyError):
        raise
    except ValueError:
        # the one other ValueError: int() refuses more digits than
        # sys.get_int_max_str_digits(), with advice to raise that limit,
        # which no linkvol option can act on
        raise ValueError(f"an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def parse_pd(text):
    """Parse PD text, either compact `X[a,b,c,d] ...` or the JSON form
    {"pd": [[a,b,c,d], ...], "meridians": ...}."""
    s = text.strip()
    overrides = ()
    if s.startswith(("{", "\ufeff")):   # parse_json rejects a BOM
        try:
            doc = parse_json(s)
        except json.JSONDecodeError as exc:
            raise DiagramError(
                f"syntax error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            # an integer past int()'s 4300 digits, or too deep a nesting
            raise DiagramError(f"unreadable JSON diagram: {exc}") from None
        crossings = doc.get("pd")
        if not (isinstance(crossings, list) and all(
                isinstance(row, list) and len(row) == 4
                and all(type(x) is int for x in row) for row in crossings)):
            raise DiagramError("JSON diagram needs a 'pd' list of crossings, "
                               "each a list of 4 integer arc labels")
        crossings = [tuple(row) for row in crossings]
        ov = doc.get("meridians")
        if isinstance(ov, list):
            overrides = list(enumerate(ov))
        elif isinstance(ov, dict) and all(map(_COMPONENT_RE.fullmatch, ov)):
            overrides = [(int(k) - 1, v) for k, v in ov.items()]
            twice = [i for i, n in Counter(i for i, _ in overrides).items()
                     if n > 1]
            if twice:
                raise DiagramError(f"'meridians' names component "
                                   f"{twice[0] + 1} twice")
        elif ov is not None:
            raise DiagramError("'meridians' must be a list, or an object "
                               "keyed by component numbers")
    else:
        crossings = _parse_compact(text)
    if not crossings:
        raise DiagramError("empty diagram")
    for t in crossings:
        for e in t:
            if e < 1:
                raise DiagramError(f"arc labels must be positive, got {e}")
    counts = Counter(e for t in crossings for e in t)
    for e in sorted(counts):
        if counts[e] != 2:
            raise DiagramError(
                f"arc label count ≠ 2: arc {e} appears {counts[e]} time(s)")
    return PDCode(crossings, overrides)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def build_diagram(pd):
    cr = pd.crossings
    nc = len(cr)

    occ = {}
    for ci, t in enumerate(cr):
        for pos, e in enumerate(t):
            occ.setdefault(e, []).append((ci, pos))

    # Give every crossing slot a polarity: +1 where its arc runs into the
    # crossing (the arc's head), -1 where it runs out (its tail). The
    # under slots 0 and 2 are fixed by the PD convention. One breadth-first
    # pass from them orients the rest, since an arc's two slots, and a
    # crossing's two over slots 1 and 3, have opposite polarities.
    pol = [[1, 0, -1, 0] for _ in cr]
    work = [(ci, pos) for ci in range(nc) for pos in (0, 2)]
    for ci, pos in work:  # work grows while it is read
        links = [s for s in occ[cr[ci][pos]] if s != (ci, pos)]
        if pos % 2:
            links.append((ci, 4 - pos))
        for cj, pq in links:
            if pol[cj][pq] == 0:
                pol[cj][pq] = -pol[ci][pos]
                work.append((cj, pq))
            elif pol[cj][pq] == pol[ci][pos]:
                raise DiagramError(
                    "invalid PD: inconsistent arc orientations")

    # the pass leaves a crossing's over slots unset only when its
    # over-strand belongs to a component that passes over everywhere
    for ci in range(nc):
        if pol[ci][1] == 0:
            raise DiagramError(
                f"component without under-passing crossing (it passes over "
                f"at crossing {ci + 1}); apply a Reidemeister move to the "
                f"diagram")

    # Every arc now has one head slot and one tail slot, and every crossing
    # two of each. An arc leaves its head's crossing through the opposite
    # slot, so succ is a permutation of the arcs.
    head, tail, succ = {}, {}, {}
    for ci, t in enumerate(cr):
        for pos, e in enumerate(t):
            if pol[ci][pos] == 1:
                head[e] = (ci, pos)
                succ[e] = t[(pos + 2) % 4]
            else:
                tail[e] = (ci, pos)

    # each component is one cycle of succ, walked from its lowest label
    edges = sorted(occ)
    comp_of = {}
    components = []
    for e in edges:
        if e in comp_of:
            continue
        cyc = [e]
        while succ[cyc[-1]] != e:
            cyc.append(succ[cyc[-1]])
        if cyc != list(range(e, e + len(cyc))):
            raise DiagramError(
                f"arc labels not consecutive along the component "
                f"containing arc {e}")
        for x in cyc:
            comp_of[x] = len(components)
        components.append(cyc)
    h = len(components)

    # (a component that never passes under was rejected above)
    has_over = [False] * h
    for t in cr:
        has_over[comp_of[t[1]]] = True
    for i in range(h):
        if not has_over[i]:
            raise DiagramError(
                f"component {i + 1} without over-passing crossing; apply a "
                f"Reidemeister move to the diagram")

    # the crossings an arc joins are connected; a class's root is its
    # least member, so the diagram is connected iff every root is 0
    joined = _UnionFind(nc)
    for (c1, _), (c2, _) in occ.values():
        joined.union(c1, c2)
    if any(joined.find(ci) for ci in range(nc)):
        raise DiagramError("disconnected diagram: unsupported")

    # Faces: quadrant q of crossing ci is node 4*ci + q. Walking an arc from
    # its tail to its head, the face on its left joins the tail's quadrant
    # at the outgoing ray with the head's quadrant clockwise of the
    # incoming ray, and symmetrically on the right.
    uf = _UnionFind(4 * nc)
    for e in edges:
        ct, pt = tail[e]
        ch, ph = head[e]
        uf.union(4 * ct + pt, 4 * ch + (ph + 3) % 4)
        uf.union(4 * ct + (pt + 3) % 4, 4 * ch + ph)
    # regions are numbered in the order of their least nodes, the roots
    region = {}
    region_of_node = [region.setdefault(uf.find(node), len(region))
                      for node in range(4 * nc)]
    n_regions = len(region)
    if n_regions != nc + 2:
        raise DiagramError(
            f"face count mismatch: got {n_regions} regions for {nc} "
            f"crossings (expected {nc + 2}); the PD code does not describe "
            f"a planar diagram")

    left_region = {}
    right_region = {}
    for e in edges:
        ct, pt = tail[e]
        left_region[e] = region_of_node[4 * ct + pt]
        right_region[e] = region_of_node[4 * ct + (pt + 3) % 4]

    def strands(starts, ends_under):
        # from each start, follow succ up to the arc whose head is an
        # under slot (ends_under) or an over slot
        arcs = []
        for x in starts:
            arc = [x]
            while (head[x][1] == 0) != ends_under:
                x = succ[x]
                arc.append(x)
            arcs.append(arc)
        arcs.sort(key=lambda arc: (comp_of[arc[0]], arc[0]))
        return arcs

    # over-arcs run from each crossing's under-out arc until the strand
    # next dives under, under-arcs from its over-out arc until the strand
    # next passes over
    over_arcs = strands([t[2] for t in cr], True)
    under_arcs = strands([t[1] if pol[ci][1] == -1 else t[3]
                          for ci, t in enumerate(cr)], False)
    overarc_of = {e: gi for gi, arc in enumerate(over_arcs) for e in arc}

    # by default a component's meridian is its first over-arc
    meridian_gen = []
    for gi, arc in enumerate(over_arcs):
        if comp_of[arc[0]] == len(meridian_gen):
            meridian_gen.append(gi)
    for i, name in pd.meridian_overrides:
        if name is None:
            continue
        if not (0 <= i < h):
            raise DiagramError(f"meridian override for component "
                               f"{i + 1}: no such component")
        gi = generator_index(name)
        if gi is None:
            raise DiagramError(f"bad generator name {name!r}")
        if not (0 <= gi < len(over_arcs)):
            raise DiagramError(f"no generator named {name}")
        if comp_of[over_arcs[gi][0]] != i:
            raise DiagramError(
                f"generator {name} is not on component {i + 1}")
        meridian_gen[i] = gi

    writhes = [0] * h
    crossings = []
    for ci, (a, b, c, _) in enumerate(cr):
        s = -pol[ci][1]
        alpha, beta = comp_of[a], comp_of[b]
        if alpha == beta:
            writhes[alpha] += s
        placement = PLACEMENT_POS if s == 1 else PLACEMENT_NEG
        crossings.append(Crossing(
            sign=s,
            regions=tuple(region_of_node[4 * ci + q] for q in placement),
            alpha=alpha, beta=beta, in_gen=overarc_of[a],
            out_gen=overarc_of[c], over_gen=overarc_of[b]))

    return LinkDiagram(
        crossings=crossings, n_regions=n_regions, n_components=h,
        components=components, comp_of=comp_of, succ=succ, head=head,
        tail=tail, over_arcs=over_arcs, under_arcs=under_arcs,
        overarc_of=overarc_of,
        left_region=left_region, right_region=right_region,
        meridian_gen=meridian_gen, writhes=writhes)


def load_diagram(text):
    return build_diagram(parse_pd(text))


def wirtinger(d):
    """One conjugation relation per crossing over the over-arc generators
    (one per entry of d.over_arcs): (out_gen, over_gen, in_gen, eps) with
    eps = ±1."""
    return [(x.out_gen, x.over_gen, x.in_gen, WIRTINGER_EPS * x.sign)
            for x in d.crossings]


def longitude_word(d, i):
    """Canonical (null-homologous) longitude of component i.

    Blackboard letters are collected while traversing the component from
    the start of its meridian arc, one per under-passage, then the framing
    is corrected by meridian^(-writhe).
    """
    if not (0 <= i < d.n_components):
        raise DiagramError(f"no component {i + 1}")
    mu = d.meridian_gen[i]
    start = d.over_arcs[mu][0]
    letters = []
    x = start
    for _ in range(len(d.components[i])):
        ch, ph = d.head[x]
        if ph == 0:
            cx = d.crossings[ch]
            letters.append((cx.over_gen, LONG_EXP * cx.sign))
        x = d.succ[x]
    w = d.writhes[i]
    step = -1 if w > 0 else 1
    letters.extend((mu, step) for _ in range(abs(w)))
    return Word(tuple(letters))
