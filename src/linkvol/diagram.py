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
from collections import Counter, deque
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
    index: int
    sign: int
    a: int
    b: int
    c: int
    d: int
    regions: tuple  # (j, k, l, m) region indices
    alpha: int      # under-strand component
    beta: int       # over-strand component
    in_gen: int     # generator of the arc entering underneath
    out_gen: int    # generator of the arc leaving underneath
    over_gen: int   # generator of the arc passing over


@dataclass
class Presentation:
    n_generators: int
    relations: list  # (out_gen, over_gen, in_gen, eps) with eps = ±1


@dataclass
class LinkDiagram:
    pd: PDCode
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


def parse_json(text):
    """json.loads, except that an integer too long to convert fails with
    a ValueError that says so."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
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
    if s[:1] == "{":
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
        elif isinstance(ov, dict) and all(k.isdecimal() for k in ov):
            overrides = [(int(k) - 1, v) for k, v in ov.items()]
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
    if nc == 0:
        raise DiagramError(
            "component without over-passing crossing: the diagram has no "
            "crossings; apply Reidemeister moves to introduce one")

    occ = {}
    for ci, t in enumerate(cr):
        for pos, e in enumerate(t):
            occ.setdefault(e, []).append((ci, pos))

    # Assign a polarity to every crossing slot: +1 if the arc's head is
    # there (it runs into the crossing), -1 for a tail. Under-strand slots
    # are fixed by the PD convention; over-strand slots follow by "each arc
    # has one head and one tail" propagation, which also determines the
    # over-strand direction at every crossing whose over-strand passes
    # under somewhere.
    pol = {}
    overdir = {}  # crossing -> "bd" (over runs b→d) or "db"
    work = deque()

    def set_pol(ci, pos, p):
        key = (ci, pos)
        if key in pol:
            if pol[key] != p:
                raise DiagramError(
                    "invalid PD: inconsistent arc orientations")
            return
        pol[key] = p
        work.append(key)
        if pos in (1, 3):
            b_is_head = (pos == 1 and p == 1) or (pos == 3 and p == -1)
            direction = "bd" if b_is_head else "db"
            prev = overdir.get(ci)
            if prev is not None and prev != direction:
                raise DiagramError(
                    "invalid PD: inconsistent arc orientations")
            overdir[ci] = direction
            other = 3 if pos == 1 else 1
            set_pol(ci, other, -p)

    for ci in range(nc):
        set_pol(ci, 0, 1)
        set_pol(ci, 2, -1)
    while work:
        ci, pos = work.popleft()
        e = cr[ci][pos]
        for cj, pq in occ[e]:
            if (cj, pq) != (ci, pos):
                set_pol(cj, pq, -pol[(ci, pos)])

    # propagation leaves a crossing unoriented only when its over-strand
    # belongs to a component that passes over everywhere
    for ci in range(nc):
        if ci not in overdir:
            raise DiagramError(
                f"component without under-passing crossing (it passes over "
                f"at crossing {ci + 1}); apply a Reidemeister move to the "
                f"diagram")

    succ = {}
    for ci, (a, b, c, d) in enumerate(cr):
        pairs = [(a, c), (b, d) if overdir[ci] == "bd" else (d, b)]
        for x, y in pairs:
            if x in succ:
                raise DiagramError(f"invalid PD: arc {x} has two successors")
            succ[x] = y
    edges = sorted(occ)
    if sorted(succ) != edges or sorted(succ.values()) != edges:
        raise DiagramError("invalid PD: arcs do not close up into strands")

    comp_of = {}
    components = []
    for e in edges:
        if e in comp_of:
            continue
        idx = len(components)
        cyc = [e]
        comp_of[e] = idx
        x = succ[e]
        while x != e:
            if x in comp_of:
                raise DiagramError("invalid PD: arcs do not close up")
            comp_of[x] = idx
            cyc.append(x)
            x = succ[x]
        if cyc != list(range(e, e + len(cyc))):
            raise DiagramError(
                f"arc labels not consecutive along the component "
                f"containing arc {e}")
        components.append(cyc)
    h = len(components)

    # (a component that never passes under was rejected above)
    has_over = [False] * h
    for ci, (a, b, c, d) in enumerate(cr):
        has_over[comp_of[b]] = True
    for i in range(h):
        if not has_over[i]:
            raise DiagramError(
                f"component {i + 1} without over-passing crossing; apply a "
                f"Reidemeister move to the diagram")

    adj = {ci: set() for ci in range(nc)}
    for e, occs in occ.items():
        (c1, _), (c2, _) = occs
        adj[c1].add(c2)
        adj[c2].add(c1)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != nc:
        raise DiagramError("disconnected diagram: unsupported")

    head = {}
    tail = {}
    for (ci, pos), p in pol.items():
        e = cr[ci][pos]
        if p == 1:
            head[e] = (ci, pos)
        else:
            tail[e] = (ci, pos)

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
    roots = {}
    for node in range(4 * nc):
        roots.setdefault(uf.find(node), []).append(node)
    region_of_node = {}
    for r, (root, members) in enumerate(sorted(roots.items())):
        for node in members:
            region_of_node[node] = r
    n_regions = len(roots)
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

    # over-arcs: from each crossing's under-out arc, follow the strand over
    # crossings until it next dives under
    over_arcs = []
    for ci in range(nc):
        s = cr[ci][2]
        arc = [s]
        x = s
        while True:
            ch, ph = head[x]
            if ph == 0:
                break
            x = succ[x]
            arc.append(x)
        over_arcs.append(arc)
    over_arcs.sort(key=lambda arc: (comp_of[arc[0]], arc[0]))
    overarc_of = {}
    for gi, arc in enumerate(over_arcs):
        for e in arc:
            overarc_of[e] = gi

    # under-arcs: from each crossing's over-out arc until the strand next
    # passes over
    under_arcs = []
    for ci in range(nc):
        s = cr[ci][3] if overdir[ci] == "bd" else cr[ci][1]
        arc = [s]
        x = s
        while True:
            ch, ph = head[x]
            if ph != 0:
                break
            x = succ[x]
            arc.append(x)
        under_arcs.append(arc)
    under_arcs.sort(key=lambda arc: (comp_of[arc[0]], arc[0]))

    meridian_gen = []
    for i in range(h):
        gens = sorted(gi for gi, arc in enumerate(over_arcs)
                      if comp_of[arc[0]] == i)
        meridian_gen.append(gens[0])
    for i, name in pd.meridian_overrides:
        if name is None:
            continue
        if not (0 <= i < h):
            raise DiagramError(f"meridian override for component "
                               f"{i + 1}: no such component")
        m = re.fullmatch(r"g(\d+)", str(name))
        if not m:
            raise DiagramError(f"bad generator name {name!r}")
        gi = int(m.group(1)) - 1
        if not (0 <= gi < len(over_arcs)):
            raise DiagramError(f"no generator named {name}")
        if comp_of[over_arcs[gi][0]] != i:
            raise DiagramError(
                f"generator {name} is not on component {i + 1}")
        meridian_gen[i] = gi

    writhes = [0] * h
    signs = {}
    for ci, (a, b, c, d) in enumerate(cr):
        s = 1 if overdir[ci] == "db" else -1
        signs[ci] = s
        if comp_of[a] == comp_of[b]:
            writhes[comp_of[a]] += s

    crossings = []
    for ci, (a, b, c, d) in enumerate(cr):
        s = signs[ci]
        placement = PLACEMENT_POS if s == 1 else PLACEMENT_NEG
        qreg = [region_of_node[4 * ci + q] for q in range(4)]
        regions = tuple(qreg[q] for q in placement)
        crossings.append(Crossing(
            index=ci, sign=s, a=a, b=b, c=c, d=d, regions=regions,
            alpha=comp_of[a], beta=comp_of[b],
            in_gen=overarc_of[a], out_gen=overarc_of[c],
            over_gen=overarc_of[b]))

    return LinkDiagram(
        pd=pd, crossings=crossings, n_regions=n_regions, n_components=h,
        components=components, comp_of=comp_of, succ=succ, head=head,
        tail=tail, over_arcs=over_arcs, under_arcs=under_arcs,
        overarc_of=overarc_of,
        left_region=left_region, right_region=right_region,
        meridian_gen=meridian_gen, writhes=writhes)


def load_diagram(text):
    return build_diagram(parse_pd(text))


def wirtinger(d):
    """One conjugation relation per crossing over the over-arc generators."""
    relations = []
    for x in d.crossings:
        relations.append((x.out_gen, x.over_gen, x.in_gen,
                          WIRTINGER_EPS * x.sign))
    return Presentation(n_generators=len(d.over_arcs), relations=relations)


def writhe(d, i):
    return d.writhes[i]


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
