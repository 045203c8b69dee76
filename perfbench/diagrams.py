"""PD codes generated for the benchmark: braid closures and T(2, n).

PD convention (the one ``linkvol.diagram.load_diagram`` reads): each
crossing ``X[a,b,c,d]`` lists its four edges counterclockwise, starting at
the incoming under-edge, and edge labels run consecutively along each
component, wrapping from its highest label back to its lowest.
"""


def format_pd(crossings):
    return " ".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in crossings)


def braid_closure_pd(n_strands, word):
    """PD code of the closure of a braid on ``n_strands`` strands.

    ``word`` lists generators as signed 1-based indices: ``+i`` is sigma_i,
    ``-i`` its inverse. Strands run upwards; at sigma_i the strand coming
    from the left passes over, which makes the crossing positive.
    """
    next_id = n_strands
    bottom = list(range(n_strands))
    pos = list(bottom)
    raw = []           # crossings in temporary edge ids
    succ = {}          # temporary edge id -> next edge along its strand
    for g in word:
        p = abs(g) - 1
        if not 0 <= p < n_strands - 1:
            raise ValueError(f"generator {g} needs more than {n_strands} "
                             f"strands")
        lb, rb = pos[p], pos[p + 1]
        lt, rt = next_id, next_id + 1
        next_id += 2
        # counterclockwise from the incoming under-edge
        raw.append((rb, rt, lt, lb) if g > 0 else (lb, rb, rt, lt))
        succ[lb], succ[rb] = rt, lt
        pos[p], pos[p + 1] = lt, rt
    # closing the braid identifies each top edge with the bottom edge below
    ident = {}
    for p in range(n_strands):
        if pos[p] == bottom[p]:
            raise ValueError(f"strand {p + 1} has no crossing")
        ident[pos[p]] = bottom[p]

    def canon(e):
        return ident.get(e, e)

    succ = {canon(a): canon(b) for a, b in succ.items()}
    label = {}
    for start in sorted(succ):
        if start in label:
            continue
        e = start
        while e not in label:
            label[e] = len(label) + 1
            e = succ[e]
    return format_pd(tuple(label[canon(e)] for e in x) for x in raw)


def torus_2n_pd(n):
    """PD code of the torus knot T(2, n), n odd:
    X[2i-1, 2i+n-1, 2i, 2i+n] with labels taken mod 2n into 1..2n.
    (For even n these labels do not run consecutively along the two
    components.)"""
    if n < 3 or n % 2 == 0:
        raise ValueError("T(2, n) needs an odd n >= 3")

    def lab(k):
        return (k - 1) % (2 * n) + 1

    return format_pd((lab(2 * i - 1), lab(2 * i + n - 1), lab(2 * i),
                      lab(2 * i + n)) for i in range(1, n + 1))
