"""Bounded exhaustive enumeration of normal surfaces and meridian discs.

The enumerator fixes one quad type (or none) per tetrahedron and solves the
matching equations tetrahedron by tetrahedron instead of scanning for their
solutions.  Every equation is an equality with an offset, tri[b] = tri[a] +
off, where off is a multiple of the quad count; an equation across a face
glued to an earlier tetrahedron has a known side.  Each equation is
propagated as soon as one side is known, so a contradiction prunes the
branch at once; two equations that reach the same coordinate pin the quad
count, which is scanned only when nothing pins it.  Each tetrahedron is
placed glued to an earlier one where it can be (``_placement``), and keeps
its own label: "earlier" means placed earlier, and each placed row is
written at its tetrahedron's label.  On layered triangulations a
tetrahedron is glued down along two faces, so its coordinates are forced
and the search is close to linear.
Output order is deterministic and budget monotone: vectors sorted by
(piece count, coordinates), so a run with a larger budget streams the
smaller run as a prefix.

A branch is cut once its pieces plus a floor on the later tetrahedra's
pass the budget (``_piece_floor``).  A triangle meets three faces of its
tetrahedron and a quad four, each in one arc, so a tetrahedron has at least
as many pieces as any of its faces has arcs; face f of a placed row carries
pieces - row[f] arcs, as does the face glued to it.  Raising a free class
adds its size to the pieces and at most 1 to any coordinate, so the floor
never falls as the class rises.

A minimal meridian disc is looked for first without enumerating: where
every edge is a loop, the vector that meets each edge as often as its class
in H1(M) = Z says it must is the unique minimum if it is a disc
(``minimal_complexity_disc``).

Budgets never masquerade as proofs: every report distinguishes a failed
check from an inconclusive search.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .homology import first_homology, loop_cuts
from .layered import family
from .normal import (ARC_COORDS, QUAD_CROSSES, QUAD_CUT, NormalVector, check_matching,
                     count_euler, edge_weight, reconstruct, row_of_crossings)
from .slopes import at_least_golden_power, fib, min_pre_core_intersection, slope_seq
from .triangulation import FACE_VERTICES


@dataclass(frozen=True)
class SearchBudget:
    max_piece_count: int
    max_weight: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        if self.max_piece_count < 0:
            raise ValueError("piece budget must be nonnegative")
        if self.max_weight is not None and self.max_weight < 0:
            raise ValueError("weight budget must be nonnegative")
        if self.time_limit is not None and not self.time_limit >= 0:   # NaN too
            raise ValueError("time limit must be nonnegative")


class BudgetExhausted(Exception):
    """A budget ran out.  Raised from ``enumerate_admissible``, ``found``
    holds the vectors admitted before it did."""
    found = ()


def _vector_order(v):
    return v.piece_count(), v.coords


def enumerate_admissible(tri, budget: SearchBudget):
    """All admissible matching vectors within the budget, exactly once,
    sorted by (piece count, coordinates).

    When the time limit stops the walk, the BudgetExhausted raised carries
    the vectors admitted so far, sorted the same way."""
    found = []
    try:
        for v in _enumerate_raw(tri, budget):
            found.append(v)
    except BudgetExhausted as e:
        e.found = sorted(found, key=_vector_order)
        raise
    found.sort(key=_vector_order)
    return found


@dataclass(slots=True)
class _TetPlan:
    """The matching equations of one tetrahedron under one quad type, solved
    for its triangle coordinates.

    targets[k] are the arc counts of the earlier tetrahedra across its
    glued-down faces, each the sum of one triangle and one quad coordinate
    of an earlier row; one extra last slot reads 0.  Triangle coordinate v
    starts at targets[k] + c * qcount for its term (k, c): a forced
    coordinate keeps that value, and a coordinate of a free class starts at
    the least value that keeps the whole class nonnegative.  ``checks`` are
    pairs of targets that must agree; ``pins`` are (k, j, m) with
    targets[k] - targets[j] = m * qcount.  Each free class is (members,
    size, weight): raising it by one adds one to each member coordinate.
    """
    qtype: int | None
    terms: tuple              # (k, c) per triangle coordinate
    checks: list              # (k, j)
    pins: list                # (k, j, m)
    classes: list             # (members, size, weight)
    quad_weight: int          # first-slot edges the quad crosses


def _plans(tri, order):
    """Per tetrahedron: where its targets are read in the rows placed before
    it (``order``), the weight coefficient of each triangle coordinate, and
    one plan per quad type, one list shared by the tetrahedra glued alike
    (tets 1..i of T_i)."""
    pos = {t: k for k, t in enumerate(order)}
    # every slot of an edge class sees all of its crossings, so the class
    # weight is counted once, at its first placed slot: prune on weight early
    first_slots = [[] for _ in range(tri.tet_count)]
    for ec in tri.edge_classes:
        t, e = min(ec.slots, key=lambda slot: (pos[slot[0]], slot[1]))
        first_slots[t].append(e)
    out, shared = [], {}
    for t in range(tri.tet_count):
        sources = []          # per target: (t_prev, triangle index, quad index)
        cross = []            # (f_here, vtx, k)
        selfs = []            # (f1, vtx, f2, perm[vtx])
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                continue
            t2, perm = g
            if pos[t2] < pos[t]:
                for vtx in FACE_VERTICES[f]:
                    cross.append((f, vtx, len(sources)))
                    sources.append((t2, *ARC_COORDS[perm[f]][perm[vtx]]))
            elif t2 == t and perm[f] > f:
                selfs += [(f, vtx, perm[f], perm[vtx]) for vtx in FACE_VERTICES[f]]
        wcoef = [sum(v in e for e in first_slots[t]) for v in range(4)]
        key = (tuple(cross), tuple(selfs), tuple(sorted(first_slots[t])))
        if key not in shared:
            shared[key] = [_plan(qt, cross, selfs, first_slots[t], wcoef, len(sources))
                           for qt in (None, 0, 1, 2)]
        out.append((sources, wcoef, shared[key]))
    return out


def _plan(qt, cross, selfs, first_slots, wcoef, zero):
    def cut(f, vtx):
        return int(qt is not None and QUAD_CUT[qt][f] == vtx)

    # edges x -> y with value(y) = value(x) + targets[k] + c * qcount, where
    # node 4 is the constant 0 and k is the zero slot on a self-gluing
    # equation
    adj = {x: [] for x in range(5)}
    for f, vtx, k in cross:
        adj[4].append((vtx, k, -cut(f, vtx)))
    for f1, v1, f2, v2 in selfs:
        c = cut(f1, v1) - cut(f2, v2)
        adj[v1].append((v2, zero, c))
        adj[v2].append((v1, zero, -c))
    form = {}                 # node -> (target index, c)
    terms = [None] * 4
    checks, pins, classes = [], [], []
    for root in (4, 0, 1, 2, 3):
        if root in form or (root == 4 and not adj[4]):
            continue
        form[root] = (zero, 0)
        members = []
        queue = [root]
        while queue:
            x = queue.pop(0)
            kx, cx = form[x]
            if x != 4:
                members.append((x, cx))
            for y, k, c in adj[x]:
                want = (kx if k == zero else k, cx + c)
                if y not in form:
                    form[y] = want
                    queue.append(y)
                    continue
                # a second equation reaching y: targets[ky] + cy * qcount
                # = targets[want[0]] + want[1] * qcount
                (ky, cy), (kw, cw) = form[y], want
                if cw == cy and kw != ky:
                    checks.append((ky, kw))
                elif cw != cy:
                    pins.append((ky, kw, cw - cy))
        if root == 4:
            for v, _ in members:
                terms[v] = form[v]
        else:
            # the representative (c = 0) is a member, so the least value
            # lo * qcount is >= 0
            lo = max(-c for _, c in members)
            for v, c in members:
                terms[v] = (zero, lo + c)
            vs = tuple(v for v, _ in members)
            classes.append((vs, len(vs), sum(wcoef[v] for v in vs)))
    quad_weight = 0 if qt is None else sum(e in QUAD_CROSSES[qt] for e in first_slots)
    return _TetPlan(qt, tuple(terms), checks, pins, classes, quad_weight)


def _frontiers(tri, order):
    """Per depth k, per later tetrahedron s glued to one of order[:k + 1]:
    the faces (tp, f) of the tetrahedra placed before order[k] that are
    glued to s, and the faces f of order[k] glued to s."""
    g = tri.gluings
    pos = {t: k for k, t in enumerate(order)}
    below = {s: [(tp, f) for tp in order[:pos[s]] for f in range(4)
                 if g[tp][f] and g[tp][f][0] == s] for s in order}
    return [[(tuple((tp, f) for tp, f in faces if pos[tp] < k),
              tuple(f for tp, f in faces if tp == t))
             for faces in map(below.get, order[k + 1:]) if faces and pos[faces[0][0]] <= k]
            for k, t in enumerate(order)]


def _floor_terms(frontier, rows, pieces):
    """Per entry of a frontier: the most arcs on its faces (tp, f) of placed
    tetrahedra, rows[tp] having pieces[tp] pieces, and its faces f."""
    return [(max([pieces[tp] - rows[tp][f] for tp, f in placed]) if placed else 0, here)
            for placed, here in frontier]


def _piece_floor(terms, row, pieces):
    """The fewest pieces the later tetrahedra of ``terms`` can have once tet
    t has this row (its triangle coordinates suffice) of that many pieces."""
    floor = 0
    for most, here in terms:          # most: the arcs on its faces glued to earlier rows
        for f in here:
            if pieces - row[f] > most:
                most = pieces - row[f]
        floor += most
    return floor


def _placement(tri):
    """The order the tetrahedra are placed in: from tet 0, each next one the
    least-labelled unplaced tetrahedron glued to a placed one, and a new
    component from its least label.  Each keeps its own label; only "earlier"
    means earlier in this order.  The identity where each tetrahedron is
    glued to an earlier one (T_i and every named table)."""
    order, reached = [], set()
    while len(order) < tri.tet_count:
        t = min(reached or set(range(tri.tet_count)).difference(order))
        order.append(t)
        reached = (reached | {g[0] for g in tri.gluings[t] if g is not None}).difference(order)
    return order


def _enumerate_raw(tri, budget):
    deadline = None
    if budget.time_limit is not None:
        deadline = time.monotonic() + budget.time_limit
    n = tri.tet_count
    if n == 0:
        return
    order = _placement(tri)
    plans = _plans(tri, order)
    frontiers = _frontiers(tri, order)
    max_weight = budget.max_weight
    rows, row_pieces = [None] * n, [0] * n     # the placed rows and their piece counts, by label

    def check_deadline():
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExhausted("time limit reached")

    def fill(out, classes, i, vals, quad, pieces, weight, piece_left, weight_left, terms):
        """Extend vals by the free classes from i on, each from its least
        value up while the budgets and the floor hold; pieces and weight
        count vals with those classes at their least values, within both."""
        if i == len(classes):
            out.append((tuple(vals) + quad, pieces, weight))
            return
        members, size, class_weight = classes[i]
        steps = 0
        while True:
            fill(out, classes, i + 1, vals, quad, pieces, weight, piece_left, weight_left, terms)
            pieces += size
            weight += class_weight
            for v in members:
                vals[v] += 1
            steps += 1
            if (pieces + _piece_floor(terms, vals, pieces) > piece_left
                    or (weight_left is not None and weight > weight_left)):
                break
            check_deadline()
        for v in members:
            vals[v] -= steps

    def tet_candidates(k, piece_left, weight_left):
        """(row, pieces, weight) for tetrahedron order[k] within the budgets
        and floor."""
        sources, (w0, w1, w2, w3), tplans = plans[order[k]]
        targets = [rows[tp][a] + rows[tp][b] for tp, a, b in sources]
        targets.append(0)
        terms = _floor_terms(frontiers[k], rows, row_pieces)
        out = []
        for plan in tplans:
            agree = True
            for k, j in plan.checks:
                if targets[k] != targets[j]:
                    agree = False
                    break
            if not agree:
                continue
            qt = plan.qtype
            (k0, c0), (k1, c1), (k2, c2), (k3, c3) = plan.terms
            if qt is None:
                qrange = (0,)
            elif plan.pins:
                k, j, m = plan.pins[0]
                qc = (targets[k] - targets[j]) // m
                for k, j, m in plan.pins:       # the first fails on a remainder
                    if targets[k] - targets[j] != m * qc:
                        agree = False
                        break
                if not agree or qc < 1:
                    continue
                qrange = (qc,)
            else:
                # the row has sum(targets) + slope * qcount pieces, and only
                # a forced coordinate falls as the quad count grows
                hi = piece_left
                slope = c0 + c1 + c2 + c3 + 1
                if slope > 0:
                    spare = piece_left - targets[k0] - targets[k1] - targets[k2] - targets[k3]
                    hi = spare // slope
                for k, c in plan.terms:
                    if c < 0:
                        hi = min(hi, targets[k] // -c)
                qrange = range(1, hi + 1)
            classes, quad_weight = plan.classes, plan.quad_weight
            for qc in qrange:           # qc is 0 without a quad type
                check_deadline()
                # Never negative.  Free classes start at their least value
                # >= 0 and an unpinned scan stops at 0.  Under pins every
                # equation of the plan holds.  Across a glued-down face a
                # coordinate v is a target, less qc only in face p, p its
                # quad partner; if that is v's one glued-down face, those
                # faces are {p} or {p, v} and give no pin.  So without a
                # self-glued face each value is a target.  A self-glued pair
                # has an odd permutation (orientability): the swap pins qc to
                # 0 or adds an equation free of qc between two such values,
                # and a 4-cycle makes the values x, x + e*qc, x + e*qc, x
                # (e = -1, 0, 1 by quad type), the least of them a target.
                a, b, c, d = (targets[k0] + c0 * qc, targets[k1] + c1 * qc,
                              targets[k2] + c2 * qc, targets[k3] + c3 * qc)
                pieces = a + b + c + d + qc
                weight = w0 * a + w1 * b + w2 * c + w3 * d + quad_weight * qc
                if (pieces + _piece_floor(terms, (a, b, c, d), pieces) > piece_left
                        or (weight_left is not None and weight > weight_left)):
                    continue
                quad = (qc, 0, 0) if qt == 0 else (0, qc, 0) if qt == 1 else (0, 0, qc)
                fill(out, classes, 0, [a, b, c, d], quad, pieces, weight,
                     piece_left, weight_left, terms)
        return out

    def dfs(k, used, weight_used):
        check_deadline()
        weight_left = None if max_weight is None else max_weight - weight_used
        candidates = tet_candidates(k, budget.max_piece_count - used, weight_left)
        t = order[k]
        if k == n - 1:
            for rows[t], _, _ in candidates:
                vec = NormalVector(rows)
                if not check_matching(tri, vec)[0]:
                    raise AssertionError("enumerator produced a non-matching vector")
                yield vec
            return
        for rows[t], row_pieces[t], weight in candidates:
            yield from dfs(k + 1, used + row_pieces[t], weight_used + weight)

    try:
        yield from dfs(0, 0, 0)
    finally:
        # dfs and fill call themselves through their closure cells; emptying
        # the cells breaks those cycles, so the triangulation and all that
        # is kept with it are freed by reference counting
        dfs = fill = None


# -- meridian discs ----------------------------------------------------------

@dataclass
class MeridianDisc:
    vector: NormalVector
    surface: object
    boundary_length: int
    weight: int

    @property
    def complexity(self):
        return (self.boundary_length, self.weight)

    @property
    def piece_count(self):
        return self.vector.piece_count()


@dataclass
class DiscSearchResult:
    discs: list
    complete: bool
    inconclusive: bool
    note: str = ""


def find_meridian_discs(tri, budget: SearchBudget) -> DiscSearchResult:
    """All normal meridian discs within the budget: connected, Euler
    characteristic 1, boundary in the kernel of H1(bdry) -> H1(M).

    Two count filters drop a vector before reconstruction.  First, the cut
    filter: a vector that meets some edge loop e fewer than c(e) times is
    no disc (``loop_cuts``); the loops are tried largest c(e) first, which
    drops the most vectors soonest.  Second, a vector whose count-level
    Euler characteristic is not 1 cannot be a connected disc.  The time
    limit holds for the enumeration and the filter together: when it stops
    either, the discs found so far are returned with ``complete`` False;
    such a result is inconclusive.  A search stopped during enumeration
    returns no discs, because its filter starts after the deadline."""
    calibration = first_homology(tri).calibration
    if calibration is None:
        raise ValueError("not a solid-torus candidate; no meridian to search for")
    cuts = sorted(loop_cuts(tri).items(), key=lambda item: -item[1])
    deadline = None
    if budget.time_limit is not None:
        deadline = time.monotonic() + budget.time_limit
    try:
        vectors, complete, note = enumerate_admissible(tri, budget), True, ""
    except BudgetExhausted as e:
        vectors, complete, note = e.found, False, str(e)
    discs = []
    for v in vectors:
        if deadline is not None and time.monotonic() > deadline:
            complete, note = False, "time limit reached"
            break
        if any(edge_weight(tri, v, e) < cut for e, cut in cuts):
            continue
        disc = _meridian_disc(tri, calibration, v)
        if disc is not None:
            discs.append(disc)
    discs.sort(key=lambda d: (d.complexity, d.vector.coords))
    return DiscSearchResult(discs, complete, not complete or not discs, note)


def _meridian_disc(tri, calibration, v):
    """v as a MeridianDisc if it is one -- connected, Euler characteristic 1
    (checked on the counts before reconstructing), one boundary curve in the
    meridian class -- else None."""
    if count_euler(tri, v) != 1:
        return None
    surface = reconstruct(tri, v)
    if not surface.connected or surface.euler_by_component[0] != 1:
        return None
    curves = surface.boundary_curves_by_component[0]
    if len(curves) != 1:
        return None
    if not calibration.is_meridian_class(calibration.coords_of_cycle(curves[0].chain)):
        return None
    return MeridianDisc(v, surface, curves[0].length, surface.weight)


def floor_vector(tri):
    """v*, the vector that meets every edge class e exactly c(e) times
    (``loop_cuts``), built row by row; None when some edge class is not a
    loop or some tetrahedron has no row with those crossings.  v* always
    matches: a face's arc counts are fixed by the weights of its three
    edges, which both of its sides read.  Whether it is a disc is not
    checked here."""
    cuts = loop_cuts(tri)
    if len(cuts) != len(tri.edge_classes):
        return None
    direction = tri.class_direction
    rows = []
    for t in range(tri.tet_count):
        row = row_of_crossings([[cuts[direction[(t, (u, w))][0]] if u != w else 0
                                 for w in range(4)] for u in range(4)])
        if row is None:
            return None
        rows.append(row)
    return NormalVector(rows)


def minimal_meridian_length(tri):
    """Homological lower bound on a meridian disc's boundary length: a
    boundary edge e that is a loop in M meets the disc at least c(e) times
    (``loop_cuts``), and only at points of its boundary curve."""
    cuts = loop_cuts(tri)
    return sum(cuts.get(ec.index, 0) for ec in tri.edge_classes if ec.boundary)


@dataclass
class MinimalDiscResult:
    disc: MeridianDisc | None
    certified: bool
    inconclusive: bool
    note: str = ""


def minimal_complexity_disc(tri, budget: SearchBudget) -> MinimalDiscResult:
    """Lexicographic minimum of (boundary length, weight); ties broken by
    coordinate order.

    Floor certificate: where every edge class e is a loop, a meridian disc
    meets it at least c(e) times (``loop_cuts``), so the vector v* that
    meets each e exactly c(e) times (``floor_vector``) has the least weight
    and, a row having (least + greatest opposite-pair sum) / 2 pieces, the
    fewest pieces of any meridian disc.  If v* is a meridian disc, it is
    the unique minimum and is returned certified with no enumeration; if it
    lies over the budget, no meridian disc fits.

    Otherwise (an edge that is not a loop, a tetrahedron with no row, or a
    v* that is no disc) the minimum is searched for and certified by a
    cover pass: the boundary length of a meridian disc is at least the sum
    of c(e) over the boundary edges e that are loops
    (``minimal_meridian_length``), and a piece meets at most one crossing
    point per edge-link sector, so once a disc of minimal length with
    weight W is found, re-enumerating with weight budget W (piece budget
    W * max link degree / 3) provably covers every competitor.

    The time limit covers both passes: the cover pass gets what is left, and
    a stopped cover pass leaves the result inconclusive.
    """
    deadline = None
    if budget.time_limit is not None:
        deadline = time.monotonic() + budget.time_limit
    calibration = first_homology(tri).calibration
    floor = None if calibration is None else floor_vector(tri)
    if floor is not None:
        if (floor.piece_count() > budget.max_piece_count
                or (budget.max_weight is not None
                    and sum(loop_cuts(tri).values()) > budget.max_weight)):
            return MinimalDiscResult(None, False, True, "no disc within budget")
        disc = _meridian_disc(tri, calibration, floor)
        if disc is not None:
            return MinimalDiscResult(disc, True, False, "")
    res = find_meridian_discs(tri, budget)
    if not res.discs:
        return MinimalDiscResult(None, False, True, "no disc within budget")
    best = res.discs[0]
    lmin = minimal_meridian_length(tri)
    if best.boundary_length != lmin:
        return MinimalDiscResult(best, False, not res.complete,
                                 f"best length {best.boundary_length} > homological bound {lmin}")
    max_link = max(ec.degree for ec in tri.edge_classes)
    cover_pieces = (best.weight * max_link) // 3 + 1
    cover = SearchBudget(max_piece_count=max(cover_pieces, budget.max_piece_count),
                         max_weight=best.weight,
                         time_limit=None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
    res2 = find_meridian_discs(tri, cover)
    if res2.inconclusive:
        return MinimalDiscResult(best, False, True, "certification pass hit the budget")
    return MinimalDiscResult(res2.discs[0], True, False, "")


# -- the 61-1 and 61-2 verifications -------------------------------------------------

@dataclass
class VerifyReport:
    name: str
    status: str               # "pass" | "fail" | "inconclusive"
    details: dict = field(default_factory=dict)


def verify_61_1(i: int) -> VerifyReport:
    """Exponential lower bound on normal meridian discs of the i-th layered
    triangulation: each has at least fib(i+3) > phi^(i+1) pieces and meets
    the newest edge at least that often.  A pass is a proof at any index.

    Certificate: the edge e labelled s_{i+2} has degree 1, so it lies in one
    tetrahedron slot, a piece meets it at most once, and a surface has at
    least w(e) pieces; a meridian disc has w(e) >= cut(e), as ``loop_cuts``
    shows.  Without degree 1 or a large enough cut the verdict is
    inconclusive: a weak certificate refutes nothing."""
    lt = family(i)
    newest = lt.class_with_label(slope_seq(i + 2))
    degree = lt.tri.edge_classes[newest].degree
    cut = first_homology(lt.tri).boundary_edge_cuts[newest]
    x = fib(i + 3)                      # the slope recursion's x_{i+2}
    ok = degree == 1 and cut >= x and at_least_golden_power(cut, i + 1)
    return VerifyReport("theorem-6.1(1)", "pass" if ok else "inconclusive", {
        "i": i,
        "required_pieces": x,
        "golden_exponent": i + 1,
        "newest_edge_degree": degree,
        "newest_edge_cut": cut,
    })


def verify_61_2(i: int) -> VerifyReport:
    """Pre-core curves on the boundary are long: for every slope (1, n) the
    intersection number with the newest edge slope is at least a third of
    that edge's meridian coordinate, which grows like the golden ratio.

    The minimum over n is taken in closed form, so a pass is a proof for
    every integer n."""
    if i < 0:
        raise ValueError("family index must be nonnegative")
    newest = slope_seq(i + 2)            # (fib(i+3), fib(i+2))
    best, best_n = min_pre_core_intersection([newest])
    bound = Fraction(newest.x, 3)
    ok = best >= bound and at_least_golden_power(best, i - 1)
    return VerifyReport("theorem-6.1(2)", "pass" if ok else "fail", {
        "i": i,
        "window": "all",
        "min_intersection": best,
        "minimizing_n": best_n,
        "lower_bound": str(bound),
        "golden_exponent": i - 1,
    })
