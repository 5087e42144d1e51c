"""Executable charging ledgers: certify ratio floors on concrete runs.

The scheme: every edge starts with its probability of being colored by the
run (0 or 1 for deterministic runs).  Relative to a target ratio C, an edge
keeps a surplus (value above C if the offline optimum colors it, its full
value otherwise), the surplus is moved around by a redistribution strategy,
and the certificate holds if every optimum edge ends with at least C.  Each
strategy here mirrors one guarantee: first-fit on trees at (k-1)/k, any
fair algorithm on trees at (2*sqrt(k)-2)/(2*sqrt(k)-1), and the biased
random pair strategy on two-colorable paths.  The two tree strategies share
one certificate, `_TreeCertificate`: one preparation per trace and one pass
per root, which differ between them only in a routing hook (first-fit moves
1/k past high-colored double edges) and a check hook (each strategy's
structural facts).  All three keep their books in their own unit (ints
scaled by k for first-fit, ints scaled by 2*sqrt(k)-1 for fair at square k
and exact surds at other k, ints counting half-slacks (1-C)/2 for the pair
strategy) and end in one ledger close, `_close`, which checks that no value
leaked and decides the verdict in ledger units; the per-edge rows are built
when first read, which a sweep never does.

All ledger arithmetic is exact, for every k: fractions, extended with
sqrt(5) where the bias parameter needs it and with sqrt(k) for the fair
floor at non-square k.  The tight instances end with zero margin, which
floating point would turn into coin flips.
"""

from __future__ import annotations

import csv
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

from . import engine
from .adversaries import RevealSequence
from .exact import Sqrt5, surd
from .graph import GraphError, RootedView, full_mask, path_positions, rooted_view
from .oracle import OptWitness, audit_witness


class ChargingError(RuntimeError):
    """An internal consistency rule of a charging strategy was violated."""


# ---------------------------------------------------------------------------
# verdict reports


@dataclass(slots=True)
class EdgeReport:
    edge: int
    klass: str  # double / single / opt-only / neither / critical / noncritical
    v_i: object
    v_f: object
    margin: object | None  # v_f - C for optimum edges, None otherwise
    case: str = ""


@dataclass
class VerdictReport:
    """A ledger's verdict; build_rows makes the per-edge rows on first read."""

    strategy: str
    C: object
    passed: bool
    min_margin: object | None
    build_rows: Callable[[], list[EdgeReport]] = field(repr=False, compare=False)

    @functools.cached_property
    def rows(self) -> list[EdgeReport]:
        # drop the builder, so the ledger it closes over does not outlive the rows
        rows, self.build_rows = self.build_rows(), None
        return rows

    def write_csv(self, out) -> None:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["edge", "class", "v_i", "v_f", "margin", "case"])
        for r in self.rows:
            w.writerow(
                [
                    r.edge,
                    r.klass,
                    float(r.v_i),
                    float(r.v_f),
                    "" if r.margin is None else float(r.margin),
                    r.case,
                ]
            )


def _close(strategy, C, klass, case, v_i, v_f, total, judged, exact, residual=0,
           margin_of=None):
    """Close a strategy's books: the one place a ledger becomes a verdict.

    klass maps every edge id, in reveal order, to its class; v_i and v_f give
    each edge's initial and final value, and case its case label (edges
    without one are absent).  Values, C, total (the sum of v_i) and residual
    (value the redistribution left unassigned) are in the strategy's own
    unit, and exact turns such a value into the exact value reported.  The
    margins v_f - C (or margin_of(v_f) where exact is not linear) of the
    judged edges decide the verdict.  Every exact is increasing, so the
    least margin is exact(min v_f - C), found without converting the rest.
    """
    if sum(v_f) + residual != total:
        raise ChargingError("ledger leaked value during redistribution")
    if margin_of is None:
        low = min((v_f[e] for e in judged), default=None)
        passed = low is None or low >= C
        min_margin = None if low is None else exact(low - C)
        margin_of = lambda v: exact(v - C)
    else:  # one comparison per distinct value, in order of first appearance
        min_margin = min(map(margin_of, dict.fromkeys(v_f[e] for e in judged)), default=None)
        passed = min_margin is None or min_margin >= 0

    def build_rows():
        return [
            EdgeReport(e, kl, exact(v_i[e]), exact(v_f[e]),
                       margin_of(v_f[e]) if e in judged else None, case.get(e, ""))
            for e, kl in klass.items()
        ]

    return VerdictReport(strategy, exact(C), passed, min_margin, build_rows)


# ---------------------------------------------------------------------------
# tree machinery shared by the two tree strategies


def edge_classes(trace: engine.Trace, witness: OptWitness):
    """Split edges into double / single / opt-only and tally them per vertex.

    Returns (klass, tallies): klass maps edge id to one of 'double',
    'single', 'opt-only', 'neither'; tallies[v] is a dict with the counts
    d_c, d_d of incident colored / double edges.
    """
    g = trace.graph
    klass: dict[int, str] = {}
    tallies = [{"d_c": 0, "d_d": 0} for _ in range(g.num_vertices)]
    for e, c in enumerate(trace.colors()):
        opt = e in witness.edges
        if c is None:
            klass[e] = "opt-only" if opt else "neither"
            continue
        klass[e] = "double" if opt else "single"
        for v in g.edges[e]:
            tallies[v]["d_c"] += 1
            tallies[v]["d_d"] += opt
    return klass, tallies


_ONE = Fraction(1)


def _settle(view: RootedView, klass: dict, held: list, v_f: list, C):
    """The per-vertex pass shared by both tree strategies.

    Each vertex pays its rejected optimum parent edge up to C, splits the rest
    of its holding equally among its rejected optimum child edges, and keeps
    what is left; v_f is updated in place and the residual kept by all
    vertices is returned.  Values may be ints, Fractions or surds:
    `rem * Fraction(1, n)` is the same exact split for all of them, and a
    single child (by far the common case) takes rem as it is.
    """
    residual = 0
    for v, rem in enumerate(held):
        pe = view.parent_edge[v]
        if pe != -1 and klass[pe] == "opt-only":
            t = min(rem, C)
            v_f[pe] += t
            rem -= t
        minus_children = [f for f in view.children[v] if klass[f] == "opt-only"]
        if minus_children and rem > 0:
            n = len(minus_children)
            share = rem if n == 1 else rem * Fraction(1, n)
            for f in minus_children:
                v_f[f] += share
            rem = 0
        residual += rem
    return residual


def _unscaler(scale: int):
    """The exact v/scale of a ledger value v, once per distinct v (surds occur only
    at scale 1 and stay as they are); not a method, so rows keep only its cache."""
    to_fraction = functools.cache(lambda v: Fraction(v, scale))
    return lambda v: v if isinstance(v, Sqrt5) else to_fraction(v)


class _TreeCertificate:
    """Both tree certificates: a per-trace preparation and a per-root pass.

    Construction walks the tree once (refusing anything else, and keeping the
    walk for root 0), audits the witness and derives the edge classes, vertex
    tallies and initial values.  Values are kept multiplied by `scale`: a
    colored edge is worth `scale` and C is `target`.  `charge(root)` sends
    each colored edge's surplus (`scale`, or `scale - target` for a
    double-colored edge) to its parent endpoint, lets the strategy's `_route`
    move value between those holdings, settles the rejected optimum edges,
    names their cases, runs the strategy's `_check` and closes the books.
    """

    def __init__(self, trace: engine.Trace, witness: OptWitness, scale: int, target):
        g = trace.graph
        view = rooted_view(g, range(g.num_vertices))
        if g.num_edges + 1 != g.num_vertices or view.parent_edge.count(-1) != 1:
            raise GraphError("charging strategies for trees require a tree")
        audit_witness(g, trace.k, witness)
        self.trace, self.witness, self.scale, self.target = trace, witness, scale, target
        self._view0 = view  # vertex 0 is the first start, so this is the walk from root 0
        self.klass, self.tallies = edge_classes(trace, witness)
        colors = trace.colors()
        self.color_of = {e: c for e, c in enumerate(colors) if c is not None}
        self.opt_only = [e for e, kl in self.klass.items() if kl == "opt-only"]
        self.v_i = [0 if c is None else scale for c in colors]
        self.total = scale * len(self.color_of)
        self._unscale = _unscaler(scale)

    def charge(self, root: int) -> VerdictReport:
        g, klass, scale, target = self.trace.graph, self.klass, self.scale, self.target
        view = self._view0 if root == 0 else rooted_view(g, (root,))
        held = [0] * g.num_vertices  # value parked at each vertex
        parent_of = []  # parent endpoint of each colored edge, in color_of order
        double_surplus = scale - target  # a double-colored edge keeps target
        for e in self.color_of:
            x, _ = view.parent_side(g, e)
            parent_of.append(x)
            held[x] += double_surplus if klass[e] == "double" else scale
        routed = self._route(view, held, parent_of)
        v_f = [target if kl == "double" else 0 for kl in klass.values()]
        residual = _settle(view, klass, held, v_f, target)
        cases = self._cases(view)
        self._check(view, held, parent_of, cases, routed)
        return _close(self.strategy, target, klass, cases, self.v_i, v_f, self.total,
                      self.witness.edges, self._unscale, residual)

    def _route(self, view: RootedView, held: list, parent_of: list):
        """Move value between holdings before they settle; returns what `_check` reads."""
        return None  # unless a strategy routes, nothing moves

    def _cases(self, view: RootedView) -> dict:
        """Each rejected optimum edge's case from this root, named after the
        class of the edge above it."""
        g, klass, parent_edge = self.trace.graph, self.klass, view.parent_edge
        cases = {}
        for e in self.opt_only:
            pe = parent_edge[view.parent_side(g, e)[0]]
            cases[e] = self.case_of_parent[klass[pe] if pe != -1 else ""]
        return cases


class FFTreeCertificate(_TreeCertificate):
    """Certify a first-fit run on a tree at ratio C = (k-1)/k.

    Redistribution: each colored edge sends 1/k up past its parent edge when
    that edge is double-colored with a higher color (`_route`), and the rest
    of its surplus to its parent vertex; each vertex then settles its own
    rejected parent edge (up to C) and splits the rest among its rejected
    optimum child edges.  Two structural facts about first-fit (a vertex
    holds at least c/k after seeing color c; high-colored double edges are
    fed by their children) are checked on the way (`_check`).

    Construction refuses traces first-fit did not produce.  Values are kept
    multiplied by k: C is k-1 and a unit of 1/k is 1, so values stay ints
    until a vertex splits its rest among several rejected child edges.
    """

    strategy = "ff-tree"
    # rejected non-optimum parent edges move no value, same as absent ones
    case_of_parent = {"double": "1", "single": "2", "opt-only": "3",
                      "neither": "2", "": "2"}

    def __init__(self, trace: engine.Trace, witness: OptWitness):
        if not engine.audit_fair(trace, first_fit=True):
            raise ValueError("trace was not produced by first-fit; refusing to certify")
        k = trace.k
        super().__init__(trace, witness, k, k - 1)
        free = full_mask(k)
        # the largest color unused at v in the final coloring, else 0
        self.top_free = [(~trace.coloring.used_mask(v) & free).bit_length()
                         for v in range(trace.graph.num_vertices)]

    def _route(self, view, held, parent_of):
        """Send 1/k of each colored edge past its parent edge when that edge
        is double-colored with a higher color; returns each edge's via-credit."""
        klass, color_of, parent_edge = self.klass, self.color_of, view.parent_edge
        via_credit = dict.fromkeys(color_of, 0)
        for (e, c), x in zip(color_of.items(), parent_of):
            pe = parent_edge[x]
            if pe != -1 and klass[pe] == "double" and color_of[pe] > c:
                held[x] -= 1
                held[view.parent_vertex[x]] += 1
                via_credit[pe] += 1
        return via_credit

    def _check(self, view, held, parent_of, cases, via_credit):
        # structural facts of the strategy (violations mean a bug, not a bad run);
        # the vertex-holdings fact is checked where the guarantee invokes it:
        # below an uncolored (or absent) parent edge -- a merely single-colored
        # parent edge may itself hold one of the counted colors
        k, klass, color_of = self.trace.k, self.klass, self.color_of
        for (e, c), x in zip(color_of.items(), parent_of):
            pe = view.parent_edge[x]
            if (pe == -1 or pe not in color_of) and held[x] < c:
                raise ChargingError(
                    f"vertex {x} holds {Fraction(held[x], k)} < {c}/{k} despite "
                    f"color {c} at a child edge with no colored parent edge"
                )
            if klass[e] == "double" and c > self.top_free[x]:
                need = k - self.tallies[x]["d_c"]
                if via_credit[e] < need:
                    raise ChargingError(
                        f"high-colored double edge {e} routed only "
                        f"{Fraction(via_credit[e], k)} < {Fraction(need, k)} past itself"
                    )


def ff_tree_charge(trace: engine.Trace, witness: OptWitness) -> VerdictReport:
    """Certify a first-fit run on a tree from root 0 (see FFTreeCertificate)."""
    return FFTreeCertificate(trace, witness).charge(0)


def fair_ratio(k: int):
    """(2*sqrt(k)-2)/(2*sqrt(k)-1), exact for every k: a Fraction for square
    k, otherwise the surd (4k-2-2*sqrt(k))/(4k-1)."""
    s = math.isqrt(k)
    if s * s == k:
        return Fraction(2 * s - 2, 2 * s - 1)
    return surd(Fraction(4 * k - 2, 4 * k - 1), Fraction(-2, 4 * k - 1), k)


class FairTreeCertificate(_TreeCertificate):
    """Certify any fair run on a tree at C = (2*sqrt(k)-2)/(2*sqrt(k)-1).

    Redistribution: every colored edge sends its whole surplus to its parent
    vertex (nothing is routed); each vertex settles its rejected-optimum
    parent edge up to C and splits the rest among its rejected-optimum child
    edges.  For each rejected optimum edge whose child endpoint cannot
    already cover C, `_check` re-checks the case inequalities behind the
    guarantee exactly on the run's actual vertex tallies.

    Construction refuses unfair traces and checks the fairness facts of the
    final coloring.  At square k = s*s values are kept multiplied by 2s-1: C
    is 2s-2, a colored edge is worth 2s-1 and a double-colored one sends up
    1.  Other k keep exact surds.
    """

    strategy = "fair-tree"
    # rejected non-optimum parent edges move no value, same as absent ones
    case_of_parent = {"opt-only": "1", "single": "2", "double": "3",
                      "neither": "4", "": "4"}

    def __init__(self, trace: engine.Trace, witness: OptWitness):
        if not engine.audit_fair(trace):
            raise ValueError("trace is not fair; refusing to certify")
        k = trace.k
        s = math.isqrt(k)
        square = s * s == k
        self.C = fair_ratio(k)
        super().__init__(trace, witness, 2 * s - 1 if square else 1, 2 * s - 2 if square else self.C)
        tallies = self.tallies
        for e, (u, v) in enumerate(trace.graph.edges):
            if e not in self.color_of and tallies[u]["d_c"] + tallies[v]["d_c"] < k:
                raise ChargingError(
                    f"rejected edge {e} sees fewer than k colored "
                    "edges in total; the run cannot have been fair"
                )

    def _check(self, view, held, parent_of, cases, routed):
        g = self.trace.graph
        for e, case in cases.items():
            x, y = view.parent_side(g, e)
            if held[y] < self.target:  # the child endpoint cannot pay C by itself
                _check_fair_case(self.trace.k, self.C, case, self.tallies[x], self.tallies[y], e)


def fair_tree_charge(trace: engine.Trace, witness: OptWitness) -> VerdictReport:
    """Certify a fair run on a tree from root 0 (see FairTreeCertificate)."""
    return FairTreeCertificate(trace, witness).charge(0)


def _check_fair_case(k, C, case, tx, ty, e):
    """Re-derive the case inequalities on the run's actual tallies.

    Only binding when the child endpoint cannot already pay C by itself (the
    caller checks that); in that regime every colored edge there must be
    double-colored, and the three inequalities of the matching case must hold.
    """
    if ty["d_c"] != ty["d_d"]:
        raise ChargingError(
            f"edge {e}: child endpoint holds less than C yet has a "
            "single-colored edge"
        )
    dcx, ddx, dcy = tx["d_c"], tx["d_d"], ty["d_c"]
    if case == "1":
        chain = [
            dcx + (1 - C) * dcy * (k - ddx - 1) >= C * k,
            dcx + (1 - C) * dcy * (k - dcx - 1) >= C * k,
            dcx + (1 - C) * (k - dcx) * (k - dcx - 1) >= C * k,
        ]
    elif case == "2":
        chain = [
            dcx - 1 + (1 - C) * dcy * (k - ddx) >= C * k,
            dcx - 1 + (1 - C) * dcy * (k - (dcx - 1)) >= C * k,
            dcx - 1 + (1 - C) * (k - dcx) * (k - (dcx - 1)) >= C * k,
        ]
    else:  # cases 3 and 4 share the calculation
        chain = [
            dcx + C - 1 + (1 - C) * dcy * (k - ddx) >= C * k,
            dcx + C - 1 + (1 - C) * dcy * (k - dcx) >= C * k,
            dcx + C - 1 + (1 - C) * (k - dcx) * (k - dcx) >= C * k,
        ]
    if not all(chain):
        raise ChargingError(f"edge {e}: case-{case} inequality chain failed {chain}")


# ---------------------------------------------------------------------------
# randomized pair strategy on paths: analytic ledger


def _as_exact(p):
    if isinstance(p, Sqrt5):
        return p
    if isinstance(p, (int, Fraction)):
        return Fraction(p)
    if isinstance(p, float):
        if not math.isfinite(p):
            raise ValueError(f"bias parameter must be finite, got {p}")
        return Fraction(p)  # exact binary expansion of the float
    raise TypeError(f"unsupported bias parameter type {type(p).__name__}")


def rp_competitive_ratio(p):
    """min(p^2 - p + 1, (2/3)(-p^2 + p + 1)), exactly."""
    p = _as_exact(p)
    same = p * p - p + 1
    mixed = Fraction(2, 3) * (-(p * p) + p + 1)
    return same if same <= mixed else mixed


def _path_layout(order):
    """Everything the path ledger reads off a reveal order, computed once.

    Returns (positions, by_pos, crit, depth): the path position of each
    step, the step at each position, the critical steps (both neighbors
    revealed earlier), and the depth of each non-critical step.  Non-critical
    edges form contiguous runs of path positions; within a run the depth of
    an edge is its distance from the run's earliest-revealed edge plus one,
    so depths alternate parity along the run.
    """
    edges = order.edges if isinstance(order, RevealSequence) else list(order)
    positions = path_positions(edges)
    by_pos = {pos: step for step, pos in enumerate(positions)}
    crit = {
        step
        for step, pos in enumerate(positions)
        if by_pos.get(pos - 1, step) < step and by_pos.get(pos + 1, step) < step
    }
    noncrit = sorted(pos for step, pos in enumerate(positions) if step not in crit)
    depth: dict[int, int] = {}
    for _, group in groupby(enumerate(noncrit), key=lambda item: item[1] - item[0]):
        run = [pos for _, pos in group]
        first = min(run, key=by_pos.__getitem__)
        for pos in run:
            depth[by_pos[pos]] = abs(pos - first) + 1
    return positions, by_pos, crit, depth


def critical_edges(order) -> set[int]:
    """Steps (edge ids) whose path edge already had both neighbors revealed."""
    return _path_layout(order)[2]


def rp_path_charge(order, p, *, C=None) -> VerdictReport:
    """Certify the biased random pair strategy on a path reveal order.

    Initial values are analytic: non-critical edges are always colored;
    a critical edge survives exactly when its two (independent) neighbors
    drew the same color, which depends only on their depth parities.  The
    redistribution moves half the slack from the neighbors (same-parity
    case) or the full slack of the even neighbor plus halves from the odd
    neighbor and the even neighbor's far mate (mixed case).  Over-drafts
    (a non-critical edge left below C) are checked, not assumed.

    The ledger counts in half-slacks (1-C)/2: an edge's value is its base (1,
    or a critical edge's agreement probability) plus n half-slacks, kept as
    the int 3n + base index, so conservation is checked on ints and each
    distinct value is made exact once.
    """
    if isinstance(order, RevealSequence) and order.k != 2:
        raise ValueError("the random pair strategy needs k = 2")
    bias = _as_exact(p)
    if not (Fraction(1, 2) <= bias <= 1):
        raise ValueError(f"p must lie in [1/2, 1], got {p}")
    target = rp_competitive_ratio(bias) if C is None else C
    positions, by_pos, crit, depth = _path_layout(order)

    # a critical edge's initial value: its neighbors agree with probability
    # p^2 + (1-p)^2 at equal depth parities and 2p(1-p) at mixed ones
    bases = (_ONE, bias * bias + (1 - bias) * (1 - bias), 2 * bias * (1 - bias))
    half = (1 - target) / 2

    @functools.cache
    def exact(key):  # the ledger int 3n + b is bases[b] plus n half-slacks
        n, b = divmod(key, 3)
        return bases[b] if n == 0 else bases[b] + n * half

    margin_of = functools.cache(lambda key: exact(key) - target)
    m = len(positions)
    klass = dict.fromkeys(range(m), "noncritical")
    v_i, v_f = [0] * m, [0] * m  # base index 0 and no half-slacks moved yet
    h = 3  # one half-slack, in ledger ints
    case: dict[int, str] = {}
    payers = set()
    for step in sorted(crit):
        pos = positions[step]
        left, right = by_pos[pos - 1], by_pos[pos + 1]
        dl, dr = depth[left], depth[right]
        klass[step] = "critical"
        if dl % 2 == dr % 2:
            case[step], v_i[step], v_f[step] = "2", 1, 1 + 2 * h
            v_f[left] -= h
            v_f[right] -= h
            payers.update((left, right))
        else:
            odd_n, even_n = (left, right) if dl % 2 == 1 else (right, left)
            even_pos = positions[even_n]
            far_pos = even_pos + (even_pos - pos)
            if far_pos not in by_pos or by_pos[far_pos] in crit:
                raise ChargingError(
                    f"even-depth neighbor at position {even_pos} has no "
                    "non-critical far mate; the parity analysis is broken"
                )
            far = by_pos[far_pos]
            case[step], v_i[step], v_f[step] = "1", 2, 2 + 4 * h
            v_f[even_n] -= 2 * h
            v_f[odd_n] -= h
            v_f[far] -= h
            payers.update((even_n, odd_n, far))

    overdrawn = {key for key in {v_f[step] for step in payers} if margin_of(key) < 0}
    if overdrawn:
        step = min(step for step in payers if v_f[step] in overdrawn)
        raise ChargingError(
            f"non-critical edge at step {step} was left with {exact(v_f[step])} "
            f"< C = {target}"
        )
    # C is a non-critical edge's 1 less two half-slacks
    return _close("rp-path", -2 * h, klass, case, v_i, v_f, sum(v_i), range(m), exact,
                  margin_of=margin_of)
