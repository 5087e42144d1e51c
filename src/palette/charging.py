"""Executable charging ledgers: certify ratio floors on concrete runs.

The scheme: every edge starts with its probability of being colored by the
run (0 or 1 for deterministic runs).  Relative to a target ratio C, an edge
keeps a surplus (value above C if the offline optimum colors it, its full
value otherwise), the surplus is moved around by a redistribution strategy,
and the certificate holds if every optimum edge ends with at least C.  Each
strategy here mirrors one guarantee: first-fit on trees at (k-1)/k, any
fair algorithm on trees at (2*sqrt(k)-2)/(2*sqrt(k)-1), and the biased
random pair strategy on two-colorable paths.  All three keep their books in
their own unit and end in one ledger close, `_close`, which checks that no
value leaked and builds the rows and the verdict.

All ledger arithmetic is exact, for every k: fractions, extended with
sqrt(5) where the bias parameter needs it and with sqrt(k) for the fair
floor at non-square k.  The tight instances end with zero margin, which
floating point would turn into coin flips.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from . import engine
from .adversaries import RevealSequence
from .exact import Sqrt5, surd
from .graph import Graph, GraphError, path_positions
from .oracle import OptWitness, audit_witness


class ChargingError(RuntimeError):
    """An internal consistency rule of a charging strategy was violated."""


# ---------------------------------------------------------------------------
# verdict reports


@dataclass
class EdgeReport:
    edge: int
    klass: str  # double / single / opt-only / neither / critical / noncritical
    v_i: object
    v_f: object
    margin: object | None  # v_f - C for optimum edges, None otherwise
    case: str = ""


@dataclass
class VerdictReport:
    strategy: str
    C: object
    rows: list[EdgeReport]
    passed: bool
    min_margin: object | None

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


def _as_is(v):
    return v


def _close(strategy, C, klass, case, v_i, v_f, total, judged, residual=0, exact=_as_is):
    """Close a strategy's books: the one place a ledger becomes a verdict.

    klass maps every edge id, in reveal order, to its class; v_i and v_f give
    each edge's initial and final value, and case its case label (edges
    without one are absent).  Values, C, total (the sum of v_i) and residual
    (value the redistribution left unassigned) are in the strategy's own
    unit, and exact turns such a value into the exact value reported.  The
    margins v_f - C of the judged edges decide the verdict.
    """
    if sum(v_f) + residual != total:
        raise ChargingError("ledger leaked value during redistribution")
    margin = {e: exact(v_f[e] - C) for e in judged}
    rows = [
        EdgeReport(e, kl, exact(v_i[e]), exact(v_f[e]), margin.get(e), case.get(e, ""))
        for e, kl in klass.items()
    ]
    min_margin = min(margin.values(), default=None)
    return VerdictReport(strategy=strategy, C=exact(C), rows=rows,
                         passed=min_margin is None or min_margin >= 0, min_margin=min_margin)


# ---------------------------------------------------------------------------
# tree machinery shared by the two tree strategies


@dataclass
class RootedView:
    """Parent relations of a tree from a chosen root."""

    parent_vertex: list[int]  # -1 at the root
    parent_edge: list[int]  # -1 at the root
    children: list[list[int]]  # child edge ids per vertex

    def parent_side(self, g: Graph, eid: int) -> tuple[int, int]:
        """Endpoints of eid ordered (parent, child)."""
        u, v = g.endpoints(eid)
        return (u, v) if self.parent_edge[v] == eid else (v, u)


def rooted_view(g: Graph, root: int) -> RootedView:
    """Parent relations of g from root; g must be a tree (the certificates
    check that once per trace, not once per root)."""
    n = g.num_vertices
    if not 0 <= root < n:
        raise GraphError(f"root {root} out of range")
    parent_vertex = [-1] * n
    parent_edge = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    stack = [root]
    seen = [False] * n
    seen[root] = True
    while stack:
        x = stack.pop()
        for f in g.incident[x]:
            y = g.other_end(f, x)
            if not seen[y]:
                seen[y] = True
                parent_vertex[y] = x
                parent_edge[y] = f
                children[x].append(f)
                stack.append(y)
    return RootedView(parent_vertex, parent_edge, children)


def largest_available_color(coloring, v: int, k: int) -> int:
    """Largest color in 1..k unused at v in the final coloring, else 0."""
    used = coloring.used_mask(v)
    for c in range(k, 0, -1):
        if not used >> (c - 1) & 1:
            return c
    return 0


def edge_classes(trace: engine.Trace, witness: OptWitness):
    """Split edges into double / single / opt-only and tally them per vertex.

    Returns (klass, tallies): klass maps edge id to one of 'double',
    'single', 'opt-only', 'neither'; tallies[v] is a dict with the counts
    d_c, d_d, d_s, d_r of incident colored / double / single / opt-only
    edges.
    """
    g = trace.graph
    klass: dict[int, str] = {}
    for step in trace.steps:
        e = step.edge
        if step.color is not None:
            klass[e] = "double" if e in witness.edges else "single"
        else:
            klass[e] = "opt-only" if e in witness.edges else "neither"
    tallies = [
        {"d_c": 0, "d_d": 0, "d_s": 0, "d_r": 0} for _ in range(g.num_vertices)
    ]
    for e, kl in klass.items():
        for v in g.endpoints(e):
            t = tallies[v]
            if kl == "double":
                t["d_c"] += 1
                t["d_d"] += 1
            elif kl == "single":
                t["d_c"] += 1
                t["d_s"] += 1
            elif kl == "opt-only":
                t["d_r"] += 1
    return klass, tallies


def _first_fit_replay_matches(trace: engine.Trace) -> bool:
    replay = engine.run(
        engine.FirstFit(), RevealSequence(edges=trace.reveal_order(), k=trace.k)
    )
    return [s.color for s in replay.steps] == [s.color for s in trace.steps]


_ONE, _ZERO = Fraction(1), Fraction(0)


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


class _TreeCertificate:
    """The half of a tree certificate that does not depend on the root.

    Construction audits the tree and the witness and derives the edge
    classes, vertex tallies and initial values (one `unit` per colored edge)
    once per trace; `charge(root)` then runs the root-dependent
    redistribution and closes the books.
    """

    def __init__(self, trace: engine.Trace, witness: OptWitness, unit):
        g = trace.graph
        if not g.is_tree():
            raise GraphError("charging strategies for trees require a tree")
        audit_witness(g, trace.k, witness)
        self.trace, self.witness = trace, witness
        self.klass, self.tallies = edge_classes(trace, witness)
        self.color_of = {s.edge: s.color for s in trace.steps if s.color is not None}
        self.opt_only = [e for e, kl in self.klass.items() if kl == "opt-only"]
        zero = 0 * unit
        self.v_i = [zero if s.color is None else unit for s in trace.steps]
        self.total = unit * len(self.color_of)

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
    that edge is double-colored with a higher color, and the rest of its
    surplus to its parent vertex; each vertex then settles its own rejected
    parent edge (up to C) and splits the rest among its rejected optimum
    child edges.  Two structural facts about first-fit (a vertex holds at
    least c/k after seeing color c; high-colored double edges are fed by
    their children) are checked on the way.

    Construction refuses traces first-fit did not produce; `charge(root)`
    certifies from one root.
    """

    strategy = "ff-tree"
    # rejected non-optimum parent edges move no value, same as absent ones
    case_of_parent = {"double": "1", "single": "2", "opt-only": "3",
                      "neither": "2", "": "2"}

    def __init__(self, trace: engine.Trace, witness: OptWitness):
        if not _first_fit_replay_matches(trace):
            raise ValueError("trace was not produced by first-fit; refusing to certify")
        k = trace.k
        super().__init__(trace, witness, k)  # values are kept multiplied by k
        self.top_free = [
            largest_available_color(trace.coloring, v, k)
            for v in range(trace.graph.num_vertices)
        ]
        self._fractions: dict[int, Fraction] = {}

    def charge(self, root: int) -> VerdictReport:
        g, k = self.trace.graph, self.trace.k
        klass, color_of = self.klass, self.color_of
        view = rooted_view(g, root)
        # every ledger value is kept multiplied by k: C is k-1 and a unit of
        # 1/k is 1, so values stay ints until a vertex splits its rest among
        # several rejected child edges
        held = [0] * g.num_vertices  # value parked at each vertex after step 1
        via_credit = dict.fromkeys(color_of, 0)  # step-1(a) value routed past each edge
        parent_of = []  # parent endpoint of each colored edge, in color_of order
        for e, c in color_of.items():
            x, _ = view.parent_side(g, e)
            parent_of.append(x)
            surplus = 1 if klass[e] == "double" else k
            pe = view.parent_edge[x]
            if pe != -1 and klass[pe] == "double" and color_of[pe] > c:
                held[view.parent_vertex[x]] += 1
                via_credit[pe] += 1
                surplus -= 1
            held[x] += surplus

        v_f = [k - 1 if kl == "double" else 0 for kl in klass.values()]
        residual = _settle(view, klass, held, v_f, k - 1)

        # structural facts of the strategy (violations mean a bug, not a bad run);
        # the vertex-holdings fact is checked where the guarantee invokes it:
        # below an uncolored (or absent) parent edge -- a merely single-colored
        # parent edge may itself hold one of the counted colors
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

        return _close(self.strategy, k - 1, klass, self._cases(view), self.v_i, v_f,
                      self.total, self.witness.edges, residual, self._unscale)

    def _unscale(self, v):
        """A ledger value v (kept multiplied by k) as the Fraction v/k; each
        int is converted once per certificate."""
        if type(v) is not int:
            return v / self.trace.k
        f = self._fractions.get(v)
        if f is None:
            f = self._fractions[v] = Fraction(v, self.trace.k)
        return f


def ff_tree_charge(
    trace: engine.Trace, witness: OptWitness, *, root: int = 0
) -> VerdictReport:
    """Certify a first-fit run on a tree from one root (see FFTreeCertificate)."""
    return FFTreeCertificate(trace, witness).charge(root)


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
    vertex; each vertex settles its rejected-optimum parent edge up to C and
    splits the rest among its rejected-optimum child edges.  For each
    rejected optimum edge whose child endpoint cannot already cover C, the
    case inequalities behind the guarantee are re-checked exactly on the
    run's actual vertex tallies.

    Construction refuses unfair traces and checks the fairness facts of the
    final coloring; `charge(root)` certifies from one root.
    """

    strategy = "fair-tree"
    # rejected non-optimum parent edges move no value, same as absent ones
    case_of_parent = {"opt-only": "1", "single": "2", "double": "3",
                      "neither": "4", "": "4"}

    def __init__(self, trace: engine.Trace, witness: OptWitness):
        if not engine.audit_fair(trace):
            raise ValueError("trace is not fair; refusing to certify")
        k = trace.k
        super().__init__(trace, witness, _ONE)
        self.C = fair_ratio(k)
        self.double_surplus = 1 - self.C  # what a double-colored edge sends up
        tallies = self.tallies
        for v, t in enumerate(tallies):
            if t["d_d"] + t["d_r"] > k:
                raise ChargingError(f"optimum keeps more than k edges at vertex {v}")
        for step in trace.steps:
            if step.color is None:
                if tallies[step.u]["d_c"] + tallies[step.v]["d_c"] < k:
                    raise ChargingError(
                        f"rejected edge {step.edge} sees fewer than k colored "
                        "edges in total; the run cannot have been fair"
                    )

    def charge(self, root: int) -> VerdictReport:
        g, k, C, klass = self.trace.graph, self.trace.k, self.C, self.klass
        view = rooted_view(g, root)
        held = [0] * g.num_vertices
        for e in self.color_of:
            x, _ = view.parent_side(g, e)
            held[x] += self.double_surplus if klass[e] == "double" else 1
        v_f = [C if kl == "double" else _ZERO for kl in klass.values()]
        residual = _settle(view, klass, held, v_f, C)
        cases = self._cases(view)
        report = _close(self.strategy, C, klass, cases, self.v_i, v_f, self.total,
                        self.witness.edges, residual)
        for e, case in cases.items():
            x, y = view.parent_side(g, e)
            _check_fair_case(k, C, case, self.tallies[x], self.tallies[y], held[y], e)
        return report


def fair_tree_charge(
    trace: engine.Trace, witness: OptWitness, *, root: int = 0
) -> VerdictReport:
    """Certify a fair run on a tree from one root (see FairTreeCertificate)."""
    return FairTreeCertificate(trace, witness).charge(root)


def _check_fair_case(k, C, case, tx, ty, m_y, e):
    """Re-derive the case inequalities on the run's actual tallies.

    Only binding when the child endpoint cannot already pay C by itself; in
    that regime every colored edge there must be double-colored, and the
    three inequalities of the matching case must hold.
    """
    if m_y >= C:
        return
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


def case1_polynomial(k: int, z, C=None):
    """The case-1 quadratic in the colored-degree variable z.

    Evaluates (1-C) z^2 + ((2k-1)C - (2k-2)) z + (1-C)(k^2-k); its minimum
    over the reals is C*k, attained at z = k - sqrt(k) when k is square.
    """
    if C is None:
        C = fair_ratio(k)
    return (1 - C) * z * z + ((2 * k - 1) * C - (2 * k - 2)) * z + (1 - C) * (
        k * k - k
    )


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


def compute_l(order, step: int) -> int:
    """Depth of a non-critical edge in its non-critical run (1 = earliest)."""
    _, _, crit, depth = _path_layout(order)
    if step in crit:
        raise ValueError(f"edge at step {step} is critical; depth is undefined")
    return depth[step]


def rp_path_charge(order, p, *, C=None) -> VerdictReport:
    """Certify the biased random pair strategy on a path reveal order.

    Initial values are analytic: non-critical edges are always colored;
    a critical edge survives exactly when its two (independent) neighbors
    drew the same color, which depends only on their depth parities.  The
    redistribution moves half the slack from the neighbors (same-parity
    case) or the full slack of the even neighbor plus halves from the odd
    neighbor and the even neighbor's far mate (mixed case).  Over-drafts
    (a non-critical edge left below C) are checked, not assumed.
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
    same = bias * bias + (1 - bias) * (1 - bias)
    mixed = 2 * bias * (1 - bias)
    slack = 1 - target
    m = len(positions)
    klass, v_i, v_f = dict.fromkeys(range(m), "noncritical"), [_ONE] * m, [_ONE] * m
    case: dict[int, str] = {}
    payers = set()
    total = m - len(crit)
    for step in sorted(crit):
        pos = positions[step]
        left, right = by_pos[pos - 1], by_pos[pos + 1]
        dl, dr = depth[left], depth[right]
        klass[step] = "critical"
        if dl % 2 == dr % 2:
            case[step], v_i[step], v_f[step] = "2", same, same + slack
            v_f[left] -= slack / 2
            v_f[right] -= slack / 2
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
            case[step], v_i[step], v_f[step] = "1", mixed, mixed + 2 * slack
            v_f[even_n] -= slack
            v_f[odd_n] -= slack / 2
            v_f[far] -= slack / 2
            payers.update((even_n, odd_n, far))
        total += v_i[step]

    for step in payers:
        if v_f[step] < target:
            raise ChargingError(
                f"non-critical edge at step {step} was left with {v_f[step]} "
                f"< C = {target}"
            )
    return _close("rp-path", target, klass, case, v_i, v_f, total, range(m))
