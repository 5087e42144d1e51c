"""Executable charging ledgers: certify ratio floors on concrete runs.

The scheme: every edge starts with its probability of being colored by the
run (0 or 1 for deterministic runs).  Relative to a target ratio C, an edge
keeps a surplus (value above C if the offline optimum colors it, its full
value otherwise), the surplus is moved around by a redistribution strategy,
and the certificate holds if every optimum edge ends with at least C.  Each
strategy here mirrors one guarantee: first-fit on trees at (k-1)/k, any
fair algorithm on trees at (2*sqrt(k)-2)/(2*sqrt(k)-1), and the biased
random pair strategy on two-colorable paths.  The two tree strategies share
one certificate, `_TreeCertificate`: one preparation per trace and one
state function, which settles a vertex under a given parent edge and which
both the pass from one root and the rerooting walk over every root read.
The two differ only in a credit hook (first-fit moves 1/k past
high-colored double edges) and a guard hook (each strategy's structural
facts).  All three keep their books in their own unit (ints scaled by k
for first-fit and by 2*sqrt(k)-1 for fair, at every k, both times
lcm(1..d) for the most rejected optimum edges d at a vertex so every split
is exact; ints counting half-slacks (1-C)/2 for the pair strategy) and end
in one ledger close, `_close`, which checks that no value leaked and
judges every ledger the same way, on the exact margin of each distinct final
value; the per-edge rows are built when first read, which a sweep never does.
A fair value at non-square k is a + b*sqrt(k) with int a and b, compared and
split in ints.

All ledger arithmetic is exact, for every k: fractions, extended with
sqrt(5) where the bias parameter needs it and with sqrt(k) for the fair
floor at non-square k.  The tight instances end with zero margin, which
floating point would turn into coin flips.
"""

from __future__ import annotations

import csv
import functools
import heapq
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, groupby

from . import engine
from .exact import Sqrt5, sqrt
from .graph import GraphError, color_bit, full_mask, path_positions, rooted_view
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
    """A ledger's verdict; build_rows makes the per-edge rows on first read, and
    initial() the exact sum of v_i, the run's expected colored count."""

    strategy: str
    C: object
    passed: bool
    min_margin: object | None
    build_rows: Callable[[], list[EdgeReport]] = field(repr=False, compare=False)
    initial: Callable[[], object] = field(default=None, repr=False, compare=False)

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


def _close(strategy, C, klass, case, v_i, v_f, total, judged, exact, residual=0):
    """Close a strategy's books: the one place a ledger becomes a verdict.

    klass maps every edge id, in reveal order, to its class; v_i and v_f give
    each edge's initial and final value, and case its case label (edges
    without one are absent).  Values, C, total (the sum of v_i) and residual
    (value the redistribution left unassigned) are in the strategy's own
    unit, and exact turns such a value into the exact value reported.  The
    margins exact(v_f) - exact(C) of the judged edges decide the verdict,
    one per distinct final value.  The report's initial() is the exact sum
    of v_i, over each distinct v_i.
    """
    if sum(v_f) + residual != total:
        raise ChargingError("ledger leaked value during redistribution")
    exact_C = exact(C)
    margin_of = functools.cache(lambda v: exact(v) - exact_C)  # rows share each margin
    min_margin = min(map(margin_of, dict.fromkeys(v_f[e] for e in judged)), default=None)
    passed = min_margin is None or min_margin >= 0

    def build_rows():
        return [
            EdgeReport(e, kl, exact(v_i[e]), exact(v_f[e]),
                       margin_of(v_f[e]) if e in judged else None, case.get(e, ""))
            for e, kl in klass.items()
        ]

    return VerdictReport(strategy, exact_C, passed, min_margin, build_rows,
                         lambda: sum(exact(v) * n for v, n in Counter(v_i).items()))


# ---------------------------------------------------------------------------
# tree machinery shared by the two tree strategies


def edge_classes(trace: engine.Trace, witness: OptWitness):
    """Split edges into double / single / opt-only and tally them per vertex.

    Reads the trace's decisions, `coloring.colors`.  Returns (klass, d_c,
    d_d): klass maps edge id to one of 'double', 'single', 'opt-only',
    'neither'; d_c[v] and d_d[v] count the colored and the double edges at
    vertex v, in two flat int lists.
    """
    g, opt_edges = trace.graph, witness.edges
    klass: dict[int, str] = {}
    d_c, d_d = [0] * g.num_vertices, [0] * g.num_vertices
    for e, c in enumerate(trace.coloring.colors):
        opt = e in opt_edges
        if c is None:
            klass[e] = "opt-only" if opt else "neither"
            continue
        klass[e] = "double" if opt else "single"
        u, v = g.edges[e]
        d_c[u] += 1
        d_c[v] += 1
        if opt:
            d_d[u] += 1
            d_d[v] += 1
    return klass, d_c, d_d


_ONE = Fraction(1)
# 1/scale per scale, for a sweep's many certificates
_inverse = functools.cache(lambda scale: _ONE / scale)


def _unscaler(scale):
    """The exact v/scale of a ledger value v, once per distinct v: a Fraction for
    an int scale, a surd for a surd one; not a method, so rows keep only its cache."""
    return functools.cache(lambda v: _inverse(scale) * v)


class _TreeCertificate:
    """Both tree certificates: a per-trace preparation and one state function
    that the per-root pass and the all-roots walk both read.

    Construction refuses anything but a tree (`Graph.is_tree`), audits the
    witness and derives the edge classes, vertex tallies and initial values.
    Values are kept multiplied by `scale`: a colored edge is worth `scale` and
    C is `target`, both the strategy's times `unit`, lcm(1..d) for the most
    rejected optimum edges d at one vertex, so each split is exact.  Every
    value is an int, or at non-square k a surd a + b*sqrt(k) with int a and b.

    Each colored edge sends its surplus (`scale`, or `scale - target` for a
    double-colored edge) to its parent endpoint, which passes the strategy's
    `_credit` of it on past a double-colored parent edge.  So what a vertex
    holds, pays, shares out and keeps, and whether the strategy's guards hold
    there, depend only on its parent edge: `_state(v, p)` settles v under
    parent edge p.  `charge(root)` reads each vertex's state under its parent
    edge from root, names the cases and closes the books; `charge_all()`
    reads every state once and gives every root's verdict.
    """

    def __init__(self, trace: engine.Trace, witness: OptWitness, scale: int, target):
        g = trace.graph
        if not g.is_tree():
            raise GraphError("charging strategies for trees require a tree")
        audit_witness(g, trace.k, witness)
        self.trace, self.witness = trace, witness
        self.klass, self.d_c, self.d_d = edge_classes(trace, witness)
        self.colors = colors = trace.coloring.colors
        self.opt_only = [e for e, kl in self.klass.items() if kl == "opt-only"]
        # each vertex's rejected optimum edges (at most k), in edge-id order
        self.opt_at = opt_at = [()] * g.num_vertices
        for e in self.opt_only:
            for x in g.edges[e]:
                opt_at[x] += (e,)
        unit = math.lcm(*range(1, max(map(len, opt_at)) + 1))
        self.unit, self.scale, self.target = unit, scale * unit, target * unit
        self.v_i = [0 if c is None else self.scale for c in colors]
        self.total = self.scale * trace.colored_count
        self.exact = _unscaler(self.scale)
        # under parent edge p (through[-1] = 0 at the root) v holds below[v] -
        # through[p]: as the root it holds each colored edge's surplus and the
        # credit fed past each double edge towards it, fed[2f + i] from its end
        # edges[f][i]; a parent edge sends its surplus the other way instead
        # and, when double, takes v's own credit on past itself
        edges, m, klass, credit = g.edges, g.num_edges, self.klass, self._credit
        below, through, fed = [0] * g.num_vertices, [0] * (m + 1), [0] * (2 * m)
        scale, surplus = self.scale, self.scale - self.target
        for f, kl in klass.items():
            if kl == "single" or kl == "double":
                u, w = edges[f]
                cu = cw = 0
                if kl == "double" and credit:
                    cu, cw = fed[2 * f], fed[2 * f + 1] = credit(f, u, w)
                through[f] = t = scale if kl == "single" else surplus + cu + cw
                below[u] += t - cu
                below[w] += t - cw
        self.below, self.through, self.fed = below, through, fed

    def _state(self, v: int, p: int):
        """v settled under parent edge p (-1 at the root): (pay, share, keep, guard).

        v pays a rejected optimum p up to C, splits the rest of its holding
        equally among its other rejected optimum edges (its child edges, as
        the graph is a tree) and keeps it when it has none.  The ledger's
        unit makes `rem // n` exact, on both coordinates of a surd; what a
        split drops is kept by no one, so the books show it as a leak.  guard
        is the strategy's first failing check at v, as (edge, order,
        message), or None.
        """
        held = self.below[v] - self.through[p]
        kl, kids = self.klass.get(p, ""), len(self.opt_at[v])
        pay = share = keep = 0
        if kl == "opt-only":
            pay = held if held < self.target else self.target
            kids -= 1
        rem = held - pay
        if kids and rem > 0:
            share = rem // kids
        else:
            keep = rem
        return pay, share, keep, self._guard(v, p, kl, held)

    def charge(self, root: int) -> VerdictReport:
        g, klass, target = self.trace.graph, self.klass, self.target
        parent_edge = (g.walk if root == 0 else rooted_view(g, (root,))).parent_edge  # walk starts at 0
        v_f = [target if kl == "double" else 0 for kl in klass.values()]
        share, residual, guards, state = [0] * g.num_vertices, 0, [], self._state
        for v, p in enumerate(parent_edge):  # each state is dropped once read: no tuples pile up
            pay, share[v], keep, guard = state(v, p)
            if pay:  # only to a rejected optimum parent edge, never at the root
                v_f[p] += pay
            residual += keep
            if guard is not None:
                guards.append(guard)
        if guards:  # the least (edge, order) fails first
            raise ChargingError(min(guards)[2])
        cases = {}  # named after the class of the edge above the parent end
        for e in self.opt_only:  # the parent end's share on top of the child end's pay
            x, y = g.edges[e]
            x = y if parent_edge[x] == e else x
            v_f[e] += share[x]
            cases[e] = self.case_of_parent[klass.get(parent_edge[x], "")]
        return _close(self.strategy, target, klass, cases, self.v_i, v_f, self.total,
                      self.witness.edges, self.exact, residual)

    def charge_all(self) -> list:
        """Every root's least margin v_f - C over the judged edges, in ledger
        units (None when nothing is judged), indexed by root: the verdicts of
        `charge` at each root, from one table and one rerooting walk.

        The table holds every vertex's `_state` under each incident edge and
        as the root, one flat list per field: slot 2f + i for the end
        edges[f][i] under parent edge f, slot 2m + v for root v.  Moving the
        root across an edge changes the states of its two ends only, and with
        them the v_f of the rejected optimum edges there, the books' balance
        (checked at every root) and the count of vertices whose guards fail.
        At the least root where a guard fails or value leaks, `charge` raises
        its own error.
        """
        g, klass, target, state = self.trace.graph, self.klass, self.target, self._state
        edges, incident, m, opt_at = g.edges, g.incident, g.num_edges, self.opt_at
        pays, shares, keeps, fails = [], [], [], []  # one list per field, no tuple per state
        # slot i < 2m is end i & 1 of edge i >> 1, then come the roots
        for i, v in enumerate(chain(chain.from_iterable(edges), range(g.num_vertices))):
            pay, share, keep, guard = state(v, i >> 1 if i < 2 * m else -1)
            pays.append(pay)
            shares.append(share)
            keeps.append(keep)
            fails.append(guard is not None)
        parent_edge = g.walk.parent_edge
        at = [2 * m + v if p == -1 else 2 * p + (edges[p][1] == v)
              for v, p in enumerate(parent_edge)]  # each vertex's slot

        def value(e):  # paid by the child end, plus the parent end's share
            u, w = edges[e]
            a, b = at[u], at[w]
            return pays[a] + shares[b] if a == 2 * e else pays[b] + shares[a]

        # a double-colored edge ends at C from every root
        v_f = [value(e) if kl == "opt-only" else target if kl == "double" else 0
               for e, kl in klass.items()]
        count = Counter(v_f[e] for e in self.witness.edges)
        heap = [v for v, c in count.items() if c]  # holds every value counted, and stale ones
        heapq.heapify(heap)
        balance = sum(v_f) + sum(keeps[i] for i in at) - self.total  # as `_close` checks it
        failing = sum(fails[i] for i in at)
        margins, refused = [None] * len(at), []

        def verdict(root):
            if failing or balance != 0:
                refused.append(root)
            while heap and not count[heap[0]]:
                heapq.heappop(heap)
            if heap:
                margins[root] = heap[0] - target

        def move(r, s, f):  # the root moves from r to its neighbour s across f
            nonlocal balance, failing
            for v, i in ((r, 2 * f + (edges[f][1] == r)), (s, 2 * m + s)):
                old = at[v]
                at[v] = i
                balance += keeps[i] - keeps[old]
                failing += fails[i] - fails[old]
            for e in chain(opt_at[r], opt_at[s]):
                if (new := value(e)) != (old := v_f[e]):
                    count[old] -= 1
                    count[new] += 1
                    v_f[e] = new
                    balance += new - old
                    if count[new] == 1:
                        heapq.heappush(heap, new)

        verdict(0)
        walk = [(0, iter(incident[0]))]  # depth first from root 0, moving the root along
        while walk:
            r, todo = walk[-1]
            f = next(todo, None)
            if f is None:
                walk.pop()
                if walk:
                    move(r, walk[-1][0], parent_edge[r])
            elif f != parent_edge[r]:
                s = g.other_end(f, r)
                move(r, s, f)
                verdict(s)
                walk.append((s, iter(incident[s])))
        if refused:
            root = min(refused)
            self.charge(root)
            raise ChargingError(f"the rerooting walk refuses root {root}, which charge({root}) passes")
        return margins

    # a strategy that routes defines `_credit(f, u, w)`: what ends u and w of
    # double edge f pass on past f when it is their parent edge
    _credit = None


class FFTreeCertificate(_TreeCertificate):
    """Certify a first-fit run on a tree at ratio C = (k-1)/k.

    Redistribution: each colored edge sends 1/k up past its parent edge when
    that edge is double-colored with a higher color (`_credit`), and the rest
    of its surplus to its parent vertex; each vertex then settles its own
    rejected parent edge (up to C) and splits the rest among its rejected
    optimum child edges.  Two structural facts about first-fit (a vertex
    holds at least c/k after seeing color c; high-colored double edges are
    fed by their children) are checked on the way (`_guard`).

    Construction refuses traces first-fit did not produce.  Values are kept
    multiplied by k times `unit`: C is (k-1)*unit and 1/k is `unit`, so
    values stay ints throughout.
    """

    strategy = "ff-tree"
    # rejected non-optimum parent edges move no value, same as absent ones
    case_of_parent = {"double": "1", "single": "2", "opt-only": "3",
                      "neither": "2", "": "2"}

    def __init__(self, trace: engine.Trace, witness: OptWitness):
        if not engine.audit_fair(trace, first_fit=True):
            raise ValueError("trace was not produced by first-fit; refusing to certify")
        k, free = trace.k, full_mask(trace.k)
        self.used = trace.coloring.used_masks(trace.graph.num_vertices)
        # the largest color unused at v in the final coloring, else 0
        self.top_free = [(~used & free).bit_length() for used in self.used]
        super().__init__(trace, witness, k, k - 1)

    def _credit(self, f, u, w):
        # 1/k from each colored edge at the child end below f's color
        below_f, unit, used = color_bit(self.colors[f]) - 1, self.unit, self.used
        return unit * (used[u] & below_f).bit_count(), unit * (used[w] & below_f).bit_count()

    def _guard(self, v, p, kl, held):
        # structural facts of the strategy (violations mean a bug, not a bad run);
        # the vertex-holdings fact is checked where the guarantee invokes it:
        # below an uncolored (or absent) parent edge -- a merely single-colored
        # parent edge may itself hold one of the counted colors
        if kl == "double":
            u, w = self.trace.graph.edges[p]
            x = w if v == u else u
            if self.colors[p] > self.top_free[x]:
                k, credit = self.trace.k, self.fed[2 * p + (v == w)]
                need = k - self.d_c[x]
                if credit < need * self.unit:
                    return p, 1, (f"high-colored double edge {p} routed only "
                                  f"{Fraction(credit, self.scale)} < {Fraction(need, k)} "
                                  "past itself")
        elif kl != "single" and held < self.used[v].bit_length() * self.unit:
            for f in self.trace.graph.incident[v]:  # the first child edge colored above held
                if (c := self.colors[f]) is not None and c * self.unit > held:
                    return f, 0, (f"vertex {v} holds {Fraction(held, self.scale)} < "
                                  f"{c}/{self.trace.k} despite color {c} at a child edge "
                                  "with no colored parent edge")
        return None


def ff_tree_charge(trace: engine.Trace, witness: OptWitness) -> VerdictReport:
    """Root-0 verdict of FFTreeCertificate, kept for the benchmark and tests."""
    return FFTreeCertificate(trace, witness).charge(0)


def fair_ratio(k: int):
    """(2*sqrt(k)-2)/(2*sqrt(k)-1), exact for every k: a Fraction for square
    k, otherwise the surd (4k-2-2*sqrt(k))/(4k-1)."""
    root = sqrt(k)
    return _ONE * (2 * root - 2) / (2 * root - 1)


class FairTreeCertificate(_TreeCertificate):
    """Certify any fair run on a tree at C = (2*sqrt(k)-2)/(2*sqrt(k)-1).

    Redistribution: every colored edge sends all of its surplus to its parent
    vertex (nothing is routed); each vertex settles its rejected-optimum
    parent edge up to C and splits the rest among its rejected-optimum child
    edges.  For each rejected optimum edge whose child endpoint cannot
    already cover C, `_guard` re-checks the case inequalities behind the
    guarantee exactly on the run's actual vertex tallies (`_check_fair_case`).

    Construction refuses traces that `engine.audit_fair` finds unfair; that
    audit is the one fairness check (each rejected edge arrived with all k
    colors at its endpoints, so the final coloring holds them too).  Values
    are kept multiplied by 2*sqrt(k)-1 times `unit` (see `_TreeCertificate`):
    C is 2*sqrt(k)-2, a colored edge is worth 2*sqrt(k)-1 and a
    double-colored one sends up 1.  They are ints at square k and surds
    a + b*sqrt(k) with int a and b otherwise.
    """

    strategy = "fair-tree"
    # rejected non-optimum parent edges move no value, same as absent ones
    case_of_parent = {"opt-only": "1", "single": "2", "double": "3",
                      "neither": "4", "": "4"}

    def __init__(self, trace: engine.Trace, witness: OptWitness):
        if not engine.audit_fair(trace):
            raise ValueError("trace is not fair; refusing to certify")
        root = sqrt(trace.k)
        super().__init__(trace, witness, 2 * root - 1, 2 * root - 2)

    def _guard(self, v, p, kl, held):
        """The case step at each rejected optimum child edge f of v whose child
        end y cannot pay C by itself, in the case v's parent edge names."""
        g, below, d_c, d_d = self.trace.graph, self.below, self.d_c, self.d_d
        for f in self.opt_at[v]:
            if f != p:
                y = g.other_end(f, v)
                if below[y] < self.target and (failure := _check_fair_case(
                        self.trace.k, self.case_of_parent[kl], d_c[v], d_d[v], d_c[y], d_d[y])):
                    return f, 0, f"edge {f}: {failure}"
        return None


def fair_tree_charge(trace: engine.Trace, witness: OptWitness) -> VerdictReport:
    """Root-0 verdict of FairTreeCertificate, kept for the benchmark and tests."""
    return FairTreeCertificate(trace, witness).charge(0)


@functools.cache
def _check_fair_case(k, case, dcx, ddx, dcy, ddy):
    """Why the case step fails at C = fair_ratio(k) on a rejected optimum edge
    whose parent end x and child end y have these colored and double edge
    counts, or None when it holds.

    Only binding when the child endpoint cannot already pay C by itself (the
    caller checks that); in that regime every colored edge there must be
    double-colored, and the three inequalities of the matching case must hold.
    A function of its arguments alone, cached, so each distinct tuple is judged
    once however many certificates meet it.
    """
    if dcy != ddy:
        return "child endpoint holds less than C yet has a single-colored edge"
    C = fair_ratio(k)
    if case == "1":
        holds = [
            dcx + (1 - C) * dcy * (k - ddx - 1) >= C * k,
            dcx + (1 - C) * dcy * (k - dcx - 1) >= C * k,
            dcx + (1 - C) * (k - dcx) * (k - dcx - 1) >= C * k,
        ]
    elif case == "2":
        holds = [
            dcx - 1 + (1 - C) * dcy * (k - ddx) >= C * k,
            dcx - 1 + (1 - C) * dcy * (k - (dcx - 1)) >= C * k,
            dcx - 1 + (1 - C) * (k - dcx) * (k - (dcx - 1)) >= C * k,
        ]
    else:  # cases 3 and 4 share the calculation
        holds = [
            dcx + C - 1 + (1 - C) * dcy * (k - ddx) >= C * k,
            dcx + C - 1 + (1 - C) * dcy * (k - dcx) >= C * k,
            dcx + C - 1 + (1 - C) * (k - dcx) * (k - dcx) >= C * k,
        ]
    return None if all(holds) else f"case-{case} inequality chain failed {holds}"


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
    positions = path_positions(getattr(order, "edges", order))
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
    """Certify the biased random pair strategy on a path reveal order: a
    reveal sequence (its ``edges`` and ``k``) or a bare edge list, at k = 2.

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
    if getattr(order, "k", 2) != 2:
        raise ValueError("the random pair strategy needs k = 2")
    bias = _as_exact(p)
    if not (Fraction(1, 2) <= bias <= 1):
        raise ValueError(f"p must lie in [1/2, 1], got {p}")
    target = rp_competitive_ratio(bias) if C is None else _as_exact(C)
    positions, by_pos, crit, depth = _path_layout(order)

    # a critical edge's initial value: its neighbors agree with probability
    # p^2 + (1-p)^2 at equal depth parities and 2p(1-p) at mixed ones
    bases = (_ONE, bias * bias + (1 - bias) * (1 - bias), 2 * bias * (1 - bias))
    half = (1 - target) / 2

    @functools.cache
    def exact(key):  # the ledger int 3n + b is bases[b] plus n half-slacks
        n, b = divmod(key, 3)
        return bases[b] if n == 0 else bases[b] + n * half

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

    overdrawn = {key for key in {v_f[step] for step in payers} if exact(key) < target}
    if overdrawn:
        step = min(step for step in payers if v_f[step] in overdrawn)
        raise ChargingError(
            f"non-critical edge at step {step} was left with {exact(v_f[step])} "
            f"< C = {target}"
        )
    # C is a non-critical edge's 1 less two half-slacks
    return _close("rp-path", -2 * h, klass, case, v_i, v_f, sum(v_i), range(m), exact)
