"""Matching combinatorics of simple graphs.

j-match counts come from vertex elimination: the lowest remaining vertex v is
left unmatched or matched to a remaining neighbour u, so over vertex sets S
p(S, j) = p(S - v, j) + sum_u p(S - v - u, j - 1).  Twins, vertices with equal
open or closed neighbourhoods, are interchangeable, so the sum takes one
member per twin class times the class's count.  The memo is keyed on the
remaining vertex bitmask: n + 1 states for K_n, at most prod (n_i + 1) for
K_(n_1, ..., n_k).  Classes are eliminated in a greedy frontier order, which
about halves the states of a random graph against label order.  On K_m the
elimination is the recurrence p_m = p_(m-1) + (m-1) x p_(m-2), the
combinatorial proof that K_m's matching polynomial is He_m.  Each table is
one int of fixed-width slots, so adding tables is one `+` and raising j is
one shift.  Complete k-partite perfect-match counts have closed forms for two
and three parts; any other count is the Hermite product integral, folded
part by part through the He linearization coefficients and closed by the
three-part form: at most three parts in the thousands take milliseconds.
"""

import itertools
import math
from collections import namedtuple

from .exactpoly import ExactPolynomial, _check_order
from .polynomials import SQRT_TWO_PI, _pairing_column, _rounded

MAX_MATCH_VERTICES = 24


class GraphFileError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SimpleGraph(namedtuple("SimpleGraph", "vertex_count edges")):
    """Simple undirected graph on vertices 1..|v|; edges a frozenset of (u, v) with u < v."""

    __slots__ = ()

    def __new__(cls, vertex_count, edges):
        if (vertex_count := _check_order(vertex_count, "vertex count")) < 1:
            raise ValueError("graph needs at least one vertex")
        ints, edges = (True, edges) if type(edges) is frozenset else (False, tuple(edges))
        for u, v in edges:
            if not type(u) is type(v) is int:  # numpy's integers too: rebuilt below as ints
                u, v, ints = _check_order(u, "vertex"), _check_order(v, "vertex"), False
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed")
            if not (1 <= u < v <= vertex_count):
                raise ValueError(f"edge ({u}, {v}) not canonical for {vertex_count} vertices")
        edges = edges if ints else frozenset((int(u), int(v)) for u, v in edges)
        return super().__new__(cls, vertex_count, edges)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_edges(cls, vertex_count, edges):
        canonical = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(vertex_count=vertex_count, edges=canonical)

    @property
    def edge_count(self):
        return len(self.edges)


def parse_edge_list(text):
    """Read the edge-list format: first line |v|, then one 'u v' per line.

    Vertices are 1-indexed; duplicate pairs and loops are rejected with the
    offending line number.
    """
    lines = text.splitlines()
    vertex_count = None
    seen = set()
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if vertex_count is None:
            try:
                vertex_count = int(stripped)
            except ValueError:
                raise GraphFileError(number, f"expected the vertex count, got {stripped!r}") from None
            if vertex_count < 1:
                raise GraphFileError(number, f"vertex count must be positive, got {vertex_count}")
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphFileError(number, f"expected 'u v', got {stripped!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFileError(number, f"non-integer vertex in {stripped!r}") from None
        if u == v:
            raise GraphFileError(number, f"loop edge ({u}, {v}) not allowed")
        if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
            raise GraphFileError(number, f"vertex outside 1..{vertex_count} in ({u}, {v})")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise GraphFileError(number, f"duplicate edge ({u}, {v})")
        seen.add(pair)
    if vertex_count is None:
        raise GraphFileError(1, "empty graph file")
    return SimpleGraph(vertex_count=vertex_count, edges=frozenset(seen))


def format_edge_list(graph):
    lines = [str(graph.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines)


def match_count_table(graph):
    """All j-match counts (p(G,0), p(G,1), ..., p(G, nu(G))) exactly, by
    vertex elimination over packed tables: slot j of table(S) holds the
    j-match count of the subgraph induced on the vertex set S.

    Twins, vertices with equal open or equal closed neighbourhoods, are
    interchangeable, so S - v - u and S - v - u' have equal tables for twins
    u, u'.  Each twin class gets consecutive labels; among the partners of
    the eliminated vertex a class's lowest member stands for the run of its
    twins above it, and its sub-table is counted once per twin.  Removing
    the lowest vertex and such leaders keeps every class's remaining
    members its top labels, so K_n has n + 1 states and K_(n_1, ..., n_k)
    at most prod (n_i + 1).  The classes are laid out in frontier order:
    next the class that leaves the fewest unplaced vertices adjacent to
    placed ones (the lowest on ties).  Once the labels below i are gone, a
    state is the rest less part of that frontier, so a random G(20, 0.6)
    takes 5 900-10 400 states (11 500-17 700 in label order) and a
    G(24, 0.5) 31 000 (91 000).
    """
    n = graph.vertex_count
    if n > MAX_MATCH_VERTICES:
        raise ValueError(f"graph has {n} vertices; match counting is "
                         f"guarded at {MAX_MATCH_VERTICES} (exponential beyond)")
    neighbours = [0] * n
    for u, v in graph.edges:
        neighbours[u - 1] |= 1 << (v - 1)
        neighbours[v - 1] |= 1 << (u - 1)
    false_twins, true_twins = {}, {}
    for v, mask in enumerate(neighbours):
        false_twins.setdefault(mask, []).append(v)
        true_twins.setdefault(mask | 1 << v, []).append(v)
    classes = {}  # lowest member -> (mask, members); a vertex is in at most one class of size > 1
    for v, mask in enumerate(neighbours):
        twins = false_twins[mask] if len(false_twins[mask]) > 1 else true_twins[mask | 1 << v]
        classes[twins[0]] = sum(1 << u for u in twins), twins
    order, follows, placed, reach = [], 0, 0, 0  # follows: labels whose predecessor is a twin
    while classes:
        # next the class that leaves the fewest unplaced vertices next to placed ones
        low = min(classes, key=lambda c: (
            (reach | neighbours[c]) & ~(placed | classes[c][0])).bit_count())
        members, twins = classes.pop(low)
        follows |= ((1 << len(twins)) - 2) << len(order)
        order += twins
        placed |= members
        reach |= neighbours[low]
    label = {v: i for i, v in enumerate(order)}
    neighbours = [0] * n
    for u, v in graph.edges:
        neighbours[label[u - 1]] |= 1 << label[v - 1]
        neighbours[label[v - 1]] |= 1 << label[u - 1]
    # any induced subgraph's counts stay below K_n's, so no slot carries
    width = max(_pairing_column(n, n, shift=0)).bit_length()
    memo = {0: 1}

    def table(mask):  # called only on masks not yet in memo; a table is never 0
        low = mask & -mask
        rest = mask ^ low
        packed = memo.get(rest) or table(rest)
        partners = neighbours[low.bit_length() - 1] & rest
        repeats = partners & (partners << 1) & follows
        while repeats:  # the twin u below a run of repeats stands for u and the run
            r = repeats & -repeats
            top, u = ~repeats & (repeats + r), r >> 1
            repeats ^= top - r
            partners ^= top - u
            twins = top.bit_length() - u.bit_length()
            packed += twins * (memo.get(rest ^ u) or table(rest ^ u)) << width
        while partners:
            u = partners & -partners
            packed += (memo.get(rest ^ u) or table(rest ^ u)) << width
            partners ^= u
        memo[mask] = packed
        return packed

    packed, slot, counts = table((1 << n) - 1), (1 << width) - 1, []
    while packed:
        counts.append(packed & slot)
        packed >>= width
    return tuple(counts)


def count_j_matches(graph, j):
    """Number of sets of j pairwise vertex-disjoint edges."""
    j = _check_order(j, "match size")
    counts = match_count_table(graph)
    return counts[j] if j < len(counts) else 0


def matching_polynomial(graph):
    """alpha(G, x) = sum_j (-1)^j p(G, j) x^(|v| - 2j), exactly."""
    m = graph.vertex_count
    coeffs = [0] * (m + 1)
    for j, p in enumerate(match_count_table(graph)):
        coeffs[m - 2 * j] = (-1) ** j * p
    return ExactPolynomial(coeffs)


def complete_graph(m):
    return complete_kpartite([1] * _check_order(m, "vertex count", 1))


def complete_kpartite(part_sizes):
    """Complete multipartite graph: edges exactly between distinct parts.

    Vertices are numbered consecutively part by part.
    """
    sizes = [_check_order(s, "part size") for s in part_sizes]
    return SimpleGraph(vertex_count=sum(sizes), edges=frozenset(_kpartite_edges(sizes)))


def _kpartite_edges(sizes):
    # the edges (u, v), u < v, in ascending order, lazily: each vertex meets every vertex of
    # the later parts, one range per vertex, not per pair of parts
    start = list(itertools.accumulate(sizes, initial=1))  # part i is start[i] .. start[i+1] - 1
    return ((u, v) for low, high in itertools.pairwise(start)
            for u in range(low, high) for v in range(high, start[-1]))


def count_complete_matches(part_sizes):
    """Perfect-match count P of the complete multipartite graph.

    P = int e^{-x^2/2} prod_i He_(n_i) / sqrt(2 pi).  The r parts of size 1
    are He_1^r = x^r, which seeds the product in He coefficients at once; all
    but the last two other factors are folded into it with
    linearization_coeffs, and the last two close it through the three-part
    form, P = sum_l c_l P(l, m, n).  Exact, iterative, and O(N^2) big-integer
    products for parts of total N.  Zero for odd total vertex count.
    """
    sizes = [_check_order(s, "part size") for s in part_sizes]
    *head, m, n = (0, 0, *(s for s in sizes if s != 1))  # He_0 = 1 pads short products
    r = sizes.count(1)
    product = {l: c for l, c in enumerate(_pairing_column(r, r, shift=0)) if c}
    for part in head:
        folded = {}
        for l, c in product.items():
            for t, a in linearization_coeffs(l, part).items():
                folded[t] = folded.get(t, 0) + c * a
        product = folded
    return sum(c * partite_closed_form([l, m, n]) for l, c in product.items())


def partite_closed_form(part_sizes):
    """Closed-form perfect-match count for two or three parts.

    Three parts are n! times the He_n coefficient of He_l He_m: with
    j = (l + m - n) / 2, P = C(l, j) C(m, j) j! n!, and 0 unless j is an
    integer in 0..min(l, m).  Two parts are three with l = 0, which leaves
    m! when m = n, else 0.
    """
    sizes = [_check_order(s, "part size") for s in part_sizes]
    if len(sizes) not in (2, 3):
        raise ValueError(f"closed forms exist for 2 or 3 parts, got {len(sizes)}")
    l, m, n = (0, *sizes)[-3:]
    j, odd = divmod(l + m - n, 2)
    if odd or not 0 <= j <= min(l, m):
        return 0
    return math.perm(l, j) * math.comb(m, j) * math.factorial(n)


def hermite_product_integral(orders):
    """int e^{-x^2/2} prod_i He_(n_i)(x) dx = sqrt(2*pi) P(n_1, ..., n_k)."""
    return SQRT_TWO_PI * _rounded(count_complete_matches(orders))


def linearization_coeffs(m, n):
    """He_m He_n = sum_j C(m,j) C(n,j) j! He_(m+n-2j); keys are the target
    orders l = m + n - 2j, descending.
    """
    m, n = _check_order(m, "order"), _check_order(n, "order")
    table, a = {}, 1
    for j in range(min(m, n) + 1):
        table[m + n - 2 * j] = a
        a = a * (m - j) * (n - j) // (j + 1)  # exact: the next coefficient is an integer
    return table
