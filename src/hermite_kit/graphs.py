"""Matching combinatorics of simple graphs.

j-match counts are tables packed into one int of fixed-width slots: adding
tables is one `+`, raising j one shift, and a disjoint union's table, the
product of its components', one `*`.  A connected set with a disconnected
complement takes Godsil's dual step, alpha(G, x) = sum_k p(G-bar, k)
He_(n-2k)(x), so cographs, K_n (He_n) among them, need no elimination.  A
set connected both ways is eliminated on its sparser side.  Complete
k-partite perfect-match counts have closed forms for two and three parts;
any other count is the Hermite product integral, folded part by part
through the He linearization coefficients and closed by the three-part
form: at most three parts in the thousands take milliseconds.
"""

import itertools
import math
from collections import namedtuple

from .exactpoly import ExactPolynomial, _check_order
from .polynomials import SQRT_TWO_PI, _pairing_column, _rounded

MAX_MATCH_VERTICES = 24


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


def match_count_table(graph):
    """All j-match counts (p(G,0), p(G,1), ..., p(G, nu(G))) exactly.

    A disconnected vertex set multiplies its components' tables; a connected
    one with a disconnected complement dualizes (`_dual`) the product of its
    complement's.  A set connected both ways is eliminated (`_eliminate`) on
    the side with fewer edges in it, G on ties."""
    n = graph.vertex_count
    if n > MAX_MATCH_VERTICES:
        raise ValueError(f"graph has {n} vertices; match counting is "
                         f"guarded at {MAX_MATCH_VERTICES} (exponential beyond)")
    neighbours, full = [0] * n, (1 << n) - 1
    for u, v in graph.edges:
        neighbours[u - 1] |= 1 << (v - 1)
        neighbours[v - 1] |= 1 << (u - 1)
    sides = neighbours, [full ^ mask ^ 1 << v for v, mask in enumerate(neighbours)]
    # any induced subgraph's counts stay below K_n's, so no product or sum carries
    width = max(_pairing_column(n, n, shift=0)).bit_length()

    def table(mask, side):  # the packed table of side 0 (G) or 1 (G-bar) induced on mask
        if (size := mask.bit_count()) == 1:
            return 1
        for route in (side, 1 - side):
            if len(parts := _components(sides[route], mask)) > 1:
                packed = math.prod(table(part, route) for part in parts)
                break
        else:  # prime both ways: G-bar if G has more than half the pairs in mask
            route = 2 * sum((m & mask).bit_count() for v, m in enumerate(neighbours)
                            if mask >> v & 1) > size * (size - 1)
            packed = _eliminate(sides[route], mask, width)
        return packed if route == side else _dual(packed, size, width)

    packed, slot = table(full, 0), (1 << width) - 1
    return tuple(packed >> width * j & slot for j in range(-(-packed.bit_length() // width)))


def _components(neighbours, mask):  # the vertex masks of the graph's components in mask
    parts = []
    while mask:
        part, todo = 0, mask & -mask
        while todo:
            low = todo & -todo
            part |= low
            todo = (todo | neighbours[low.bit_length() - 1]) & mask & ~part
        parts.append(part)
        mask ^= part
    return parts


def _dual(packed, size, width):
    """G's table from G-bar's, G on `size` vertices, by Godsil's p(G, j) = sum_k
    (-1)^k p(G-bar, k) c(size - 2k, j - k), where c(m, i), entry m - 2i of the
    pairing column, is K_m's i-match count.  The signed terms sum to G's table."""
    total, slot = 0, (1 << width) - 1
    for k in range(-(-packed.bit_length() // width)):
        clique = _pairing_column(size - 2 * k, size - 2 * k, shift=0)[::-2]
        clique = sum(c << width * (i + k) for i, c in enumerate(clique))
        total += (-1) ** k * (packed >> width * k & slot) * clique
    return total


def _eliminate(neighbours, mask, width):
    """The packed table of the graph induced on mask, memoized on the vertices
    left: the lowest one is left unmatched or matched to each neighbour left.
    The vertices are labelled in frontier order, next the one that leaves the
    fewest unplaced vertices adjacent to placed ones, the lowest on ties: a
    random G(20, 0.6) takes 7 700-10 800 states, 15 900-17 500 in label
    order, and its complement, the side it is counted on, 1 600-4 500.
    """
    neighbours = [m & mask for m in neighbours]
    order, reach = [], 0
    while mask:
        v = min((u for u in range(len(neighbours)) if mask >> u & 1),
                key=lambda u: ((reach | neighbours[u]) & (mask ^ 1 << u)).bit_count())
        order.append(v)
        mask ^= 1 << v
        reach |= neighbours[v]
    neighbours = [sum(1 << i for i, u in enumerate(order) if neighbours[v] >> u & 1)
                  for v in order]
    memo = {0: 1}

    def table(mask):  # called only on masks not yet in memo; a table is never 0
        low = mask & -mask
        rest = mask ^ low
        packed = memo.get(rest) or table(rest)
        partners = neighbours[low.bit_length() - 1] & rest
        while partners:
            u = partners & -partners
            packed += (memo.get(rest ^ u) or table(rest ^ u)) << width
            partners ^= u
        memo[mask] = packed
        return packed

    return table((1 << len(order)) - 1)


def count_j_matches(graph, j):
    """Number of sets of j pairwise vertex-disjoint edges."""
    j = _check_order(j, "match size")
    counts = match_count_table(graph)
    return counts[j] if j < len(counts) else 0


def matching_polynomial(graph):
    """alpha(G, x) = sum_j (-1)^j p(G, j) x^(|v| - 2j), exactly."""
    counts, m = match_count_table(graph), graph.vertex_count  # the cap before the list
    coeffs = [0] * (m + 1)
    for j, p in enumerate(counts):
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
    # the later parts, one range per vertex, not per pair of parts; a part with no vertex after
    # it is skipped, not walked, so an edgeless graph of any size takes no time
    start = list(itertools.accumulate(sizes, initial=1))  # part i is start[i] .. start[i+1] - 1
    return ((u, v) for low, high in itertools.pairwise(start) if high < start[-1]
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
