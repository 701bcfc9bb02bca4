"""Matching combinatorics of simple graphs.

j-match counts come from the pivot-edge deletion recurrence
p(G, j) = p(G - e, j) + p(G - {u, v}, j - 1), memoized on the residual edge
set, which makes complete graphs up to 24 vertices tractable.  Complete
k-partite perfect-match counts use their own part-lowering recurrence and
have closed forms for two and three parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactpoly import ExactPolynomial
from .polynomials import SQRT_TWO_PI, hermite_recurrence, pairings

MAX_MATCH_VERTICES = 24


class GraphFileError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph without loops or multi-edges; vertices are 1..|v|."""

    vertex_count: int
    edges: frozenset  # frozenset of (u, v) pairs with u < v

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed")
            if not (1 <= u < v <= self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) not canonical for {self.vertex_count} vertices")

    @classmethod
    def from_edges(cls, vertex_count, edges):
        canonical = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed")
            canonical.add((min(u, v), max(u, v)))
        return cls(vertex_count=vertex_count, edges=frozenset(canonical))

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


def _check_size(graph):
    if graph.vertex_count > MAX_MATCH_VERTICES:
        raise ValueError(
            f"graph has {graph.vertex_count} vertices; match counting is "
            f"guarded at {MAX_MATCH_VERTICES} (exponential beyond)"
        )


def match_count_table(graph):
    """All j-match counts (p(G,0), p(G,1), ..., p(G, nu(G))) exactly."""
    _check_size(graph)
    edges = sorted(graph.edges)
    if not edges:
        return (1,)
    incident = {}
    for bit, (u, v) in enumerate(edges):
        incident[u] = incident.get(u, 0) | (1 << bit)
        incident[v] = incident.get(v, 0) | (1 << bit)
    memo = {0: (1,)}

    def table(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        bit = (mask & -mask).bit_length() - 1
        u, v = edges[bit]
        keep = table(mask & ~(1 << bit))
        drop = table(mask & ~incident[u] & ~incident[v])
        size = max(len(keep), len(drop) + 1)
        combined = list(keep) + [0] * (size - len(keep))
        for j, c in enumerate(drop):
            combined[j + 1] += c
        result = tuple(combined)
        memo[mask] = result
        return result

    return table((1 << len(edges)) - 1)


def count_j_matches(graph, j):
    """Number of sets of j pairwise vertex-disjoint edges."""
    if j < 0:
        raise ValueError("match size must be nonnegative")
    counts = match_count_table(graph)
    return counts[j] if j < len(counts) else 0


def matching_polynomial(graph):
    """alpha(G, x) = sum_j (-1)^j p(G, j) x^(|v| - 2j), exactly."""
    counts = match_count_table(graph)
    m = graph.vertex_count
    coeffs = [0] * (m + 1)
    for j, p in enumerate(counts):
        coeffs[m - 2 * j] = (-1) ** j * p
    return ExactPolynomial(coeffs)


def complete_graph(m):
    if m < 1:
        raise ValueError("complete graph needs at least one vertex")
    edges = frozenset((u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1))
    return SimpleGraph(vertex_count=m, edges=edges)


def complete_kpartite(part_sizes):
    """Complete multipartite graph: edges exactly between distinct parts.

    Vertices are numbered consecutively part by part.
    """
    sizes = [int(s) for s in part_sizes]
    if not sizes or any(s < 0 for s in sizes):
        raise ValueError("part sizes must be nonnegative, with at least one part")
    total = sum(sizes)
    if total < 1:
        raise ValueError("graph needs at least one vertex")
    boundaries = []
    start = 1
    for s in sizes:
        boundaries.append(range(start, start + s))
        start += s
    edges = set()
    for i, part_a in enumerate(boundaries):
        for part_b in boundaries[i + 1 :]:
            for u in part_a:
                for v in part_b:
                    edges.add((u, v))
    return SimpleGraph(vertex_count=total, edges=frozenset(edges))


def closed_form_complete_counts(m):
    """j-match counts of K_m from m! / (2^j (m-2j)! j!)."""
    return tuple(pairings(m, j) for j in range(m // 2 + 1))


def verify_hermite_matching(m):
    """True iff the matching polynomial of K_m equals He_m coefficientwise.

    Counts come from the deletion recurrence up to m = 14 and from the
    closed form above that (guarded at m = 20).
    """
    if not 1 <= m <= 20:
        raise ValueError(f"m must be in 1..20, got {m!r}")
    if m <= 14:
        counts = match_count_table(complete_graph(m))
    else:
        counts = closed_form_complete_counts(m)
    coeffs = [0] * (m + 1)
    for j, p in enumerate(counts):
        coeffs[m - 2 * j] = (-1) ** j * p
    return ExactPolynomial(coeffs) == hermite_recurrence(m)


def count_complete_matches(part_sizes):
    """Perfect-match count P of the complete multipartite graph.

    Uses the part-lowering recurrence P = sum_i n_i P^(1i) with the pivot
    on the first nonzero part, memoized on the sorted multiset of sizes.
    Zero for odd total vertex count.
    """
    sizes = tuple(int(s) for s in part_sizes)
    if any(s < 0 for s in sizes):
        raise ValueError("part sizes must be nonnegative")
    if sum(sizes) % 2:
        return 0
    memo = {}

    def rec(key):
        if not key:
            return 1
        if len(key) == 1:
            return 0
        hit = memo.get(key)
        if hit is not None:
            return hit
        pivot = key[0]
        total = 0
        for i in range(1, len(key)):
            lowered = list(key)
            lowered[0] = pivot - 1
            lowered[i] -= 1
            total += key[i] * rec(tuple(sorted(s for s in lowered if s > 0)))
        memo[key] = total
        return total

    return rec(tuple(sorted(s for s in sizes if s > 0)))


def partite_closed_form(part_sizes):
    """Closed-form perfect-match count for two or three parts.

    Two parts: m! when m = n, else 0.  Three parts with half-sum s:
    l! m! n! / ((s-l)! (s-m)! (s-n)!) when the total is even and each part
    is at most the sum of the other two, else 0.
    """
    sizes = tuple(int(s) for s in part_sizes)
    if len(sizes) == 2:
        m, n = sizes
        if m < 0 or n < 0:
            raise ValueError("part sizes must be nonnegative")
        return math.factorial(m) if m == n else 0
    if len(sizes) == 3:
        l, m, n = sizes
        if l < 0 or m < 0 or n < 0:
            raise ValueError("part sizes must be nonnegative")
        total = l + m + n
        if total % 2:
            return 0
        s = total // 2
        if s - l < 0 or s - m < 0 or s - n < 0:
            return 0
        return (
            math.factorial(l)
            * math.factorial(m)
            * math.factorial(n)
            // (math.factorial(s - l) * math.factorial(s - m) * math.factorial(s - n))
        )
    raise ValueError(f"closed forms exist for 2 or 3 parts, got {len(sizes)}")


def hermite_product_integral(orders):
    """int e^{-x^2/2} prod_i He_(n_i)(x) dx = sqrt(2*pi) P(n_1, ..., n_k)."""
    count = count_complete_matches(orders)
    try:
        return SQRT_TWO_PI * float(count)
    except OverflowError:
        return math.inf


def linearization_coeffs(m, n):
    """He_m He_n = sum_j C(m,j) C(n,j) j! He_(m+n-2j); keys are the target
    orders l = m + n - 2j, descending.
    """
    if m < 0 or n < 0:
        raise ValueError("orders must be nonnegative")
    return {
        m + n - 2 * j: math.comb(m, j) * math.comb(n, j) * math.factorial(j)
        for j in range(min(m, n) + 1)
    }
