"""Matching combinatorics against enumeration, closed forms, and quadrature."""

import contextlib
import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_kit import (
    ExactPolynomial,
    SimpleGraph,
    complete_graph,
    complete_kpartite,
    count_complete_matches,
    count_j_matches,
    eval_hermite,
    gauss_hermite_rule,
    hermite_explicit,
    hermite_product_integral,
    hermite_recurrence,
    integrate_weighted,
    linearization_coeffs,
    match_count_table,
    matching_polynomial,
    partite_closed_form,
)
from hermite_kit import graphs
from hermite_kit.moments import change_of_basis

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def enumerate_j_matches(graph, j):
    """Literal enumeration oracle: filter all j-subsets of edges for
    pairwise disjointness.  Only for small graphs."""
    count = 0
    for combo in itertools.combinations(sorted(graph.edges), j):
        used = set()
        for u, v in combo:
            if u in used or v in used:
                break
            used.add(u)
            used.add(v)
        else:
            count += 1
    return count


def six_factorial_count(l, m, n):
    """l! m! n! / ((s-l)! (s-m)! (s-n)!) with half-sum s, 0 for an odd total or
    a part larger than the other two together: the three-part perfect-match
    count from factorials alone, independent of the linearization coefficient."""
    s, odd = divmod(l + m + n, 2)
    if odd or s < max(l, m, n):
        return 0
    f = math.factorial
    return f(l) * f(m) * f(n) // (f(s - l) * f(s - m) * f(s - n))


def edge_deletion_table(graph):
    """The pivot-edge deletion recurrence p(G, j) = p(G - e, j) +
    p(G - {u, v}, j - 1), memoized on the residual edge set: an oracle
    independent of the library's vertex elimination."""
    edges = sorted(graph.edges)
    if not edges:
        return (1,)
    incident = {}
    for bit, (u, v) in enumerate(edges):
        incident[u] = incident.get(u, 0) | (1 << bit)
        incident[v] = incident.get(v, 0) | (1 << bit)

    @functools.lru_cache(maxsize=None)
    def table(mask):
        if not mask:
            return (1,)
        bit = (mask & -mask).bit_length() - 1
        u, v = edges[bit]
        keep = table(mask & ~(1 << bit))
        drop = table(mask & ~incident[u] & ~incident[v])
        combined = list(keep) + [0] * (max(len(keep), len(drop) + 1) - len(keep))
        for j, c in enumerate(drop):
            combined[j + 1] += c
        return tuple(combined)

    return table((1 << len(edges)) - 1)


def neighbour_masks(graph):
    masks = [0] * graph.vertex_count
    for u, v in graph.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return masks


def complement(graph):
    n = graph.vertex_count
    pairs = itertools.combinations(range(1, n + 1), 2)
    return SimpleGraph.from_edges(n, [pair for pair in pairs if pair not in graph.edges])


def direct_table(graph):
    """The counts by vertex elimination on the graph itself, the whole vertex
    set at once: no component split, no complement and no dual step."""
    n = graph.vertex_count
    width = max(graphs._pairing_column(n, n, shift=0)).bit_length()
    packed, counts = graphs._eliminate(neighbour_masks(graph), (1 << n) - 1, width), []
    while packed:
        counts.append(packed & (1 << width) - 1)
        packed >>= width
    return tuple(counts)


def direct_alpha(graph):
    """alpha(G, x) = sum_j (-1)^j p(G, j) x^(n - 2j) from the direct route's counts."""
    n, coeffs = graph.vertex_count, [0] * (graph.vertex_count + 1)
    for j, c in enumerate(direct_table(graph)):
        coeffs[n - 2 * j] = (-1) ** j * c
    return ExactPolynomial(coeffs)


def is_connected(graph, vertices):
    """Breadth-first search over the edge set, on the subgraph induced on vertices."""
    vertices = set(vertices)
    seen, todo = set(), [min(vertices)]
    while todo:
        v = todo.pop()
        seen.add(v)
        todo += [u for u in vertices - seen if (min(u, v), max(u, v)) in graph.edges]
    return seen == vertices


@contextlib.contextmanager
def recorded_routes():
    """Record each elimination as (neighbour masks, vertex mask) and each dual
    step as ("dual", size) while match_count_table runs."""
    calls, eliminate, dual = [], graphs._eliminate, graphs._dual
    graphs._eliminate = lambda nb, mask, width: calls.append((nb, mask)) or eliminate(nb, mask, width)
    graphs._dual = lambda packed, size, width: calls.append(("dual", size)) or dual(packed, size, width)
    try:
        yield calls
    finally:
        graphs._eliminate, graphs._dual = eliminate, dual


def part_lowering_count(part_sizes):
    """The combinatorial route to perfect matches of K_(n_1, ..., n_k): a
    vertex of the smallest nonzero part pairs with one of the n_i vertices of
    another part, so P = sum_i n_i P(parts with both lowered by one).
    Memoized on the sorted multiset; it recurses once per vertex pair, so it
    serves only small totals."""

    @functools.lru_cache(maxsize=None)
    def rec(key):
        if not key:
            return 1
        pivot, rest = key[0], key[1:]
        total = 0
        for i, size in enumerate(rest):
            lowered = (pivot - 1, *rest[:i], size - 1, *rest[i + 1 :])
            total += size * rec(tuple(sorted(s for s in lowered if s > 0)))
        return total

    sizes = sorted(s for s in part_sizes if s > 0)
    return 0 if sum(sizes) % 2 else rec(tuple(sizes))


@st.composite
def partitions(draw, max_parts=5, max_total=40):
    sizes = []
    for _ in range(draw(st.integers(0, max_parts))):
        sizes.append(draw(st.integers(0, max_total - sum(sizes))))
    return draw(st.permutations(sizes))


@st.composite
def simple_graphs(draw, max_vertices):
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph.from_edges(n, [pair for pair, k in zip(pairs, keep) if k])


@st.composite
def cographs(draw, max_vertices):
    """Cographs: single vertices merged two at a time by disjoint union or by
    join (every edge between the two), on shuffled labels."""
    n = draw(st.integers(1, max_vertices))
    groups, edges = [[v] for v in draw(st.permutations(range(1, n + 1)))], []
    while len(groups) > 1:
        i = draw(st.integers(0, len(groups) - 2))
        a, b = groups.pop(i), groups.pop(i)
        if draw(st.booleans()):
            edges += [(u, v) for u in a for v in b]
        groups.append(a + b)
    return SimpleGraph.from_edges(n, edges)


@st.composite
def disjoint_unions(draw, max_vertices):
    """Two random graphs side by side on shuffled labels, with the two graphs."""
    first = draw(simple_graphs(max_vertices // 2))
    second = draw(simple_graphs(max_vertices - first.vertex_count))
    n, shift = first.vertex_count + second.vertex_count, first.vertex_count
    label = dict(enumerate(draw(st.permutations(range(1, n + 1))), start=1))
    edges = [*first.edges, *((u + shift, v + shift) for u, v in second.edges)]
    return SimpleGraph.from_edges(n, [(label[u], label[v]) for u, v in edges]), first, second


@st.composite
def planted_twin_graphs(draw, max_base=6):
    """A random base graph of at most max_base vertices, blown up: each vertex
    becomes a class of 1-3 twins, a clique or an independent set, classes are
    joined along the base edges, and the labels are shuffled so that no class
    need be consecutive."""
    base = draw(simple_graphs(max_base))
    sizes = draw(st.lists(st.integers(1, 3), min_size=base.vertex_count,
                          max_size=base.vertex_count))
    cliques = draw(st.lists(st.booleans(), min_size=base.vertex_count,
                            max_size=base.vertex_count))
    members = [[] for _ in sizes]
    for label, c in enumerate(draw(st.permutations(
            [c for c, size in enumerate(sizes) for _ in range(size)])), start=1):
        members[c].append(label)
    edges = [pair for c in range(len(sizes)) if cliques[c]
             for pair in itertools.combinations(members[c], 2)]
    edges += [(a, b) for u, v in base.edges for a in members[u - 1] for b in members[v - 1]]
    return SimpleGraph.from_edges(sum(sizes), edges)


def blown_up(base, size, clique):
    """base with each vertex made a class of size twins, a clique or an independent
    set, the classes joined along base's edges; class c is c * size + 1 .. (c + 1) * size."""
    members = [range(c * size + 1, (c + 1) * size + 1) for c in range(base.vertex_count)]
    edges = [pair for group in members if clique for pair in itertools.combinations(group, 2)]
    edges += [(a, b) for u, v in base.edges for a in members[u - 1] for b in members[v - 1]]
    return SimpleGraph.from_edges(base.vertex_count * size, edges)


def random_graph(rng, max_vertices=10):
    n = rng.randint(2, max_vertices)
    edges = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < 0.4:
                edges.add((u, v))
    return SimpleGraph(vertex_count=n, edges=frozenset(edges))


class TestMatchCounting:
    def test_known_small_graphs(self):
        c4 = complete_kpartite([2, 2])
        assert count_j_matches(c4, 2) == 2
        assert count_j_matches(c4, 0) == 1
        assert count_j_matches(complete_graph(4), 2) == 3

    def test_against_enumeration_on_random_graphs(self):
        rng = random.Random(1789)
        for _ in range(25):
            graph = random_graph(rng, max_vertices=8)
            table = match_count_table(graph)
            for j in range(len(table) + 1):
                assert count_j_matches(graph, j) == enumerate_j_matches(graph, j)

    def test_structural_counts_on_random_graphs(self):
        rng = random.Random(97)
        for _ in range(50):
            graph = random_graph(rng, max_vertices=10)
            table = match_count_table(graph)
            assert table[0] == 1
            if len(table) > 1:
                assert table[1] == graph.edge_count
            else:
                assert graph.edge_count == 0
            assert len(table) - 1 <= graph.vertex_count // 2
            for j in range(graph.vertex_count // 2 + 1, graph.vertex_count + 2):
                assert count_j_matches(graph, j) == 0

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            match_count_table(complete_graph(25))


class TestVertexElimination:
    @settings(max_examples=150, deadline=None)
    @given(simple_graphs(12))
    def test_matches_edge_deletion_oracle(self, graph):
        assert match_count_table(graph) == edge_deletion_table(graph)

    @settings(max_examples=300, deadline=None)
    @given(planted_twin_graphs())
    def test_planted_twins_match_edge_deletion_oracle(self, graph):
        assert match_count_table(graph) == edge_deletion_table(graph)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(simple_graphs(20), planted_twin_graphs()), st.data())
    def test_relabelling_leaves_the_table_unchanged(self, graph, data):
        # the frontier order depends on the labels; the counts must not
        n = graph.vertex_count
        relabel = dict(zip(range(1, n + 1), data.draw(st.permutations(range(1, n + 1)))))
        shuffled = SimpleGraph.from_edges(n, [(relabel[u], relabel[v]) for u, v in graph.edges])
        want = edge_deletion_table(graph) if n <= 12 else match_count_table(graph)
        assert match_count_table(shuffled) == want

    @settings(max_examples=100, deadline=None)
    @given(simple_graphs(8))
    def test_matches_enumeration(self, graph):
        table = match_count_table(graph)
        assert table == tuple(enumerate_j_matches(graph, j) for j in range(len(table)))
        assert enumerate_j_matches(graph, len(table)) == 0

    def test_complete_graphs_up_to_the_cap(self):
        # K_m's counts are the largest of any m-vertex graph, so they fill the packed slots
        f = math.factorial
        for m in range(1, 25):
            closed = tuple(f(m) // (2**j * f(m - 2 * j) * f(j)) for j in range(m // 2 + 1))
            assert match_count_table(complete_graph(m)) == closed

    def test_slot_width_is_the_largest_pairing_count(self):
        # the packed slot of n vertices is as wide as the largest count of K_n, comb * perm
        for n in range(1, 25):
            largest = max(math.comb(n, 2 * j) * math.perm(2 * j, j) >> j
                          for j in range(n // 2 + 1))
            assert max(graphs._pairing_column(n, n, shift=0)).bit_length() == \
                largest.bit_length()

    def test_edgeless_isolated_and_single_edge(self):
        assert match_count_table(SimpleGraph(vertex_count=1, edges=frozenset())) == (1,)
        assert match_count_table(SimpleGraph(vertex_count=24, edges=frozenset())) == (1,)
        assert match_count_table(SimpleGraph.from_edges(2, [(1, 2)])) == (1, 1)
        assert match_count_table(SimpleGraph.from_edges(24, [(23, 24)])) == (1, 1)
        # vertex 1 and 5 isolated, a triangle on 2..4 and the edge 6-7
        triangle_and_edge = [(2, 3), (3, 4), (2, 4), (6, 7)]
        assert match_count_table(SimpleGraph.from_edges(7, triangle_and_edge)) == (1, 4, 3)

    def test_perfect_match_slot_is_the_product_integral(self):
        # the paper's two routes: counting on the realized graph and the Hermite fold
        def multisets(total, largest):  # part multisets of the given total, descending
            if total == 0:
                yield ()
            for first in range(min(total, largest), 0, -1):
                for rest in multisets(total - first, first):
                    yield (first, *rest)

        small = [parts for total in range(1, 17) for parts in multisets(total, total)]
        assert len(small) == 914  # p(1) + ... + p(16)
        for parts in small + [(12, 12), (8, 8, 8), (6, 6, 6, 6), (4,) * 6]:
            table = match_count_table(complete_kpartite(parts))
            perfect = table[-1] if 2 * (len(table) - 1) == sum(parts) else 0
            assert perfect == count_complete_matches(parts), parts

    def test_cographs_at_the_cap_are_fast(self):
        # K_m and complete multipartite graphs are cographs: counted by products and
        # dual steps, with no elimination
        graphs = [complete_graph(m) for m in range(1, 25)]
        graphs += [complete_kpartite(p) for p in [(12, 12), (8, 8, 8), (6, 6, 6, 6), (4,) * 6]]
        start = time.perf_counter()
        for graph in graphs:
            match_count_table(graph)
        assert time.perf_counter() - start < 0.5

    def test_twin_rich_prime_graphs_are_fast(self):
        # blown up, P_4 .. C_6 and the bull stay connected both ways, so each is
        # eliminated whole, twins and all: 1-9 ms each on a 2-vCPU Xeon
        bull = SimpleGraph.from_edges(5, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5)])
        bases = [path(4), path(5), path(6), cycle(5), cycle(6), bull]
        blown = [blown_up(base, min(6, 24 // base.vertex_count), clique)
                 for base in bases for clique in (True, False)]
        elapsed = 0.0
        for graph in blown:
            with recorded_routes() as calls:
                start = time.perf_counter()
                table = match_count_table(graph)
                elapsed += time.perf_counter() - start
            full = (1 << graph.vertex_count) - 1
            assert any(call[0] != "dual" and call[1] == full for call in calls)
            assert table[:2] == (1, graph.edge_count)
        assert elapsed < 0.5

    def test_dense_graph_at_the_cap(self):
        rng = random.Random(24)
        edges = [(u, v) for u in range(1, 25) for v in range(u + 1, 25) if rng.random() < 0.5]
        start = time.perf_counter()
        table = match_count_table(SimpleGraph.from_edges(24, edges))
        assert time.perf_counter() - start < 10.0
        assert table[:2] == (1, len(edges)) and len(table) <= 13


def routed_table(graph):
    """match_count_table's counts and the routes it took; the counts checked
    against the direct route, and against enumeration up to 8 vertices."""
    with recorded_routes() as calls:
        table = match_count_table(graph)
    assert table == direct_table(graph)
    if graph.vertex_count <= 8:
        assert table == tuple(enumerate_j_matches(graph, j) for j in range(len(table)))
        assert enumerate_j_matches(graph, len(table)) == 0
    return table, calls


def path(n):
    return SimpleGraph.from_edges(n, [(v, v + 1) for v in range(1, n)])


def cycle(n):
    return SimpleGraph.from_edges(n, [(v, v % n + 1) for v in range(1, n + 1)])


class TestDecompositionRoutes:
    """Each route of match_count_table: components multiply, a connected set
    with a disconnected complement is dualized, and only a part connected
    both ways is eliminated, on its sparser side."""

    @settings(max_examples=80, deadline=None)
    @given(disjoint_unions(12))
    def test_components_multiply(self, union):
        graph, first, second = union
        table, calls = routed_table(graph)
        first, second = direct_table(first), direct_table(second)
        product = [0] * (len(first) + len(second) - 1)
        for i, a in enumerate(first):
            for j, b in enumerate(second):
                product[i + j] += a * b
        assert table == tuple(product)
        for call in calls:  # no eliminated part spans the two graphs
            if call[0] != "dual":
                vertices = [v + 1 for v in range(graph.vertex_count) if call[1] >> v & 1]
                assert is_connected(graph, vertices)

    @settings(max_examples=80, deadline=None)
    @given(cographs(12))
    def test_cographs_need_no_elimination(self, graph):
        _, calls = routed_table(graph)
        assert all(call[0] == "dual" for call in calls)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(simple_graphs(12), simple_graphs(12).map(complement)))
    def test_prime_parts_are_eliminated_on_the_sparser_side(self, graph):
        _, calls = routed_table(graph)
        masks, other = neighbour_masks(graph), complement(graph)
        for call in calls:
            if call[0] == "dual":
                continue
            nb, mask = call
            vertices = [v + 1 for v in range(graph.vertex_count) if mask >> v & 1]
            assert is_connected(graph, vertices) and is_connected(other, vertices)
            inside = sum(1 for u, v in graph.edges if u in vertices and v in vertices)
            pairs = math.comb(len(vertices), 2)
            assert (nb == masks) == (2 * inside <= pairs)  # the side with fewer edges, G on ties

    @pytest.mark.parametrize("graph, routes", [
        (path(6), ["G"]),
        (complement(path(6)), ["G-bar", ("dual", 6)]),
        (cycle(7), ["G"]),
        (complement(cycle(7)), ["G-bar", ("dual", 7)]),
        (path(4), ["G"]),  # self-complementary: a tie goes to G
        (cycle(5), ["G"]),
        (complete_kpartite([3, 3]), [("dual", 3), ("dual", 3), ("dual", 6)]),
        (complete_graph(8), [("dual", 8)]),
        (SimpleGraph.from_edges(2, []), []),  # K_1 + K_1
        (SimpleGraph.from_edges(1, []), []),
        (SimpleGraph.from_edges(8, []), []),
    ])
    def test_named_routes(self, graph, routes):
        _, calls = routed_table(graph)
        masks = neighbour_masks(graph)
        assert [call if call[0] == "dual" else ("G" if call[0] == masks else "G-bar")
                for call in calls] == routes

    @settings(max_examples=100, deadline=None)
    @given(simple_graphs(12))
    def test_godsil_duality(self, graph):
        # alpha(G, x) = sum_k p(G-bar, k) He_(n-2k)(x), both sides counted directly
        n, q = graph.vertex_count, direct_table(complement(graph))
        dual = sum((c * hermite_explicit(n - 2 * k) for k, c in enumerate(q)), ExactPolynomial())
        assert direct_alpha(graph) == dual == matching_polynomial(graph)

    def test_direct_route_on_complete_graphs_is_the_hermite_recurrence(self):
        # eliminated directly, K_m's table is p_m = p_(m-1) + (m-1) x p_(m-2), so He_m
        for m in range(1, 21):
            assert direct_alpha(complete_graph(m)) == hermite_recurrence(m)

    def test_dense_graphs_at_the_cap_are_fast(self):
        # by the complement these take about a millisecond each; eliminated
        # directly, 0.3-0.8 s each
        pairs = list(itertools.combinations(range(1, 25), 2))
        dense = [complement(cycle(24)), complement(path(24))]
        for seed in range(3):
            rng = random.Random(seed)
            dense.append(SimpleGraph.from_edges(24, [e for e in pairs if rng.random() < 0.9]))
        start = time.perf_counter()
        tables = [match_count_table(graph) for graph in dense]
        assert time.perf_counter() - start < 0.5
        # K_2m minus C_2m: 4, 31, 293, 3326, 44 189 perfect matchings at 2m = 6..14
        for m, count in zip(range(3, 8), (4, 31, 293, 3326, 44189)):
            assert match_count_table(complement(cycle(2 * m)))[m] == count
        assert [t[:2] for t in tables] == [(1, g.edge_count) for g in dense]


def remainder(a, b):
    """a mod b, coefficient lists in ascending powers with b's last entry nonzero;
    the result has no trailing zeros, so the zero polynomial is []."""
    a = list(a)
    while len(a) >= len(b):
        q, shift = a[-1] / b[-1], len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def exact_quotient(a, b):
    """a / b where b divides a, by long division from the top."""
    a, q = list(a), [Fraction(0)] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(q))):
        q[shift] = a[shift + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[shift + i] -= q[shift] * c
    assert not any(a)
    return q


def derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def distinct_real_roots(p):
    """Sturm's theorem: with p_0 = p, p_1 = p' and p_(k+1) = -(p_(k-1) mod p_k), the
    sign changes along the chain at -infinity less those at +infinity count the
    distinct real roots of p, exactly over Fraction."""
    chain = [p, derivative(p)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in remainder(chain[-2], chain[-1])])
    chain = [q for q in chain if q]

    def changes(signs):
        return sum(a != b for a, b in itertools.pairwise(signs))

    sign = [(q[-1] > 0) - (q[-1] < 0) for q in chain]
    return changes([s * (-1) ** (len(q) - 1) for s, q in zip(sign, chain)]) - changes(sign)


class TestHeilmannLieb:
    def test_sturm_count_sees_complex_roots(self):
        # x^2 + 1 has no real root, (x^2 + 1)(x - 1) one, (x^2 - 2)(x - 3) three
        assert distinct_real_roots([Fraction(c) for c in (1, 0, 1)]) == 0
        assert distinct_real_roots([Fraction(c) for c in (-1, 1, -1, 1)]) == 1
        assert distinct_real_roots([Fraction(c) for c in (6, -2, -3, 1)]) == 3

    @settings(max_examples=150, deadline=None)
    @given(simple_graphs(12))
    def test_matching_polynomials_have_only_real_roots(self, graph):
        # Heilmann-Lieb (1972): every root of alpha(G, x) is real, so its squarefree
        # part alpha / gcd(alpha, alpha') has as many distinct real roots as its degree
        alpha = [Fraction(c) for c in matching_polynomial(graph).coeffs]
        common, rest = alpha, derivative(alpha)
        while rest:
            common, rest = rest, remainder(common, rest)
        squarefree = exact_quotient(alpha, common)
        assert distinct_real_roots(squarefree) == len(squarefree) - 1


class TestMatchingPolynomial:
    def test_vertex_cap_comes_before_the_coefficient_list(self):
        # a 20-digit vertex count is refused by the cap, not by allocating the list
        graph = SimpleGraph(vertex_count=99999999999999999999, edges=frozenset())
        with pytest.raises(ValueError, match="graph has 99999999999999999999 vertices; "
                                             "match counting is guarded at 24"):
            matching_polynomial(graph)

    def test_edgeless_graph(self):
        graph = SimpleGraph(vertex_count=5, edges=frozenset())
        assert matching_polynomial(graph).coeffs == (0, 0, 0, 0, 0, 1)

    def test_cycle_and_complete(self):
        assert matching_polynomial(complete_kpartite([2, 2])).coeffs == (2, 0, -4, 0, 1)
        assert matching_polynomial(complete_graph(4)).coeffs == (3, 0, -6, 0, 1)

    def test_complete_graph_matches_hermite(self):
        for m in range(1, 21):
            assert matching_polynomial(complete_graph(m)) == hermite_recurrence(m)

    def test_verify_hermite_matching_range(self):
        # The pairing-count closed form is an oracle independent of the recurrence.
        for m in range(1, 21):
            assert matching_polynomial(complete_graph(m)) == hermite_explicit(m)


def grid_graph(rows, cols):
    """The rows x cols grid, vertex (r, c) labelled r * cols + c + 1."""
    label = {(r, c): r * cols + c + 1 for r in range(rows) for c in range(cols)}
    edges = [(label[r, c], label[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(label[r, c], label[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
    return SimpleGraph.from_edges(rows * cols, edges)


def kasteleyn_count(rows, cols):
    """Perfect matchings (domino tilings) of the rows x cols grid, Kasteleyn's and
    Temperley-Fisher's product of 4 cos^2(pi j / (rows + 1)) + 4 cos^2(pi k / (cols + 1))
    over j <= ceil(rows / 2), k <= ceil(cols / 2), rounded."""
    return round(math.prod(4 * math.cos(math.pi * j / (rows + 1)) ** 2
                           + 4 * math.cos(math.pi * k / (cols + 1)) ** 2
                           for j in range(1, (rows + 1) // 2 + 1)
                           for k in range(1, (cols + 1) // 2 + 1)))


def chebyshev(n, first):
    """Coefficients of T_n(y) (first kind) or U_n(y) by T_(k+1) = 2y T_k - T_(k-1), with
    T_1 = y and U_1 = 2y."""
    prev, cur = [1], [0, 1 if first else 2]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def at_half_x(coeffs, factor=1):
    # factor * p(x / 2) as an exact polynomial in x
    return ExactPolynomial([Fraction(factor * c, 2**i) for i, c in enumerate(coeffs)])


class TestClosedFormFamilies:
    @pytest.mark.parametrize("rows, cols, count", [(2, 12, 233), (3, 8, 153), (4, 6, 281)],
                             ids=["2x12", "3x8", "4x6"])
    def test_grid_perfect_matchings_are_kasteleyn_counts(self, rows, cols, count):
        assert kasteleyn_count(rows, cols) == count
        table = match_count_table(grid_graph(rows, cols))
        assert len(table) - 1 == rows * cols // 2 and table[-1] == count

    # Godsil (1993): alpha(P_n, x) = U_n(x / 2) and alpha(C_n, x) = 2 T_n(x / 2)
    def test_path_matching_polynomials_are_chebyshev_u(self):
        for n in range(1, 25):
            path = SimpleGraph.from_edges(n, [(v, v + 1) for v in range(1, n)])
            assert matching_polynomial(path) == at_half_x(chebyshev(n, first=False))

    def test_cycle_matching_polynomials_are_chebyshev_t(self):
        for n in range(3, 25):
            cycle = SimpleGraph.from_edges(n, [(v, v % n + 1) for v in range(1, n + 1)])
            assert matching_polynomial(cycle) == at_half_x(chebyshev(n, first=True), 2)


class TestGraphConstruction:
    def test_complete_graph_edge_counts(self):
        assert complete_graph(1).edge_count == 0
        assert complete_graph(4).edge_count == 6
        assert complete_graph(5).edge_count == 10

    def test_kpartite_small_cases(self):
        assert complete_kpartite([1, 1]).edges == {(1, 2)}
        assert complete_kpartite([1, 1, 1]).edges == {(1, 2), (1, 3), (2, 3)}
        c4 = complete_kpartite([2, 2])
        assert c4.edge_count == 4
        assert (1, 2) not in c4.edges and (3, 4) not in c4.edges

    @pytest.mark.parametrize("parts", [[10**30], [0, 0, 10**30], [0, 10**30, 0]])
    def test_an_edgeless_graph_of_any_size_is_built_at_once(self, parts):
        # a part with no vertex after it has no edges and is not walked vertex by vertex
        start = time.perf_counter()
        graph = complete_kpartite(parts)
        assert time.perf_counter() - start < 1.0
        assert graph == SimpleGraph(10**30, frozenset())

    def test_rejects_loops_and_bad_edges(self):
        with pytest.raises(ValueError):
            SimpleGraph(vertex_count=3, edges=frozenset({(2, 2)}))
        with pytest.raises(ValueError):
            SimpleGraph(vertex_count=3, edges=frozenset({(1, 4)}))


class TestCompleteMatchCounts:
    def test_two_part_factorial(self):
        assert count_complete_matches([3, 3]) == 6
        assert count_complete_matches([4, 4]) == 24
        assert count_complete_matches([3, 4]) == 0
        assert partite_closed_form([2, 2]) == 2

    def test_three_part_cases(self):
        assert count_complete_matches([1, 1, 2]) == 2
        assert partite_closed_form([1, 1, 2]) == 2
        assert count_complete_matches([2, 3, 3]) == 36
        assert partite_closed_form([2, 3, 3]) == 36
        assert partite_closed_form([1, 2, 4]) == 0

    def test_odd_total_is_zero(self):
        assert count_complete_matches([1, 2, 4]) == 0
        assert count_complete_matches([3]) == 0

    def test_degenerate_parts(self):
        assert count_complete_matches([]) == 1
        assert count_complete_matches([0, 0]) == 1
        assert count_complete_matches([0, 2, 2]) == 2

    def test_closed_form_matches_the_six_factorial_oracle(self):
        for l, m, n in itertools.product(range(40), repeat=3):
            assert partite_closed_form([l, m, n]) == six_factorial_count(l, m, n)
        for m, n in itertools.product(range(40), repeat=2):
            assert partite_closed_form([m, n]) == six_factorial_count(0, m, n)
        rng = random.Random(7)
        for _ in range(20):
            l, m = rng.randint(1000, 3000), rng.randint(1000, 3000)
            n = rng.randrange(abs(l - m), min(l + m, 3000) + 1, 2)  # even total, a nonzero count
            assert partite_closed_form([l, m, n]) == six_factorial_count(l, m, n) > 0

    def test_six_factorial_oracle_against_enumeration(self):
        # literal perfect-matching enumeration on K_(l,m,n) with at most 8 vertices
        for l, m, n in itertools.product(range(9), repeat=3):
            if 0 < (total := l + m + n) <= 8 and total % 2 == 0:
                brute = enumerate_j_matches(complete_kpartite([l, m, n]), total // 2)
                assert six_factorial_count(l, m, n) == brute

    def test_closed_form_arity_guard(self):
        with pytest.raises(ValueError):
            partite_closed_form([1, 1, 1, 1])

    def test_triple_agreement_small_totals(self):
        # recurrence vs perfect-match counting on the realized graph vs
        # closed forms, for all part multisets with total <= 10
        for k in (1, 2, 3):
            for parts in itertools.combinations_with_replacement(range(1, 11), k):
                total = sum(parts)
                if total > 10:
                    continue
                recurrence = count_complete_matches(parts)
                if total % 2 == 0:
                    brute = count_j_matches(complete_kpartite(parts), total // 2)
                else:
                    brute = 0
                assert recurrence == brute
                if k == 2:
                    assert recurrence == partite_closed_form(parts)
                if k == 3:
                    assert recurrence == partite_closed_form(parts)

    @settings(max_examples=200, deadline=None)
    @given(partitions())
    def test_fold_matches_part_lowering_recurrence(self, parts):
        assert count_complete_matches(parts) == part_lowering_count(parts)

    def test_parts_of_size_one_seed_the_fold(self):
        # r parts of size 1 are He_1^r = x^r: K_r has (r - 1)!! perfect matches for even r
        for r in range(14):
            assert count_complete_matches([1] * r) == (math.prod(range(1, r, 2)) if r % 2 == 0
                                                       else 0)
        # ones anywhere among the parts that fold and the two that close the fold
        rng = random.Random(3)
        for _ in range(300):
            parts = [rng.choice((0, 1, 1, 1, 2, 3, 4)) for _ in range(rng.randint(0, 8))]
            assert count_complete_matches(parts) == part_lowering_count(parts), parts

    def test_many_parts_of_size_one(self):
        # the ones seed the product at once, with no fold step per part
        start = time.perf_counter()
        count = count_complete_matches([1] * 2000)
        assert time.perf_counter() - start < 1.0
        assert count == math.prod(range(1, 2000, 2))

    def test_oracle_against_realized_graphs(self):
        for parts in [(2, 2, 2), (1, 1, 1, 1), (2, 1, 1, 2), (3, 1, 2, 2), (1, 1, 1, 1, 2)]:
            total = sum(parts)
            assert part_lowering_count(parts) == count_j_matches(
                complete_kpartite(parts), total // 2
            )

    def test_parts_in_the_thousands(self):
        # the former recursion raised RecursionError here
        start = time.perf_counter()
        count = count_complete_matches([3000, 2999, 2999])
        assert time.perf_counter() - start < 1.0
        assert count == partite_closed_form([3000, 2999, 2999])
        assert count_complete_matches([1200, 1200]) == math.factorial(1200)
        assert hermite_product_integral([1200, 1200]) == math.inf


class TestProductIntegrals:
    def test_all_zero_orders(self):
        assert hermite_product_integral([0, 0, 0]) == pytest.approx(SQRT_TWO_PI, rel=1e-15)

    def test_orthogonality_pairs(self):
        for n in range(6):
            assert hermite_product_integral([n, n]) == pytest.approx(
                SQRT_TWO_PI * math.factorial(n), rel=1e-15
            )
        assert hermite_product_integral([2, 4]) == 0.0

    def test_example_triple(self):
        assert hermite_product_integral([1, 1, 2]) == pytest.approx(2 * SQRT_TWO_PI, rel=1e-15)

    def test_against_quadrature(self):
        for orders in [(1, 1, 2), (2, 2, 2), (3, 3), (1, 2, 3), (2, 2, 3, 3), (4, 4, 2)]:
            total = sum(orders)
            rule = gauss_hermite_rule(total // 2 + 1)

            def product(x, orders=orders):
                value = 1.0
                for n in orders:
                    value *= eval_hermite(n, x)
                return value

            numeric = integrate_weighted(product, rule)
            combinatorial = hermite_product_integral(orders)
            assert abs(numeric - combinatorial) <= 1e-8 * max(1.0, abs(combinatorial))


class TestLinearization:
    def test_examples(self):
        assert linearization_coeffs(1, 1) == {2: 1, 0: 1}
        assert linearization_coeffs(2, 2) == {4: 1, 2: 4, 0: 2}
        assert linearization_coeffs(0, 5) == {5: 1}

    def test_product_reexpansion_oracle(self):
        # exact product He_m He_n, re-expanded through the basis matrices
        for m in range(11):
            for n in range(11):
                product = hermite_recurrence(m) * hermite_recurrence(n)
                degree = m + n
                to_he = change_of_basis(degree, "monomial", "he")
                he_coeffs = to_he.apply(product.coeffs)
                expected = linearization_coeffs(m, n)
                for l, c in enumerate(he_coeffs):
                    assert c == expected.get(l, 0)

    def test_matches_three_part_counts(self):
        # a(l, m, n) = P(l, m, n) / l! wherever the closed form applies
        for m in range(11):
            for n in range(11):
                coeffs = linearization_coeffs(m, n)
                for l in range(m + n + 1):
                    expected = partite_closed_form([l, m, n]) // math.factorial(l)
                    assert coeffs.get(l, 0) == expected
