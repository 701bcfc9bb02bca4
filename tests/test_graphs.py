"""Matching combinatorics against enumeration, closed forms, and quadrature."""

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
    GraphFileError,
    SimpleGraph,
    complete_graph,
    complete_kpartite,
    count_complete_matches,
    count_j_matches,
    eval_hermite,
    format_edge_list,
    gauss_hermite_rule,
    hermite_explicit,
    hermite_product_integral,
    hermite_recurrence,
    integrate_weighted,
    linearization_coeffs,
    match_count_table,
    matching_polynomial,
    parse_edge_list,
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

    def test_twin_classes_at_the_cap_are_fast(self):
        # K_m and complete multipartite graphs take n + 1, or at most prod (n_i + 1), states
        graphs = [complete_graph(m) for m in range(1, 25)]
        graphs += [complete_kpartite(p) for p in [(12, 12), (8, 8, 8), (6, 6, 6, 6), (4,) * 6]]
        start = time.perf_counter()
        for graph in graphs:
            match_count_table(graph)
        assert time.perf_counter() - start < 0.5

    def test_dense_graph_at_the_cap(self):
        rng = random.Random(24)
        edges = [(u, v) for u in range(1, 25) for v in range(u + 1, 25) if rng.random() < 0.5]
        start = time.perf_counter()
        table = match_count_table(SimpleGraph.from_edges(24, edges))
        assert time.perf_counter() - start < 10.0
        assert table[:2] == (1, len(edges)) and len(table) <= 13


class TestMatchingPolynomial:
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

    def test_rejects_loops_and_bad_edges(self):
        with pytest.raises(ValueError):
            SimpleGraph(vertex_count=3, edges=frozenset({(2, 2)}))
        with pytest.raises(ValueError):
            SimpleGraph(vertex_count=3, edges=frozenset({(1, 4)}))


class TestEdgeListFormat:
    def test_round_trip(self):
        graph = complete_kpartite([2, 1, 1])
        parsed = parse_edge_list(format_edge_list(graph))
        assert parsed == graph

    def test_duplicate_edge_reports_line(self):
        text = "3\n1 2\n2 1\n"
        with pytest.raises(GraphFileError, match="line 3"):
            parse_edge_list(text)

    def test_loop_reports_line(self):
        with pytest.raises(GraphFileError, match="line 2"):
            parse_edge_list("3\n2 2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFileError, match="line 2"):
            parse_edge_list("3\n1 4\n")

    def test_malformed_tokens(self):
        with pytest.raises(GraphFileError, match="line 1"):
            parse_edge_list("three\n1 2\n")
        with pytest.raises(GraphFileError, match="line 2"):
            parse_edge_list("3\n1 2 3\n")

    def test_empty_file(self):
        with pytest.raises(GraphFileError):
            parse_edge_list("\n\n")

    def test_single_vertex_file(self):
        assert parse_edge_list("1\n") == SimpleGraph(1, frozenset())
        with pytest.raises(GraphFileError, match="^line 1: vertex count must be positive, got 0$"):
            parse_edge_list("0\n")


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
