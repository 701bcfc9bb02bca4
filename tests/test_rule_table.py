"""gauss_hermite.bin, the table every Gauss-Hermite rule is read from: each
rule it holds against the invariants of a Gauss-Hermite rule, and the file
against the builder in rule_table.py that made it."""

import math
import os
import sys

import numpy as np
import pytest

import rule_table
from hermite_kit import gauss_hermite_rule, polynomials
from rule_table import orthonormal_residual
from test_pinned_bits import PINNED_ON

pinned = pytest.mark.skipif((sys.version.split()[0], np.__version__) != PINNED_ON,
                            reason=f"table made on Python {PINNED_ON[0]}, numpy {PINNED_ON[1]}")


def test_every_tabled_rule_is_a_gauss_hermite_rule():
    # the file holds rules 1..MAX_ORDER and nothing else
    assert os.path.getsize(polynomials._RULE_TABLE) == 16 * ((polynomials.MAX_ORDER + 1) ** 2 // 4)
    for N in range(1, polynomials.MAX_ORDER + 1):
        nodes, weights = polynomials._read_rule(N)
        assert len(nodes) == len(weights) == N
        assert nodes == [-x for x in reversed(nodes)] and weights == weights[::-1], N
        if N % 2:
            assert math.copysign(1.0, nodes[N // 2]) == 1.0 and nodes[N // 2] == 0.0
        assert all(a < b for a, b in zip(nodes, nodes[1:])), N
        assert all(w > 0.0 for w in weights), N
        assert abs(math.fsum(weights) - polynomials.SQRT_TWO_PI) <= 1e-12 * polynomials.SQRT_TWO_PI
        assert all(abs(orthonormal_residual(N, x)) <= 1e-13 for x in nodes), N


@pinned
def test_the_builder_makes_the_checked_in_table():
    with open(polynomials._RULE_TABLE, "rb") as table:
        assert rule_table.table_bytes() == table.read()


@pinned
def test_newton_steps_of_the_builder(monkeypatch):
    # the eigensolver's nodes meet the tolerance at 125 orders; the other 75 take one step
    real_pair, calls = rule_table._orthonormal_pair, []

    def counted(n, x):
        calls.append(n)
        return real_pair(n, x)

    rule_table._build_rule.cache_clear()
    monkeypatch.setattr(rule_table, "_orthonormal_pair", counted)
    try:
        for N in range(1, polynomials.MAX_ORDER + 1):
            rule_table._build_rule(N)
    finally:
        rule_table._build_rule.cache_clear()
    steps = [calls.count(N) - 1 for N in range(1, polynomials.MAX_ORDER + 1)]
    assert [steps[N - 1] for N in (5, 20, 40, 100, 200)] == [0, 0, 0, 0, 1]
    assert (max(steps), sum(steps)) == (1, 75)


@pytest.mark.parametrize("N", [1, 2, 3, 20, 21, 22, 60, 120, 170, 171, 172, 200])
def test_newton_pair_matches_the_scalar_kernel(N):
    # (psi_N, psi_{N-1}) from the array path, at the nodes and on a grid across
    # them; N! first needs the even shift at N = 21 and leaves double range at 171
    nodes = gauss_hermite_rule(N).nodes
    xs = np.concatenate([nodes, np.linspace(nodes[0], nodes[-1], 41)])
    value, lower = rule_table._orthonormal_pair(N, xs)
    for x, v, w in zip(xs, value, lower):
        assert abs(v - orthonormal_residual(N, x)) <= 2e-14, x
        assert abs(w - orthonormal_residual(N - 1, x)) <= 2e-14, x


def test_non_convergence_names_first_node(monkeypatch):
    real = rule_table._orthonormal_pair

    def stuck_from_node_3(n, x):
        # a nan residual must count as not converged
        value, lower = real(n, x)
        return np.where(np.arange(len(x)) >= 3, np.nan, value), lower

    monkeypatch.setattr(rule_table, "_orthonormal_pair", stuck_from_node_3)
    monkeypatch.setattr(rule_table, "_NEWTON_MAX_ITER", 2)
    rule_table._build_rule.cache_clear()
    with pytest.raises(RuntimeError, match="node 3 of the order-9 rule did not converge"):
        rule_table._build_rule(9)


@pytest.mark.parametrize("N", [5, 20, 100, 200])
def test_newton_polishes_a_perturbed_start(N, monkeypatch):
    # the eigensolver's nodes already meet the tolerance, so Newton barely runs;
    # start it 1e-4 (1 + |x|) off, alternating in sign, so that the slope counts
    reference = gauss_hermite_rule(N).nodes
    rule_table._build_rule.cache_clear()
    real_eigvalsh, real_pair, calls = np.linalg.eigvalsh, rule_table._orthonormal_pair, []

    def perturbed(a):
        x = real_eigvalsh(a)
        return x + 1e-4 * (1.0 + np.abs(x)) * (-1.0) ** np.arange(len(x))

    def counted(n, x):
        calls.append(n)
        return real_pair(n, x)

    monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
    monkeypatch.setattr(rule_table, "_orthonormal_pair", counted)
    try:
        nodes = rule_table._build_rule(N).nodes
    finally:
        rule_table._build_rule.cache_clear()  # the polished rule must not serve later tests
    assert len(calls) - 1 <= 2  # Newton steps: every call but the last one, which converged
    assert np.all(np.abs(nodes - reference) <= 1e-13 * np.maximum(1.0, np.abs(reference)))
