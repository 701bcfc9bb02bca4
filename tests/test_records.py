"""The immutable records: construction, defaults, validation, equality, repr."""

import math

import numpy as np
import pytest

from hermite_kit import (
    DENSITY_WEIGHTED,
    PLAIN_RV,
    ChangeOfBasisMatrix,
    HermiteSeries,
    SimpleGraph,
    StandardizedMoments,
    WCETensorCoeffs,
    change_of_basis,
    evaluate_series,
    match_count_table,
    wce_coeffs_multi,
    wce_reconstruct,
)

# record class, its fields, the fields of an unequal record, and the repr
RECORDS = [
    (HermiteSeries, dict(coeffs=(0.5, -1.0), convention=PLAIN_RV),
     dict(coeffs=(0.5, -1.0), convention=DENSITY_WEIGHTED),
     "HermiteSeries(coeffs=(0.5, -1.0), convention='plain-rv')"),
    (StandardizedMoments, dict(mu=0.25, sigma=2.0, nu=(0.1, 3.5)),
     dict(mu=0.25, sigma=2.0, nu=(0.1,)),
     "StandardizedMoments(mu=0.25, sigma=2.0, nu=(0.1, 3.5))"),
    (WCETensorCoeffs, dict(dimension=2, tensors=(1.0, (0.5, 0.25))),
     dict(dimension=2, tensors=(1.0, (0.5, -0.25))),
     "WCETensorCoeffs(dimension=2, tensors=(1.0, (0.5, 0.25)))"),
    (ChangeOfBasisMatrix, dict(from_basis="he", to_basis="monomial", entries=((1, 0), (0, 1))),
     dict(from_basis="monomial", to_basis="he", entries=((1, 0), (0, 1))),
     "ChangeOfBasisMatrix(from_basis='he', to_basis='monomial', entries=((1, 0), (0, 1)))"),
    (SimpleGraph, dict(vertex_count=3, edges=frozenset({(2, 3)})),
     dict(vertex_count=3, edges=frozenset({(1, 3)})),
     "SimpleGraph(vertex_count=3, edges=frozenset({(2, 3)}))"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=IDS)
class TestRecord:
    def test_keyword_and_positional_construction(self, cls, fields, other, text):
        by_keyword = cls(**fields)
        assert by_keyword == cls(*fields.values())
        assert {name: getattr(by_keyword, name) for name in fields} == fields

    def test_assignment_raises_attribute_error(self, cls, fields, other, text):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert {name: getattr(record, name) for name in fields} == fields

    def test_equal_instances_hash_equal(self, cls, fields, other, text):
        first, second = cls(**fields), cls(**fields)
        assert first == second and hash(first) == hash(second)
        assert first != cls(**other)

    def test_repr(self, cls, fields, other, text):
        assert repr(cls(**fields)) == text


def test_records_hold_tuples():
    # a caller's list is copied: changing it later cannot get past the checks
    coeffs, nu, rows = [1.0], [0.5], [[1, 0], [0, 1]]
    series, moments = HermiteSeries(coeffs, PLAIN_RV), StandardizedMoments(0.0, 1.0, nu)
    matrix = ChangeOfBasisMatrix("he", "monomial", rows)
    coeffs.append(math.inf)
    nu.append(math.nan)
    rows[1].append(5)
    assert (series.coeffs, moments.nu, matrix.entries) == ((1.0,), (0.5,), ((1, 0), (0, 1)))
    with pytest.raises(AttributeError):
        series.coeffs.append(math.inf)


def test_a_list_equals_the_same_tuple():
    assert HermiteSeries([0.5, -1.0], PLAIN_RV) == HermiteSeries((0.5, -1.0), PLAIN_RV)
    assert StandardizedMoments(0.0, 1.0, [0.1]) == StandardizedMoments(0.0, 1.0, (0.1,))


def test_an_ndarray_is_accepted():
    series = HermiteSeries(np.array([1.0, 2.0]), DENSITY_WEIGHTED)
    assert series == HermiteSeries((1.0, 2.0), DENSITY_WEIGHTED)
    assert evaluate_series(series, 0.5) == evaluate_series(series._replace(coeffs=(1.0, 2.0)), 0.5)
    assert StandardizedMoments(0.0, 1.0, np.array([0.1, 3.0])).nu == (0.1, 3.0)
    with pytest.raises(ValueError, match="^series coefficients must be finite$"):
        HermiteSeries(np.array([1.0, np.inf]), PLAIN_RV)


def test_moments_nu_defaults_to_empty():
    assert StandardizedMoments(0.0, 1.0).nu == ()
    assert StandardizedMoments(mu=0.0, sigma=1.0) == StandardizedMoments(0.0, 1.0, ())


@pytest.mark.parametrize("kwargs, message", [
    (dict(coeffs=(1.0,), convention="other"), "unknown series convention 'other'"),
    (dict(coeffs=(), convention=PLAIN_RV), "series needs at least one coefficient"),
    (dict(coeffs=(1.0, math.inf), convention=DENSITY_WEIGHTED),
     "series coefficients must be finite"),
    (dict(coeffs=(math.nan,), convention=PLAIN_RV), "series coefficients must be finite"),
])
def test_series_validation_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        HermiteSeries(**kwargs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        HermiteSeries(kwargs["coeffs"], kwargs["convention"])


@pytest.mark.parametrize("sigma", [0.0, -1.5])
def test_moments_validation_message(sigma):
    with pytest.raises(ValueError, match=f"^sigma must be positive, got {sigma!r}$"):
        StandardizedMoments(mu=0.0, sigma=sigma)


@pytest.mark.parametrize("vertex_count, edges, message", [
    (0, (), "graph needs at least one vertex"),
    (3, ((2, 2),), r"loop edge \(2, 2\) not allowed"),
    (3, ((2, 1),), r"edge \(2, 1\) not canonical for 3 vertices"),
    (3, ((1, 4),), r"edge \(1, 4\) not canonical for 3 vertices"),
    # a vertex is an integer: a float endpoint, even a whole one, is refused by name
    (3, ((1.0, 2.0),), r"vertex must be a nonnegative integer, got 1\.0"),
    (3, ((1, 2), (2, 2.5)), r"vertex must be a nonnegative integer, got 2\.5"),
])
def test_graph_validation_messages(vertex_count, edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimpleGraph(vertex_count=vertex_count, edges=frozenset(edges))
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimpleGraph(vertex_count, frozenset(edges))


def test_graph_edges_are_a_frozenset_of_python_int_pairs():
    # a list, a generator or numpy's integers give the graph the Python ints give
    want = SimpleGraph(3, frozenset({(1, 2), (2, 3)}))
    for edges in ([(1, 2), [2, 3]], ((u, u + 1) for u in (1, 2)),
                  frozenset({(np.int64(1), np.uint8(2)), (2, np.int32(3))})):
        graph = SimpleGraph(3, edges)
        assert graph == want and type(graph.edges) is frozenset
        assert {type(u) for edge in graph.edges for u in edge} == {int}
        assert match_count_table(graph) == (1, 2)


def test_built_records_compare_by_value():
    assert change_of_basis(4, "he", "monomial") == change_of_basis(4, "he", "monomial")
    assert SimpleGraph.from_edges(3, [(2, 1)]) == SimpleGraph(3, frozenset({(1, 2)}))
    coeffs = wce_coeffs_multi(lambda y: float(y[0] * y[1]), 2, 2)
    assert WCETensorCoeffs(dimension=2, tensors=coeffs.tensors) == coeffs
    assert isinstance(coeffs.tensors[2], np.ndarray) and coeffs.tensors[2].shape == (2, 2)


@pytest.mark.parametrize("cls, fields, bad", [
    (HermiteSeries, ((1.0,), PLAIN_RV), [((), PLAIN_RV), ((1.0,), "bogus"), ((math.inf,), PLAIN_RV)]),
    (StandardizedMoments, (0.0, 1.0, ()), [(0.0, 0.0, ()), (0.0, math.nan, ())]),
    (SimpleGraph, (2, frozenset({(1, 2)})), [(0, frozenset()), (2, frozenset({(2, 1)}))]),
    (WCETensorCoeffs, (1, (np.array(1.0), np.zeros(1))),
     [(0, ()), (2, (np.array(1.0), np.zeros(1)))]),
    (ChangeOfBasisMatrix, ("he", "monomial", ((1, 0), (0, 1))),
     [("he", "monomial", ((1, 0), (0,)))]),
], ids=["HermiteSeries", "StandardizedMoments", "SimpleGraph", "WCETensorCoeffs",
        "ChangeOfBasisMatrix"])
def test_make_and_replace_validate(cls, fields, bad):
    record = cls._make(fields)
    assert record == cls(*fields) and type(record) is cls
    assert record._replace() == record
    for values in bad:
        with pytest.raises(ValueError):
            cls._make(values)
        with pytest.raises(ValueError):
            record._replace(**dict(zip(cls._fields, values)))


def test_replace_of_one_field_is_checked():
    with pytest.raises(ValueError, match="^series needs at least one coefficient$"):
        HermiteSeries((1.0,), PLAIN_RV)._replace(coeffs=())
    with pytest.raises(ValueError, match="^unknown series convention 'bogus'$"):
        HermiteSeries._make([(1.0,), "bogus"])
    with pytest.raises(ValueError, match="^sigma must be positive, got -2.0$"):
        StandardizedMoments(0.0, 1.0)._replace(sigma=-2.0)
    assert StandardizedMoments(0.0, 1.0)._replace(nu=(0.5,)).nu == (0.5,)


@pytest.mark.parametrize("build, message", [
    # a ragged matrix would apply and compose truncated, as if its missing entries were 0
    (lambda: ChangeOfBasisMatrix("monomial", "he", ((1, 2), (3,))),
     r"entries must be square, got row lengths \[2, 1\]"),
    # a misshapen tensor would be indexed past its end by wce_reconstruct
    (lambda: WCETensorCoeffs(2, (np.array(1.0), np.zeros(1))),
     r"tensor b\^\(1\) must have shape \(2,\), got \(1,\)"),
    (lambda: WCETensorCoeffs(0, ()), "dimension must be a positive integer, got 0"),
    # nested tuples are read one index at a time, so their shape is checked too
    (lambda: WCETensorCoeffs(1, (1.0, 2.0)),
     r"tensor b\^\(1\) must have shape \(1,\), got \(\)"),
    (lambda: WCETensorCoeffs(2, (1.0, (0.5, 0.25), ((1.0, 2.0), (3.0,)))),
     r"tensor b\^\(2\) must have shape \(2, 2\), got None"),
    (lambda: WCETensorCoeffs(2, (1.0, (0.5, 0.25, 0.0))),
     r"tensor b\^\(1\) must have shape \(2,\), got \(3,\)"),
    # an entry is a float, never text or a list that could change later, and an array's
    # dtype is real: wce_reconstruct once read "1.5" as 1.5 and failed on complex or None
    (lambda: WCETensorCoeffs(1, ("1.5",)), r"tensor b\^\(0\) must have shape \(\), got None"),
    (lambda: WCETensorCoeffs(1, (1.0, [0.5])),
     r"tensor b\^\(1\) must have shape \(1,\), got None"),
    (lambda: WCETensorCoeffs(1, (np.array("1.5"),)),
     r"tensor b\^\(0\) must have shape \(\), got None"),
    (lambda: WCETensorCoeffs(1, (1.0, np.array([1j]))),
     r"tensor b\^\(1\) must have shape \(1,\), got None"),
    (lambda: WCETensorCoeffs(1, (np.array(None),)),
     r"tensor b\^\(0\) must have shape \(\), got None"),
], ids=["ragged matrix", "misshapen tensor", "no dimension", "shallow tuple", "ragged tuple",
        "long tuple", "text", "list", "text array", "complex array", "object array"])
def test_malformed_records_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_a_tuple_record_reconstructs_as_its_array_record(dimension):
    # b^(0) a plain float and b^(r) nested tuples, read one index at a time
    rng = np.random.default_rng(dimension)
    arrays = [np.array(rng.normal())] + [rng.normal(size=(dimension,) * r) for r in (1, 2, 3)]
    tuples = tuple(map(_nested, arrays))
    point = tuple(rng.normal(size=dimension).tolist())
    want = wce_reconstruct(WCETensorCoeffs(dimension, arrays), point)
    assert wce_reconstruct(WCETensorCoeffs(dimension, tuples), point) == want
    assert wce_reconstruct(WCETensorCoeffs(dimension, (1.0,)), point) == 1.0


def _nested(array):  # an array as floats nested in tuples
    return tuple(_nested(a) for a in array) if array.ndim else float(array)
