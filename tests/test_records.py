"""The package's value records: immutable, hashable, shown as
``Name(field=value, ...)``, and the four that check their inputs keep
their messages."""

from fractions import Fraction

import pytest

from erdosmoser import (
    CandidateSet,
    CaseKind,
    ClearedPoly,
    DivisorBudget,
    DomainError,
    IntPoly,
    PowerSumQuery,
    RatioPoint,
    RatioSeries,
    RealArg,
    SearchHit,
    SignReport,
    candidate_roots,
    cleared_poly,
    dominance_ratio,
    dominance_series,
    integer_candidates,
    sign_reports,
)

RECORDS = {
    CandidateSet: candidate_roots(4),
    ClearedPoly: cleared_poly(4),
    SearchHit: SearchHit(1, 3),
    SignReport: sign_reports(4, integer_candidates(4))[-1],
    RatioPoint: dominance_ratio(4, CaseKind.EVEN_KM1),
    RatioSeries: dominance_series(CaseKind.EVEN_KM1, 4, 8),
    PowerSumQuery: PowerSumQuery(3, 2),
    DivisorBudget: DivisorBudget(10),
    RealArg: RealArg(Fraction(7, 2)),
    IntPoly: IntPoly((1, 2)),
}
by_record = pytest.mark.parametrize(
    "cls, record", RECORDS.items(), ids=[cls.__name__ for cls in RECORDS]
)


@by_record
def test_fields_are_read_only(cls, record):
    assert type(record) is cls
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.note = "no new attributes either"


@by_record
def test_hash_and_equality_by_value(cls, record):
    rebuilt = cls(*record)
    assert rebuilt == record and hash(rebuilt) == hash(record)


@by_record
def test_repr_names_every_field(cls, record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (PowerSumQuery, (-1, 2), "upper limit must be >= 0, got -1"),
        (PowerSumQuery, (5, 0), "exponent must be >= 1, got 0"),
        (DivisorBudget, (1,), "max_trial must be >= 2, got 1"),
        (RealArg, (Fraction(3, 2),), "evaluation point must be >= 2, got 3/2"),
    ],
    ids=["query-n", "query-k", "budget", "real-arg"],
)
def test_validation_messages(cls, args, message):
    with pytest.raises(DomainError) as exc:
        cls(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PowerSumQuery._make((-1, 2)), "upper limit must be >= 0, got -1"),
        (lambda: PowerSumQuery(3, 2)._replace(k=0), "exponent must be >= 1, got 0"),
        (lambda: DivisorBudget._make([1]), "max_trial must be >= 2, got 1"),
        (lambda: DivisorBudget(5)._replace(max_trial=1), "max_trial must be >= 2, got 1"),
        (lambda: RealArg._make([Fraction(3, 2)]), "evaluation point must be >= 2, got 3/2"),
        (lambda: RealArg(3)._replace(m=1), "evaluation point must be >= 2, got 1"),
    ],
    ids=["query-make", "query-replace", "budget-make", "budget-replace", "real-make", "real-replace"],
)
def test_make_and_replace_validate(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message


def test_make_and_replace_normalize():
    assert type(RealArg._make([3]).m) is Fraction
    assert type(RealArg(3)._replace(m="7/2").m) is Fraction


def test_keyword_construction_validates_too():
    assert PowerSumQuery(n=3, k=2) == PowerSumQuery(3, 2)
    assert DivisorBudget(max_trial=10).max_trial == 10
    with pytest.raises(DomainError):
        RealArg(m=1)


@pytest.mark.parametrize("m", [3, 3.5, "7/2", Fraction(9, 4)])
def test_real_arg_holds_a_fraction(m):
    arg = RealArg(m)
    assert type(arg.m) is Fraction and arg.m == Fraction(m)


def test_search_hits_sort_by_k_then_m():
    hits = [SearchHit(2, 1), SearchHit(1, 5), SearchHit(1, 3)]
    assert sorted(hits) == [SearchHit(1, 3), SearchHit(1, 5), SearchHit(2, 1)]
    assert repr(SearchHit(1, 3)) == "SearchHit(k=1, m=3)"
