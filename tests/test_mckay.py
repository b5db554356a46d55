from fractions import Fraction
from functools import cached_property

import pytest

from crepant import mckay
from crepant.mckay import (
    GroupSpec,
    ade_equation,
    character_table,
    dimension_vector_check,
    dynkin_verdict,
    mckay_graph,
    resolution_graph,
)
from crepant.scalars import CycNum
from reference import inner_by_definition


def test_group_spec_parsing():
    assert GroupSpec.parse("a3") == GroupSpec("A", 3)
    assert GroupSpec.parse("D4").order == 8
    assert GroupSpec.parse("E8").order == 120
    for bad in ("F4", "E5", "D3", "", "Ax"):
        with pytest.raises(ValueError):
            GroupSpec.parse(bad)


@pytest.mark.parametrize("series,n,message", [
    ("A", -1, "A_n needs n >= 0"),
    ("D", 3, "D_n needs n >= 4"),
    ("E", 5, r"E_n needs n in \{6, 7, 8\}"),
    ("F", 4, "unknown series 'F'"),
])
def test_group_spec_validated(series, n, message):
    with pytest.raises(ValueError, match=message):
        GroupSpec(series, n)
    with pytest.raises(ValueError, match=message):
        GroupSpec(series=series, n=n)


def test_each_table_lifts_its_values_once(monkeypatch):
    calls, lift = [], mckay.CharacterTable._terms.func
    watched = cached_property(lambda table: calls.append(table) or lift(table))
    watched.__set_name__(mckay.CharacterTable, "_terms")
    monkeypatch.setattr(mckay.CharacterTable, "_terms", watched)
    table = mckay.cyclic_table(5)
    first = list(table.gram())
    assert len(calls) == 1  # on the first `gram`
    assert list(table.gram()) == first
    assert [(i, j) for i, j, nums, den in first if nums[0] == den] == [(i, i) for i in range(5)]
    list(table.gram(twisted=True))
    assert len(calls) == 1
    list(table._replace(values=table.values).gram())  # a new table lifts its own values
    assert len(calls) == 2


@pytest.mark.parametrize("label", ["A0", "A1", "A2", "A5", "D4", "D5", "D7",
                                   "E6", "E7", "E8"])
def test_character_tables_validate(label):
    spec = GroupSpec.parse(label)
    table = character_table(spec)  # validate() runs inside
    assert sum(table.class_sizes) == spec.order
    assert table.class_orders[0] == 1


@pytest.mark.parametrize("label", [f"A{n}" for n in range(13)] + [f"D{n}" for n in range(4, 13)]
                         + ["E6", "E7", "E8"])
def test_inner_matches_the_definition(label):
    # every Gram entry on the lifted terms against the inner product as
    # written: <chi_i, chi_j> and the <chi_Q chi_i, chi_j> the McKay graph reads
    table = character_table(GroupSpec.parse(label))
    products = [[q * x for q, x in zip(table.q_character, row)] for row in table.values]
    k, n = len(table.values), table._terms[0]
    for twisted, fs in ((False, table.values), (True, products)):
        entries = list(table.gram(twisted))
        assert [(i, j) for i, j, _, _ in entries] == [(i, j) for i in range(k) for j in range(i, k)]
        for i, j, nums, den in entries:
            value = CycNum(n, [Fraction(c, den) for c in nums])
            assert value == inner_by_definition(table, fs[i], j)


@pytest.mark.parametrize("label", ["D5", "E6", "E7", "E8"])
def test_mckay_graph_sends_no_cycnum_through_fraction(monkeypatch, label):
    # a Fraction left operand hands a CycNum to Fraction.__mul__/__add__,
    # which return NotImplemented before CycNum's reflected method runs
    seen = []

    def watch(name):
        method = getattr(Fraction, name)

        def watched(self, other):
            seen.append((name, type(other)))
            return method(self, other)
        return watched

    for name in ("__mul__", "__add__"):
        monkeypatch.setattr(Fraction, name, watch(name))
    character_table.cache_clear()  # build and validate the table inside too
    mckay_graph(GroupSpec.parse(label))
    assert [call for call in seen if call[1] is CycNum] == []
    # the watch is live: it sees a probe of the kind it rejects
    Fraction(1) * CycNum.zeta(3)
    Fraction(1) + CycNum.zeta(3)
    assert seen[-2:] == [("__mul__", CycNum), ("__add__", CycNum)]


def test_a_lowered_cap_rejects_the_lift_of_a_cached_mixed_table(monkeypatch):
    # D5 mixes conductors 4 and 6, which meet at 12: each Gram pass checks
    # the cap there, as a lift does, also on a cached table.  A10 has one
    # conductor, 11, which no pass lifts.
    for label in ("D5", "A10"):
        mckay_graph(GroupSpec.parse(label))
    monkeypatch.setenv("CREPANT_MAX_CONDUCTOR", "6")
    with pytest.raises(ValueError, match="^conductor 12 exceeds cap 6 "):
        mckay_graph(GroupSpec.parse("D5"))
    assert mckay_graph(GroupSpec.parse("A10")).dims == (1,) * 11


def test_validate_rejects_a_corrupted_entry():
    table = character_table(GroupSpec("E", 6))
    rows = [list(row) for row in table.values]
    assert rows[1][3] == CycNum.zeta(3)
    rows[1][3] = CycNum.zeta(3, 2)
    with pytest.raises(ValueError, match="row orthogonality fails at"):
        table._replace(values=tuple(map(tuple, rows))).validate()


def test_validate_rejects_a_table_that_is_not_square():
    table = character_table(GroupSpec("E", 6))
    with pytest.raises(ValueError, match="not square"):
        table._replace(values=table.values[:-1]).validate()


def test_validate_rejects_class_sizes_that_do_not_sum_to_the_order():
    table = character_table(GroupSpec("E", 6))
    with pytest.raises(ValueError, match="class sizes do not sum to the group order"):
        table._replace(class_sizes=(2, *table.class_sizes[1:])).validate()


def test_validate_rejects_squared_dimensions_that_do_not_sum_to_the_order():
    # Z_3: a character of degree 2 in place of chi_1 gives 1 + 4 + 1 = 6
    table = character_table(GroupSpec("A", 2))
    values = (table.values[0], (Fraction(2), *table.values[1][1:]), table.values[2])
    with pytest.raises(ValueError, match="squared dimensions do not sum to the group order"):
        table._replace(values=values).validate()


def test_mckay_graph_rejects_a_multiplicity_that_is_not_an_integer(monkeypatch):
    # half of Q meets each irreducible of Z_3 with multiplicity 0 or 1/2
    table = character_table(GroupSpec("A", 2))
    half_q = table._replace(q_character=tuple(v * Fraction(1, 2) for v in table.q_character))
    monkeypatch.setattr(mckay, "character_table", lambda spec: half_q)
    with pytest.raises(ValueError, match="multiplicity must be a nonnegative integer"):
        mckay_graph(GroupSpec("A", 2))


@pytest.mark.parametrize("label", ["A3", "D5", "E6"])
def test_dimension_vector_check_rejects_a_resolution_graph(label):
    # the finite diagram left without the trivial vertex has a positive
    # definite 2 I - A, which no dimension vector solves
    graph = mckay_graph(GroupSpec.parse(label))
    assert dimension_vector_check(graph)
    assert not dimension_vector_check(resolution_graph(graph))


@pytest.mark.parametrize("label", ["A3", "E6"])
def test_validate_rejects_q_of_degree_other_than_2(label):
    table = character_table(GroupSpec.parse(label))
    with pytest.raises(ValueError, match="2-dimensional"):
        table._replace(q_character=table.values[-1]).validate()


@pytest.mark.parametrize("label,verdict", [
    ("A0", "affine A0 (double self-loop)"),
    ("A1", "affine A1 (double edge)"),
    ("A2", "affine A2 (cycle)"),
    ("A7", "affine A7 (cycle)"),
    ("D4", "affine D4"),
    ("D6", "affine D6"),
    ("E6", "affine E6"),
    ("E7", "affine E7"),
    ("E8", "affine E8"),
])
def test_mckay_graphs_are_affine_dynkin(label, verdict):
    spec = GroupSpec.parse(label)
    graph = mckay_graph(spec)
    assert dynkin_verdict(graph) == verdict
    assert dimension_vector_check(graph)
    assert sum(d * d for d in graph.dims) == spec.order


def test_adjacency_symmetric():
    graph = mckay_graph(GroupSpec("D", 5))
    n = len(graph.dims)
    for i in range(n):
        for j in range(n):
            assert graph.adjacency[i][j] == graph.adjacency[j][i]


def test_resolution_graph_drops_trivial():
    full = mckay_graph(GroupSpec("E", 6))
    res = resolution_graph(full)
    assert len(res.dims) == len(full.dims) - 1
    # the resolution graph of E6 is the finite E6 diagram: a single
    # degree-3 branch vertex with arms (1, 2, 2)
    degrees = [sum(row) for row in res.adjacency]
    assert sorted(degrees) == [1, 1, 1, 2, 2, 3]


def test_exceptional_dimension_vectors():
    assert sorted(mckay_graph(GroupSpec("E", 6)).dims) == [1, 1, 1, 2, 2, 2, 3]
    assert sorted(mckay_graph(GroupSpec("E", 7)).dims) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sorted(mckay_graph(GroupSpec("E", 8)).dims) == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_graph_json_shape():
    data = mckay_graph(GroupSpec("A", 2)).to_json()
    assert [v["dim"] for v in data["vertices"]] == [1, 1, 1]
    assert sorted(data["edges"]) == [[0, 1, 1], [0, 2, 1], [1, 2, 1]]


def test_ade_equations():
    assert ade_equation(GroupSpec("A", 3)) == "x*y - z^4"
    assert ade_equation(GroupSpec("A", 1)) == "x*y - z^2"
    assert ade_equation(GroupSpec("D", 4)) == "x^2 + y^2*z + z^3"
    assert ade_equation(GroupSpec("E", 7)) == "x^2 + y^3 + y*z^3"
