"""RPN computation, ranking, collisions, discrepancies, matrices."""

from __future__ import annotations

from fractions import Fraction

import pytest

from fmeakit import (
    DEFAULT_BANDS,
    ClassBands,
    ClassLabel,
    FmeaEntry,
    MatrixAxes,
    RatingTriple,
    Worksheet,
    classify,
    collisions,
    discrepancies,
    rank,
    risk_matrix,
    rpn,
    summary_stats,
)

# Published RPN per fixture component, copied by hand as the oracle.
PUBLISHED_RPNS = {
    "Database": 96,
    "Server": 168,
    "Intelligent electronic device (IED)": 140,
    "Generator controller": 120,
    "Automatic transfer switch (ATS)": 80,
    "Renewable energy controller": 120,
    "Remote terminal unit (RTU)": 210,
    "Phasor measurement unit (PMU)": 120,
    "Disconnect switch": 112,
    "PHEV": 180,
    "PHEV supply equipment": 160,
    "Relay": 192,
    "Energy Management System (EMS)": 560,
    "Human-machine interface (HMI)": 336,
    "Smart meter": 210,
}


def make_ws(*triples: tuple[int, int, int], components=None) -> Worksheet:
    entries = []
    for i, (s, o, d) in enumerate(triples):
        name = components[i] if components else f"C{i}"
        entries.append(FmeaEntry(name, f"mode {i}", RatingTriple(s, o, d)))
    return Worksheet("synthetic", entries)


def test_rpn_is_the_plain_product():
    assert rpn(RatingTriple(10, 7, 8)) == 560
    assert rpn(RatingTriple(1, 1, 1)) == 1
    assert rpn(RatingTriple(10, 10, 10)) == 1000


def test_fixture_rpns_match_published_values(fixture_ws):
    computed = {e.component: rpn(e.triple) for e in fixture_ws.entries}
    assert computed == PUBLISHED_RPNS


def test_classify_default_bands_with_boundaries():
    cases = [(1, ClassLabel.NEGLIGIBLE), (99, ClassLabel.NEGLIGIBLE),
             (100, ClassLabel.MARGINAL), (199, ClassLabel.MARGINAL),
             (200, ClassLabel.CRITICAL), (499, ClassLabel.CRITICAL),
             (500, ClassLabel.CATASTROPHIC), (1000, ClassLabel.CATASTROPHIC)]
    for value, expected in cases:
        assert classify(value) is expected


def test_class_bands_must_ascend():
    for bad in [(100, 100, 500), (200, 100, 500), (1, 2, 3_000),
                (0, 200, 500), (1, 200, 500)]:
        with pytest.raises(ValueError):
            ClassBands(*bad)
    with pytest.raises(ValueError):
        ClassBands(100.0, 200, 500)


def test_bands_describe_names_all_four_bands():
    text = DEFAULT_BANDS.describe()
    assert text == ("Negligible [1,100), Marginal [100,200), "
                    "Critical [200,500), Catastrophic [500,1000]")


def test_rank_top_three_on_fixture(fixture_ws):
    results = rank(fixture_ws)
    top = [fixture_ws.entries[r.entry_index].component for r in results[:3]]
    assert top == ["Energy Management System (EMS)",
                   "Human-machine interface (HMI)", "Smart meter"]
    # the 210 tie: Smart meter (S=7) outranks RTU (S=5)
    assert fixture_ws.entries[results[3].entry_index].component == \
        "Remote terminal unit (RTU)"
    assert results[2].rpn == results[3].rpn == 210


def test_rank_assigns_sequential_ranks(fixture_ws):
    results = rank(fixture_ws)
    assert [r.rank for r in results] == list(range(1, 16))
    assert sorted(r.entry_index for r in results) == list(range(15))


def test_rank_orders_by_rpn_descending(fixture_ws):
    values = [r.rpn for r in rank(fixture_ws)]
    assert values == sorted(values, reverse=True)


def test_tie_break_severity_then_occurrence_then_detection():
    # all triples multiply to 120
    ws = make_ws((4, 5, 6), (5, 4, 6), (4, 6, 5), (5, 6, 4))
    order = [r.entry_index for r in rank(ws)]
    assert order == [3, 1, 2, 0]


def test_tie_break_component_name_then_input_order():
    ws = make_ws((5, 5, 5), (5, 5, 5), (5, 5, 5),
                 components=["Zeta", "Alpha", "Alpha"])
    order = [r.entry_index for r in rank(ws)]
    assert order == [1, 2, 0]


def test_rank_empty_worksheet():
    assert rank(Worksheet("")) == []


@pytest.mark.parametrize("bad", [(0, 5, 5), (5, 11, 5), (5, 5, 16), (-1, -1, 1)])
def test_rank_refuses_a_rating_off_the_scale(bad):
    # A hand-built worksheet can hold one; the parsers never accept it.
    with pytest.raises(ValueError, match="1-10 scale"):
        rank(make_ws((5, 5, 5), bad))


class _Rating(int):
    pass


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize("value", [True, 5.0, _Rating(5)],
                         ids=["bool", "float", "int-subclass"])
def test_rank_refuses_a_rating_that_is_not_an_int(value, position):
    # Each equals an on-scale int, and the row before holds that int, so a
    # check of the set of values alone would take it.
    bad = [5, 5, 5]
    bad[position] = value
    with pytest.raises(ValueError, match="1-10 scale"):
        rank(make_ws((5, 5, 5), (1, 1, 1), tuple(bad)))


def bruteforce_collisions(ws: Worksheet) -> dict[int, list[int]]:
    """All-pairs oracle: every index pair sharing an RPN value."""
    values = [rpn(e.triple) for e in ws.entries]
    groups: dict[int, list[int]] = {}
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                members = groups.setdefault(values[i], [])
                for k in (i, j):
                    if k not in members:
                        members.append(k)
    return {value: sorted(members) for value, members in groups.items()}


def test_collisions_match_bruteforce_oracle(fixture_ws):
    oracle = bruteforce_collisions(fixture_ws)
    found = collisions(fixture_ws)
    assert {g.rpn: list(g.members) for g in found} == oracle
    assert [g.rpn for g in found] == sorted(oracle, reverse=True)


def test_collisions_fixture_groups(fixture_ws):
    found = collisions(fixture_ws)
    assert len(found) == 2
    by_value = {g.rpn: g.members for g in found}
    names = lambda ids: [fixture_ws.entries[i].component for i in ids]
    assert names(by_value[210]) == ["Remote terminal unit (RTU)", "Smart meter"]
    assert names(by_value[120]) == ["Generator controller",
                                    "Renewable energy controller",
                                    "Phasor measurement unit (PMU)"]


def test_no_collisions_when_all_rpns_distinct():
    assert collisions(make_ws((1, 1, 1), (2, 1, 1), (3, 1, 1))) == []


def test_full_rating_cube_has_120_rpn_values():
    # Bowles (RAMS 2003): the 1,000 rating triples give only 120 distinct
    # RPNs, and only the six cubes below come from a single triple.
    cube = [(s, o, d) for s in range(1, 11) for o in range(1, 11)
            for d in range(1, 11)]
    ws = make_ws(*cube)
    assert len({r.rpn for r in rank(ws)}) == 120
    groups = collisions(ws)
    assert len(groups) == 114
    singles = {1, 125, 343, 512, 729, 1000}
    members = sorted(i for g in groups for i in g.members)
    assert members == [i for i, t in enumerate(cube)
                       if rpn(RatingTriple(*t)) not in singles]
    assert len(members) == 994
    assert max(len(g.members) for g in groups) == 24


EXPECTED_DISCREPANCIES = {
    "Database", "Automatic transfer switch (ATS)",
    "Intelligent electronic device (IED)", "Generator controller",
    "Smart meter", "PHEV", "PHEV supply equipment",
}


def test_discrepancies_fixture_set(fixture_ws):
    flagged = discrepancies(fixture_ws)
    names = {fixture_ws.entries[r.entry_index].component for r in flagged}
    assert names == EXPECTED_DISCREPANCIES
    assert all(r.discrepancy for r in flagged)
    assert all(r.declared_class is not None for r in flagged)


def test_entries_without_declared_class_never_flagged():
    ws = make_ws((10, 10, 10))
    assert discrepancies(ws) == []


def test_discrepancy_depends_on_bands(fixture_ws):
    # widening Negligible to [1, 150) drags every RPN < 150 entry whose
    # declared label is not Negligible into the flagged set
    flagged = discrepancies(fixture_ws, ClassBands(150, 200, 500))
    names = {fixture_ws.entries[r.entry_index].component for r in flagged}
    assert names == EXPECTED_DISCREPANCIES | {
        "Renewable energy controller", "Phasor measurement unit (PMU)",
        "Disconnect switch"}


def test_risk_matrix_spot_cells(fixture_ws):
    so = risk_matrix(fixture_ws, MatrixAxes.SEVERITY_OCCURRENCE)
    assert so.count(5, 4) == 2
    members = {fixture_ws.entries[i].component for i in so.members(5, 4)}
    assert members == {"Automatic transfer switch (ATS)",
                       "Phasor measurement unit (PMU)"}

    sd = risk_matrix(fixture_ws, MatrixAxes.SEVERITY_DETECTION)
    assert sd.count(7, 4) == 3
    members = {fixture_ws.entries[i].component for i in sd.members(7, 4)}
    assert members == {"Server", "Intelligent electronic device (IED)",
                       "Disconnect switch"}


def test_risk_matrix_conserves_entries(fixture_ws):
    for axes in MatrixAxes:
        assert risk_matrix(fixture_ws, axes).total() == len(fixture_ws)


def test_risk_matrix_empty_worksheet():
    matrix = risk_matrix(Worksheet(""), MatrixAxes.SEVERITY_OCCURRENCE)
    assert matrix.total() == 0
    assert matrix.max_count() == 0


def test_summary_fixture(fixture_ws):
    summary = summary_stats(fixture_ws)
    assert summary.entries == 15
    assert summary.rpn_min == 80
    assert summary.rpn_max == 560
    assert summary.rpn_mean == Fraction(2804, 15)
    assert summary.computed_class_counts == {
        ClassLabel.CATASTROPHIC: 1, ClassLabel.CRITICAL: 3,
        ClassLabel.MARGINAL: 9, ClassLabel.NEGLIGIBLE: 2}
    assert summary.declared_class_counts == {
        ClassLabel.CATASTROPHIC: 2, ClassLabel.CRITICAL: 5,
        ClassLabel.MARGINAL: 8, ClassLabel.NEGLIGIBLE: 0}


def test_summary_empty_worksheet():
    summary = summary_stats(Worksheet(""))
    assert summary.entries == 0
    assert summary.rpn_min is None and summary.rpn_max is None
    assert summary.rpn_mean is None
    assert all(n == 0 for n in summary.computed_class_counts.values())
