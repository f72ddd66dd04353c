"""The result classes share arith.Record: field binding and serialisation.

Each expected dict below is the to_dict() of the same call before the
classes moved onto Record, when each wrote its own.  JSON has no tuples, so
comparing with these lists, and with a JSON round trip, also checks that
every nested tuple came out as a list.
"""

import json

import pytest

from maxclass.arith import PrimeField
from maxclass.exceptional import (
    ExceptionalParams,
    abelian_ideal_check,
    construct,
    exceptional_report,
)
from maxclass.polycheck import classify_admissible_k
from maxclass.search import search_sequences
from maxclass.sequences import (
    BetaSequence,
    ConstituentReport,
    JacobiReport,
    bridge_check,
    constituents,
    jacobi_verify,
)

from sequence_helpers import constituents_via_lcs

F3, F5 = PrimeField(3), PrimeField(5)
P5 = ExceptionalParams(F5, 1, 2, 1)
# construct(P5, 13).sequence.betas
FAMILY = (0, 0, 2, 4, 0, 0, 0, 1, 4, 0, 0)


def with_entry(betas, i, value):
    out = list(betas)
    out[i] = value
    return out


# a short second constituent, then a tail cut off by the depth
CUT = BetaSequence(F5, 2, [0, 0, 1, 0, 1, 0, 0, 0, 0, 1])

CASES = {
    "jacobi_failing": (
        lambda: jacobi_verify(BetaSequence(F5, 2, [0, 0, 1, 2, 3, 0, 1])),
        {"depth": 9, "pairs_checked": 12, "triples_checked": 6, "ok": False,
         "failure": {"kind": "jacobi", "indices": [2, 3, 4], "value": 2}}),
    "constituent": (
        lambda: constituents(CUT).constituents[0],
        {"start": 3, "length": 6, "leading": 5, "trailing": 5,
         "entries": [0, 0, 1, 0], "ordinary": False}),
    "constituents_cut_with_violation": (
        lambda: constituents(CUT),
        {"p": 5, "n": 2, "depth": 12, "ell": 6,
         "constituents": [
             {"start": 3, "length": 6, "leading": 5, "trailing": 5,
              "entries": [0, 0, 1, 0], "ordinary": False},
             {"start": 7, "length": 2, "leading": 7, "trailing": 7,
              "entries": [1, 0], "ordinary": False}],
         "incomplete_tail": {"start": 9, "leading": 12},
         "metabelian_within_depth": False,
         "violations": ["length_below_half:2"]}),
    "lcs": (
        lambda: constituents_via_lcs(BetaSequence(F5, 2, FAMILY)),
        {"depth": 13, "lengths": [6, 5], "incomplete_count": 2,
         "no_second_power": False, "contiguous": True}),
    "bridge_failing": (
        lambda: bridge_check(BetaSequence(F5, 2, with_entry(FAMILY, 7, 0))),
        {"ell": 6, "ell2": 6, "k": 5, "window": [0, 4], "ok": False,
         "failures": [[1, 3]]}),
    "abelian_ideal_failing": (
        lambda: abelian_ideal_check(P5, BetaSequence(F5, 2, with_entry(FAMILY, 6, 2))),
        {"depth": 13, "pairs_checked": 1, "pairs_ok": False,
         "adjoint_series_ok": True, "adjoint_window": [2, 9],
         "top_action_ok": True, "ok": False,
         "failure": {"kind": "pair", "indices": [6, 6], "value": 2}}),
    "exceptional": (
        lambda: exceptional_report(ExceptionalParams(F3, 1, 2, 1),
                                   construct(ExceptionalParams(F3, 1, 2, 1), 7).sequence),
        {"params": {"p": 3, "c": 1, "q": 3, "n": 2, "m": 1, "mode": "construction"},
         "depth": 7, "ell": 4, "ell_expected": 4, "lengths": [4, 3],
         "lengths_expected": [4, 3], "ordinary_ok": True, "trailing_ok": True,
         "closed_form_ok": True, "genfunc_ok": True, "two_path_ok": True,
         "jacobi_ok": True, "jacobi_depth": 7, "ideal_ok": True,
         "violations": [], "ok": True}),
    "classify": (
        lambda: classify_admissible_k(F3, 2, 8),
        {"p": 3, "n": 2, "k_max": 8,
         "admissible": {"4": [[0, 1]], "5": [[2, 1]], "8": [[2, 1]]},
         "menu_ok": True, "menu_violations": [], "structure_ok": True,
         "structure_violations": []}),
    "search": (
        lambda: search_sequences(F3, 2, 6),
        {"p": 3, "n": 2, "depth": 6, "seed_depth": 2, "normalized": True,
         "budget": 500000, "nodes": 26, "solution_count": 5,
         "solutions": [[0, 0, 0, 0], [0, 0, 1, 2], [1, 1, 0, 2], [1, 1, 1, 1],
                       [1, 1, 2, 0]],
         "truncated_solutions": False, "exhausted": False, "deepest": 6}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_to_dict_is_the_hand_written_one(case):
    make, expected = CASES[case]
    result = make()
    data = result.to_dict()
    assert data == expected
    assert json.loads(json.dumps(data)) == expected
    # slots only: the search's hot loop runs `report.nodes += 1`
    assert not hasattr(result, "__dict__")


class TestBinding:
    def test_positional_and_keyword_fields_bind_in_slot_order(self):
        report = JacobiReport(9, triples_checked=4)
        assert (report.depth, report.pairs_checked, report.triples_checked,
                report.failure) == (9, 0, 4, None)

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),                                # depth is missing
        ((9,), {"witness": None}),               # unknown field
        ((9,), {"depth": 9}),                    # depth given twice
        ((9, 0, 0, None, "extra"), {}),          # one value too many
    ], ids=["missing", "unknown", "repeated", "too_many"])
    def test_bad_fields_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            JacobiReport(*args, **kwargs)

    def test_list_defaults_are_not_shared(self):
        a = ConstituentReport(5, 2, 12, None)
        b = ConstituentReport(5, 2, 12, None)
        a.violations.append("ell_odd")
        a.constituents.append(None)
        assert b.violations == [] and b.constituents == []
