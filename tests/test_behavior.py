"""Finite-alphabet NS verification, determinism, FNS, and the equivalence."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from nsgames.behavior import (
    DEFAULT_BUDGET,
    Behavior,
    BudgetExceededError,
    FunctionTuple,
    check_fns,
    check_functional_locality_equivalence,
    check_no_signaling,
    functions_from_deterministic,
    induced_behavior,
    is_deterministic_extremal,
    is_factored,
    local_product_box,
    pr_box,
    signaling_box,
    uniform_noise_box,
)


def ref_single_party_marginals(behavior):
    """Marginal oracle: for each party, a map (x_k, a_k, other-inputs) ->
    probability, computed by direct summation with no shared helpers."""
    out = {}
    n = behavior.parties
    for k in range(n):
        for x in behavior.input_vectors():
            for a_k in range(behavior.outputs[k]):
                total = Fraction(0)
                for a in behavior.output_vectors():
                    if a[k] == a_k:
                        total += behavior.prob(x, a)
                others = tuple(v for j, v in enumerate(x) if j != k)
                out.setdefault((k, x[k], a_k), {})[others] = total
    return out


def ref_is_no_signaling(behavior) -> bool:
    marginals = ref_single_party_marginals(behavior)
    return all(len(set(ctx.values())) == 1 for ctx in marginals.values())


class TestBehaviorTable:
    def test_entries_validated(self):
        with pytest.raises(ValueError):
            Behavior(2, (2, 2), (2, 2), {((0, 0), (0, 3)): Fraction(1)})
        with pytest.raises(ValueError):
            Behavior(2, (2, 2), (2, 2), {((0, 2), (0, 0)): Fraction(1)})
        with pytest.raises(ValueError):
            Behavior(2, (2, 2), (2, 2), {((0, 0), (0, 0)): Fraction(3, 2)})
        with pytest.raises(ValueError):
            Behavior(2, (2,), (2, 2), {})

    def test_missing_entries_are_zero(self):
        b = signaling_box()
        assert b.prob((0, 0), (1, 1)) == 0

    def test_normalization_errors_found(self):
        b = Behavior(1, (2,), (2,), {((0,), (0,)): Fraction(1, 2)})
        bad = b.normalization_errors()
        assert ((0,), Fraction(1, 2)) in bad
        assert ((1,), Fraction(0)) in bad

    def test_json_roundtrip(self):
        for box in (pr_box(), signaling_box(), uniform_noise_box()):
            assert Behavior.from_json(box.to_json()).table == box.table

    def test_json_rejects_duplicates_and_garbage(self):
        doc = pr_box().to_json()
        doc["table"].append(dict(doc["table"][0]))
        with pytest.raises(ValueError):
            Behavior.from_json(doc)
        with pytest.raises(ValueError):
            Behavior.from_json(
                {"parties": 1, "inputs": [2], "outputs": [2],
                 "table": [{"x": [0], "a": [0], "p": "one"}]}
            )

    def test_float_entries_mark_table_inexact(self):
        b = Behavior(1, (1,), (2,), {((0,), (0,)): 0.5, ((0,), (1,)): 0.5})
        assert not b.exact
        assert pr_box().exact


class TestCheckNoSignaling:
    def test_pr_box_passes(self):
        report = check_no_signaling(pr_box())
        assert report.passed
        assert check_no_signaling(pr_box(), strict=True).passed

    def test_product_box_passes(self):
        assert check_no_signaling(local_product_box()).passed

    def test_noise_box_passes(self):
        assert check_no_signaling(uniform_noise_box()).passed

    def test_signaling_box_fails_at_party_two(self):
        report = check_no_signaling(signaling_box())
        assert not report.passed
        v = report.violations[0]
        assert v.subset == (1,)
        assert v.p_first != v.p_other
        # The two contexts differ only in party 1's input.
        assert v.x_first[1] == v.x_other[1]
        assert v.x_first[0] != v.x_other[0]

    def test_matches_reference_on_fixtures(self):
        for box in (pr_box(), signaling_box(), local_product_box(), uniform_noise_box()):
            assert check_no_signaling(box).passed == ref_is_no_signaling(box)

    def test_matches_reference_on_random_deterministic_boxes(self):
        rng = random.Random(4)
        grid = list(itertools.product(range(2), repeat=2))
        for _ in range(60):
            table = {}
            for x in grid:
                a = (rng.randint(0, 1), rng.randint(0, 1))
                table[(x, a)] = Fraction(1)
            b = Behavior(2, (2, 2), (2, 2), table)
            assert check_no_signaling(b).passed == ref_is_no_signaling(b)

    def test_relabeling_invariance(self):
        rng = random.Random(11)
        box = pr_box()
        for _ in range(10):
            perm_x = [rng.sample(range(2), 2) for _ in range(2)]
            perm_a = [rng.sample(range(2), 2) for _ in range(2)]
            table = {
                (
                    tuple(perm_x[k][v] for k, v in enumerate(x)),
                    tuple(perm_a[k][v] for k, v in enumerate(a)),
                ): p
                for (x, a), p in box.table.items()
            }
            relabeled = Behavior(2, (2, 2), (2, 2), table)
            assert check_no_signaling(relabeled).passed

    def test_rejects_unnormalized(self):
        b = Behavior(1, (1,), (2,), {((0,), (0,)): Fraction(1, 3)})
        with pytest.raises(ValueError):
            check_no_signaling(b)

    def test_float_table_requires_tolerance(self):
        b = Behavior(1, (1,), (2,), {((0,), (0,)): 0.5, ((0,), (1,)): 0.5})
        with pytest.raises(ValueError):
            check_no_signaling(b)
        assert check_no_signaling(b, tol=1e-9).passed

    def test_float_tolerance_applied(self):
        eps = 1e-12
        table = {}
        for x in range(2):
            for y in range(2):
                for a in range(2):
                    for b_ in range(2):
                        p = 0.25 + (eps if (x, a) == (0, 0) else 0)
                        table[((x, y), (a, b_))] = p
        # Entries are off by eps; normalization and marginals absorb it
        # under a loose tolerance and reject it under a tight one.
        b = Behavior(2, (2, 2), (2, 2), table)
        assert check_no_signaling(b, tol=1e-6).passed

    def test_single_party_is_trivially_ns(self):
        b = Behavior(1, (2,), (2,), {
            ((0,), (0,)): Fraction(1), ((1,), (1,)): Fraction(1),
        })
        assert check_no_signaling(b).passed

    def test_strict_subset_check_on_three_parties(self):
        # Third party broadcasts the XOR of the first two inputs into its
        # output; single-party marginals of parties 1 and 2 stay uniform,
        # the pair marginal of (1,3) does not.
        table = {}
        for x in itertools.product(range(2), repeat=3):
            for a12 in itertools.product(range(2), repeat=2):
                a = (a12[0], a12[1], x[0] ^ x[1])
                table[(x, a)] = table.get((x, a), Fraction(0)) + Fraction(1, 4)
        b = Behavior(3, (2, 2, 2), (2, 2, 2), table)
        assert not check_no_signaling(b).passed  # party 3 marginal moves
        strict = check_no_signaling(b, strict=True)
        assert not strict.passed
        assert any(len(v.subset) == 2 for v in strict.violations)


class TestDeterminismAndExtraction:
    def test_extremal_detection(self):
        assert is_deterministic_extremal(local_product_box())
        assert is_deterministic_extremal(signaling_box())
        assert not is_deterministic_extremal(pr_box())
        assert not is_deterministic_extremal(uniform_noise_box())

    def test_extraction_reads_functions(self):
        ft = functions_from_deterministic(local_product_box())
        for x in ft.input_vectors():
            assert ft.apply(0, x) == x[0]
            assert ft.apply(1, x) == x[1]

    def test_extraction_of_constant_box(self):
        table = {((x, y), (0, 0)): Fraction(1) for x in range(2) for y in range(2)}
        ft = functions_from_deterministic(Behavior(2, (2, 2), (2, 2), table))
        assert all(ft.outputs_at(x) == (0, 0) for x in ft.input_vectors())

    def test_extraction_of_signaling_box_is_well_defined(self):
        ft = functions_from_deterministic(signaling_box())
        assert all(ft.apply(1, x) == x[0] for x in ft.input_vectors())
        assert not check_fns(ft).passed

    def test_extraction_rejects_nondeterministic(self):
        with pytest.raises(ValueError):
            functions_from_deterministic(pr_box())


class TestCheckFns:
    def build(self, f1, f2):
        grid = list(itertools.product(range(2), repeat=2))
        return FunctionTuple(
            inputs=(2, 2),
            outputs=(2, 2),
            functions=({x: f1(*x) for x in grid}, {x: f2(*x) for x in grid}),
        )

    def test_local_functions_pass(self):
        assert check_fns(self.build(lambda x, y: x, lambda x, y: y)).passed

    def test_constant_functions_pass(self):
        assert check_fns(self.build(lambda x, y: 0, lambda x, y: 1)).passed

    def test_cross_dependence_fails_with_witness(self):
        report = check_fns(self.build(lambda x, y: x, lambda x, y: x))
        assert not report.passed
        v = report.violations[0]
        assert v.party == 1
        assert v.x_first[1] == v.x_other[1] == v.x_k
        assert v.out_first != v.out_other

    def test_factored_check_agrees(self):
        for f1 in (lambda x, y: x, lambda x, y: y, lambda x, y: 0):
            for f2 in (lambda x, y: y, lambda x, y: x ^ y):
                ft = self.build(f1, f2)
                assert check_fns(ft).passed == is_factored(ft)


class TestEquivalenceEnumeration:
    def test_binary_two_party_counts(self):
        report = check_functional_locality_equivalence([2, 2], [2, 2])
        assert report.total == 256
        assert report.fns_count == 16
        assert report.factored_count == 16
        assert report.coincide

    def test_counts_match_closed_forms(self):
        # Independent count oracle: |A_k|^(grid) in total, |A_k|^|X_k| for
        # the factored side.
        for inputs, outputs in ([(2, 2), (2, 2)], [(3, 2), (2, 2)], [(2,), (3,)]):
            g = math.prod(inputs)
            expected_total = math.prod(o**g for o in outputs)
            expected_fns = math.prod(
                o**x for o, x in zip(outputs, inputs)
            )
            report = check_functional_locality_equivalence(inputs, outputs)
            assert report.total == expected_total
            assert report.fns_count == expected_fns
            assert report.factored_count == expected_fns

    def test_mixed_alphabet_example(self):
        report = check_functional_locality_equivalence([3, 2], [2, 2])
        assert report.total == 4096
        assert report.fns_count == 32

    def test_single_party_all_fns(self):
        report = check_functional_locality_equivalence([2], [2])
        assert report.total == 4
        assert report.fns_count == 4

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError) as err:
            check_functional_locality_equivalence([4, 4], [4, 4], budget=10**6)
        assert err.value.required == 4**16 * 4**16


class TestNoSignalingBudget:
    def test_oversized_header_rejected_before_any_loop(self):
        box = Behavior(parties=40, inputs=(2,) * 40, outputs=(2,) * 40, table={})
        with pytest.raises(BudgetExceededError) as err:
            check_no_signaling(box)
        assert err.value.required == 2**80
        assert err.value.budget == DEFAULT_BUDGET

    def test_strict_counts_party_subsets(self):
        # 3**5 inputs x 3**5 outputs fit the budget; times the 2**5 - 2
        # strict subsets of five parties they do not.
        box = Behavior(parties=5, inputs=(3,) * 5, outputs=(3,) * 5, table={})
        with pytest.raises(ValueError, match="not normalized"):
            check_no_signaling(box)
        with pytest.raises(BudgetExceededError) as err:
            check_no_signaling(box, strict=True)
        assert err.value.required == 3**10 * 30


class TestFnsNsCorrespondence:
    def test_deterministic_ns_iff_fns_binary_two_party(self):
        grid = list(itertools.product(range(2), repeat=2))
        for codes in itertools.product(range(16), repeat=2):
            functions = tuple(
                {x: (code >> i) & 1 for i, x in enumerate(grid)} for code in codes
            )
            ft = FunctionTuple(inputs=(2, 2), outputs=(2, 2), functions=functions)
            behavior = induced_behavior(ft)
            assert is_deterministic_extremal(behavior)
            ns = check_no_signaling(behavior).passed
            fns = check_fns(ft).passed
            assert ns == fns
            if ns:
                extracted = functions_from_deterministic(behavior)
                assert check_fns(extracted).passed
