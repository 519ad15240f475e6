"""Finite-alphabet NS verification, determinism, FNS, and the equivalence."""

import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

import nsgames.behavior as behavior_module
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
from nsgames.behavior import _equivalence_reference, _no_signaling_reference, _parse_prob


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

    @pytest.mark.parametrize("lift", [False, True])
    def test_string_exponents_bounded(self, lift):
        # Fraction would build 10^|e|; exponents past the int-string digit
        # limit are refused first, and a lifted limit falls back to Python's
        # default.
        limit = sys.get_int_max_str_digits()
        try:
            if lift:
                sys.set_int_max_str_digits(0)
            bound = sys.get_int_max_str_digits() or behavior_module._DEFAULT_INT_DIGITS
            for text in (f"1e{bound}", f"1E-{bound}", f"0.5e+{bound} ", "25e-2"):
                assert _parse_prob(text) == Fraction(text)
            for text in (f"1e{bound + 1}", f"1E-{bound + 1}", "1e1_0000000", "1e-10000000"):
                with pytest.raises(ValueError, match=f"exponent must lie within ±{bound}"):
                    _parse_prob(text)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("change, where, message", [
        ({"parties": 2.9}, None, "parties must be an integer"),
        ({"parties": True}, None, "parties must be an integer"),
        ({"inputs": [2.5, 2]}, None, "inputs must be a list of integers"),
        ({"outputs": [2, True]}, None, "outputs must be a list of integers"),
        ({"inputs": "22"}, None, "inputs must be a list of integers"),
        ({"x": [0.9, 1]}, 0, "x must be a list of integers"),
        ({"a": [True, 0]}, 0, "a must be a list of integers"),
        ({"extra": 1}, None, "behavior has unknown key 'extra'"),
        ({"q": 1}, 0, "entry has unknown key 'q'"),
        ({"table": 5}, None, "table must be a list of entries"),
        ({"table": {"x": [0, 0]}}, None, "table must be a list of entries"),
    ])
    def test_json_requires_integers_and_known_keys(self, change, where, message):
        doc = pr_box().to_json()
        (doc if where is None else doc["table"][where]).update(change)
        with pytest.raises(ValueError, match=message):
            Behavior.from_json(doc)

    @pytest.mark.parametrize("missing", ["parties", "table"])
    def test_json_requires_every_key(self, missing):
        doc = pr_box().to_json()
        del doc[missing]
        with pytest.raises(ValueError, match=f"missing key '{missing}'"):
            Behavior.from_json(doc)

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

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # Every comparison with NaN is false, so a NaN tolerance would pass
        # the signaling box; an infinite one would pass anything.
        with pytest.raises(ValueError, match="finite"):
            check_no_signaling(signaling_box(), tol=tol)

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

    def test_more_parties_than_array_axes(self):
        # The dense table would need 80 axes; the reference loop takes it.
        box = Behavior(40, (1,) * 40, (1,) * 40, {((0,) * 40, (0,) * 40): Fraction(1)})
        report = check_no_signaling(box)
        assert report.passed
        assert report == _no_signaling_reference(box)

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
        # The budget counts cells: 2 parties x 4**16 functions x 16 points.
        with pytest.raises(BudgetExceededError) as err:
            check_functional_locality_equivalence([4, 4], [4, 4], budget=10**6)
        assert err.value.required is None
        assert err.value.log10_required == pytest.approx(37 * math.log10(2))
        # (2,2)/(2,2) fills 2 x 2**4 x 4 = 128 cells.
        assert check_functional_locality_equivalence([2, 2], [2, 2], budget=128).total == 256
        with pytest.raises(BudgetExceededError):
            check_functional_locality_equivalence([2, 2], [2, 2], budget=127)

    def test_matches_reference_on_small_alphabets(self):
        # Every alphabet of 1-3 parties with sizes 1-3 whose tuple count is
        # at most 10**3 (336 alphabets): each party position, 1-input and
        # 1-output parties included.
        checked = 0
        for parties in (1, 2, 3):
            for inputs in itertools.product(range(1, 4), repeat=parties):
                for outputs in itertools.product(range(1, 4), repeat=parties):
                    g = math.prod(inputs)
                    if math.prod(o**g for o in outputs) > 10**3:
                        continue
                    fast = check_functional_locality_equivalence(inputs, outputs)
                    assert fast == _equivalence_reference(inputs, outputs), (inputs, outputs)
                    checked += 1
        assert checked == 336

    @pytest.mark.parametrize(
        "inputs, outputs", [((4, 2), (2, 2)), ((2, 2, 2), (2, 2, 1))]
    )
    def test_matches_reference_on_benchmark_alphabets(self, inputs, outputs):
        fast = check_functional_locality_equivalence(inputs, outputs)
        assert fast == _equivalence_reference(inputs, outputs)
        assert fast.total == 65536

    def test_classifies_beyond_the_reference(self):
        # 3**18 tuples: out of the reference's reach, one 19683-row array
        # per party here, 2 x 3**9 x 9 cells within the default budget.
        report = check_functional_locality_equivalence([3, 3], [3, 3])
        assert report.to_json() == {
            "total": 3**18, "fns": 3**6, "factored": 3**6, "equal": True,
        }

    def test_many_parties_classify(self):
        # 15000 parties of one input and two outputs: 30000 cells, past
        # numpy's 64 axes and with a 4516-digit exact total.
        report = check_functional_locality_equivalence([1] * 15000, [2] * 15000)
        assert report == behavior_module.EquivalenceReport(
            total=2**15000, fns_count=2**15000, factored_count=2**15000, coincide=True
        )

    def test_party_functions_follow_product_order(self):
        functions = behavior_module._party_functions(3, (2, 1, 2))
        expected = list(itertools.product(range(3), repeat=4))
        assert functions.shape == (81, 2, 1, 2)
        assert [tuple(row.ravel().tolist()) for row in functions] == expected

    @pytest.mark.parametrize(
        "inputs, outputs",
        [([0, 2], [2, 2]), ([2, 2], [0, 2]), ([2, -1], [2, 2]), ([], []), ([2], [2, 2])],
    )
    def test_bad_alphabets_rejected(self, inputs, outputs):
        with pytest.raises(ValueError):
            check_functional_locality_equivalence(inputs, outputs)

    def test_budget_checked_before_any_array(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("function array built before the budget check")

        monkeypatch.setattr(behavior_module, "_party_functions", refuse)
        with pytest.raises(BudgetExceededError) as err:
            check_functional_locality_equivalence([4, 4], [4, 4])
        assert err.value.required is None
        assert "about 10^11.1 response-function cells" in str(err.value)
        # A count within rounding of the budget is compared exactly.
        with pytest.raises(BudgetExceededError) as err:
            check_functional_locality_equivalence([1], [10**10], budget=10**10 - 1)
        assert err.value.required == 10**10

    @pytest.mark.parametrize(
        "inputs, outputs",
        [([100, 100], [2, 2]), ([10**6], [2]), ([2] * 1100, [1] * 1100)],
    )
    def test_huge_declarations_fail_fast(self, monkeypatch, inputs, outputs):
        # Their exact counts have thousands of digits or more: the check
        # must fail on logarithms, before any exact power is built.
        def refuse(*args):
            raise AssertionError("function array built before the budget check")

        monkeypatch.setattr(behavior_module, "_party_functions", refuse)
        with pytest.raises(BudgetExceededError, match="response-function cells") as err:
            check_functional_locality_equivalence(inputs, outputs)
        assert err.value.required is None
        assert err.value.log10_required > 6

    @pytest.mark.parametrize(
        "inputs, outputs, log10",
        [((10**6, 10**6), (2, 2), 10**12 * math.log10(2)), ((10**400,), (2,), math.inf),
         ((2,) * 1100, (2,) * 1100, math.inf)],
        ids=["million-squared-grid", "googol-power-grid", "1100-parties"],
    )
    def test_budget_past_float_range(self, inputs, outputs, log10):
        # Only the budget check is called: the exact powers here would not
        # fit in memory.
        with pytest.raises(BudgetExceededError) as err:
            behavior_module._check_equivalence_budget(inputs, outputs, DEFAULT_BUDGET)
        assert err.value.log10_required == pytest.approx(log10, rel=1e-6)


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

    @pytest.mark.parametrize("strict", [False, True])
    def test_huge_header_gives_the_magnitude(self, strict):
        # 4**15000 cells (times 2**15000 - 2 subsets under strict): a count
        # too long to build quickly or to print, so only its magnitude is named.
        n = 15000
        box = Behavior(parties=n, inputs=(2,) * n, outputs=(2,) * n, table={})
        with pytest.raises(BudgetExceededError) as err:
            check_no_signaling(box, strict=strict)
        assert err.value.required is None
        expected = n * math.log10(4) + (n * math.log10(2) if strict else 0.0)
        assert err.value.log10_required == pytest.approx(expected)
        assert err.value.budget == DEFAULT_BUDGET


def random_local_mixture(rng, inputs, outputs, weights):
    """A mixture of random deterministic local boxes: exact and no-signaling."""
    table = {}
    for weight in weights:
        responses = [[rng.randrange(o) for _ in range(i)] for i, o in zip(inputs, outputs)]
        for x in itertools.product(*(range(i) for i in inputs)):
            a = tuple(responses[k][x[k]] for k in range(len(inputs)))
            table[(x, a)] = table.get((x, a), Fraction(0)) + weight
    return Behavior(len(inputs), tuple(inputs), tuple(outputs), table)


def one_cell_perturbation(box, rng):
    """Move one cell's mass to the cell that differs in party 1's output."""
    cells = sorted(cell for cell, p in box.table.items() if p > 0)
    x, a = cells[rng.randrange(len(cells))]
    moved = ((a[0] + 1) % box.outputs[0],) + a[1:]
    table = dict(box.table)
    mass = table.pop((x, a))
    table[(x, moved)] = table.get((x, moved), Fraction(0)) + mass
    return Behavior(box.parties, box.inputs, box.outputs, table)


def assert_same_report(box, tol=None, strict=False):
    fast = check_no_signaling(box, tol=tol, strict=strict)
    reference = _no_signaling_reference(box, tol=tol, strict=strict)
    assert fast == reference
    assert [str(v) for v in fast.violations] == [str(v) for v in reference.violations]
    return fast


def refuse_dense(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense table built")

    monkeypatch.setattr(behavior_module, "_dense_table", refuse)


class TestNoSignalingMatchesReference:
    @pytest.mark.parametrize("strict", [False, True])
    def test_random_mixtures_and_perturbations(self, strict):
        rng = random.Random(17)
        signaling = 0
        for _ in range(40):
            parties = rng.randint(1, 3)
            inputs = [rng.randint(1, 3) for _ in range(parties)]
            outputs = [rng.randint(1, 3) for _ in range(parties)]
            weights = rng.choice([
                (Fraction(1),),
                (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                (Fraction(2, 7), Fraction(5, 7)),
            ])
            box = random_local_mixture(rng, inputs, outputs, weights)
            assert assert_same_report(box, strict=strict).passed
            bad = assert_same_report(one_cell_perturbation(box, rng), strict=strict)
            signaling += not bad.passed
        # Perturbations of 1-output or single-party boxes stay no-signaling;
        # most others must not.
        assert signaling >= 15

    @pytest.mark.parametrize("strict", [False, True])
    def test_fixtures(self, strict):
        for box in (pr_box(), signaling_box(), uniform_noise_box(), local_product_box()):
            assert_same_report(box, strict=strict)
        assert len(check_no_signaling(signaling_box(), strict=strict).violations) == 4

    def test_three_party_subset_witnesses(self):
        table = {}
        for x in itertools.product(range(2), repeat=3):
            for a12 in itertools.product(range(2), repeat=2):
                a = (a12[0], a12[1], x[0] ^ x[1])
                table[(x, a)] = table.get((x, a), Fraction(0)) + Fraction(1, 4)
        box = Behavior(3, (2, 2, 2), (2, 2, 2), table)
        report = assert_same_report(box, strict=True)
        assert any(len(v.subset) == 2 for v in report.violations)

    def test_float_table_takes_the_loop(self, monkeypatch):
        table = {((x, y), (x, y)): 1.0 for x in range(2) for y in range(2)}
        table[((1, 0), (0, 0))] = table.pop(((1, 0), (1, 0)))
        box = Behavior(2, (2, 2), (2, 2), table)
        refuse_dense(monkeypatch)
        assert not assert_same_report(box, tol=1e-9).passed

    def test_positive_tolerance_takes_the_loop(self, monkeypatch):
        refuse_dense(monkeypatch)
        assert not assert_same_report(signaling_box(), tol=Fraction(1, 10)).passed
        assert assert_same_report(pr_box(), tol=0.5, strict=True).passed

    def test_int64_overflow_takes_the_loop(self, monkeypatch):
        # Two Mersenne-prime denominators: their LCM is about 2**92.
        small, large = Fraction(1, 2**31 - 1), Fraction(1, 2**61 - 1)
        table = {
            ((0, 0), (0, 0)): small, ((0, 0), (1, 1)): 1 - small,
            ((0, 1), (0, 1)): large, ((0, 1), (1, 1)): 1 - large,
            ((1, 0), (0, 0)): Fraction(1), ((1, 1), (1, 0)): Fraction(1),
        }
        box = Behavior(2, (2, 2), (2, 2), table)
        refuse_dense(monkeypatch)
        report = assert_same_report(box, strict=True)
        assert not report.passed
        assert (report.violations[0].p_first, report.violations[0].p_other) == (small, large)

    def test_zero_tolerance_stays_exact(self):
        # The same violations as tol=None, including one of 1/(2**20).
        tiny = Fraction(1, 2**20)
        table = {((0, 0), (0, 0)): Fraction(1), ((0, 1), (0, 0)): 1 - tiny,
                 ((0, 1), (1, 0)): tiny, ((1, 0), (1, 1)): Fraction(1),
                 ((1, 1), (1, 1)): Fraction(1)}
        box = Behavior(2, (2, 2), (2, 2), table)
        report = assert_same_report(box, tol=0.0)
        assert report == check_no_signaling(box)
        assert str(report.violations[0]) == (
            "marginal of parties {1} at inputs (0,) outputs (0,): 1 under "
            "context (0, 0) vs 1048575/1048576 under context (0, 1)"
        )

    @pytest.mark.parametrize("check", [check_no_signaling, _no_signaling_reference])
    def test_not_normalized_message(self, check):
        box = Behavior(2, (2, 2), (2, 2), {
            ((x, y), (0, 0)): Fraction(1) for x in range(2) for y in range(2)
            if (x, y) != (1, 0)
        } | {((1, 0), (0, 1)): Fraction(1, 3)})
        with pytest.raises(ValueError) as err:
            check(box)
        assert str(err.value) == "behavior is not normalized: sum at x=(1, 0) is 1/3"


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
