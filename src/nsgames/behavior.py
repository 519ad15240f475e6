"""Finite-alphabet behavior verification.

A behavior is a conditional distribution P(a1..aN | x1..xN) over finite
alphabets.  This module checks the no-signaling marginal conditions, detects
deterministic extremal points, extracts and checks functional no-signaling,
and checks the equivalence between FNS and functional locality.  Both FNS
and the factored form are per-party properties, so the equivalence is
checked party by party over every single-party response function; the
tuple-by-tuple enumeration is kept as the reference it is tested against.

Tables are rational by default; floating tables must declare a tolerance,
since every check here is an equality of marginals.  Exact tables are
checked as integer arrays over a common denominator.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

Vector = tuple[int, ...]

# The most steps one enumeration or behavior check may take.
DEFAULT_BUDGET = 10**6

# Budget errors name an exact count of up to this many digits, and only
# the magnitude of a longer one, which would be slow to build and to print.
_EXACT_COUNT_DIGITS = 100

# The dense no-signaling check sums table rows in int64.
_INT64_MAX = int(np.iinfo(np.int64).max)
# Most axes an ndarray may have; the dense table has two per party.
_MAX_DIMS = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32

# The keys of a behavior document and of one of its table entries.
BEHAVIOR_KEYS = frozenset({"parties", "inputs", "outputs", "table"})
ENTRY_KEYS = frozenset({"x", "a", "p"})


class BudgetExceededError(ValueError):
    """Enumeration would exceed the allowed budget.

    ``required`` is the exact count of steps, or None for a count too large
    to build; ``log10_required`` then gives its decimal magnitude.
    """

    def __init__(self, required: int | None, budget: int, what: str = "function tuples",
                 log10_required: float | None = None) -> None:
        need = f"about 10^{log10_required:.1f}" if required is None else required
        super().__init__(f"enumeration needs {need} {what}, budget is {budget}")
        self.required = required
        self.log10_required = log10_required
        self.budget = budget


def _parse_prob(value) -> Fraction | float:
    if isinstance(value, bool):
        raise ValueError(f"probability must be numeric, got {value!r}")
    if isinstance(value, float):
        return value
    if isinstance(value, (int, Fraction, str)):
        return Fraction(value)
    raise ValueError(f"cannot parse probability {value!r}")


def _check_keys(doc, keys: frozenset, what: str) -> None:
    """Raise unless doc is a JSON object with exactly these keys."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    for problem, names in (("missing", keys - set(doc)), ("unknown", set(doc) - keys)):
        if names:
            raise ValueError(f"{what} has {problem} key " + ", ".join(map(repr, sorted(names))))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_vector(value, what: str) -> tuple[int, ...]:
    if not (isinstance(value, (list, tuple)) and all(map(_is_int, value))):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class Behavior:
    """P(a⃗ | x⃗) over finite alphabets; absent table entries are zero."""

    parties: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    table: Mapping[tuple[Vector, Vector], Fraction | float]

    def __post_init__(self) -> None:
        if self.parties < 1:
            raise ValueError(f"parties must be >= 1, got {self.parties}")
        if len(self.inputs) != self.parties or len(self.outputs) != self.parties:
            raise ValueError("one input and one output alphabet size per party")
        if any(n < 1 for n in self.inputs) or any(n < 1 for n in self.outputs):
            raise ValueError("alphabet sizes must be >= 1")
        for (x, a), p in self.table.items():
            if len(x) != self.parties or len(a) != self.parties:
                raise ValueError(f"entry ({x}, {a}) has wrong arity")
            if not all(0 <= xi < ni for xi, ni in zip(x, self.inputs)):
                raise ValueError(f"input vector {x} out of alphabet range")
            if not all(0 <= ai < ni for ai, ni in zip(a, self.outputs)):
                raise ValueError(f"output vector {a} out of alphabet range")
            if not 0 <= p <= 1:
                raise ValueError(f"P{(x, a)} = {p} outside [0, 1]")

    @property
    def exact(self) -> bool:
        return all(isinstance(p, Fraction) for p in self.table.values())

    def prob(self, x: Vector, a: Vector) -> Fraction | float:
        return self.table.get((x, a), Fraction(0))

    def input_vectors(self) -> Iterable[Vector]:
        return itertools.product(*(range(n) for n in self.inputs))

    def output_vectors(self) -> Iterable[Vector]:
        return itertools.product(*(range(n) for n in self.outputs))

    def normalization_errors(self, tol: float = 0.0) -> list[tuple[Vector, Fraction | float]]:
        """Input vectors whose outcome probabilities do not sum to 1."""
        bad = []
        for x in self.input_vectors():
            total = sum(self.prob(x, a) for a in self.output_vectors())
            if abs(total - 1) > tol:
                bad.append((x, total))
        return bad

    def to_json(self) -> dict:
        entries = []
        for (x, a), p in sorted(self.table.items()):
            if isinstance(p, Fraction):
                if p == 0:
                    continue
                rendered = f"{p.numerator}/{p.denominator}" if p.denominator != 1 else str(p.numerator)
            else:
                rendered = p
            entries.append({"x": list(x), "a": list(a), "p": rendered})
        return {
            "parties": self.parties,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "table": entries,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Behavior":
        """Parse the document to_json writes.  Keys are checked in full, and
        sizes and vectors must be JSON integers, not booleans or floats."""
        _check_keys(doc, BEHAVIOR_KEYS, "behavior")
        if not _is_int(doc["parties"]):
            raise ValueError(f"parties must be an integer, got {doc['parties']!r}")
        if not isinstance(doc["table"], (list, tuple)):
            raise ValueError(f"table must be a list of entries, got {doc['table']!r}")
        table = {}
        for i, entry in enumerate(doc["table"]):
            try:
                _check_keys(entry, ENTRY_KEYS, "entry")
                x = _int_vector(entry["x"], "x")
                a = _int_vector(entry["a"], "a")
                p = _parse_prob(entry["p"])
            except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
                raise ValueError(f"table entry {i}: {exc}") from exc
            if (x, a) in table:
                raise ValueError(f"table entry {i}: duplicate cell ({x}, {a})")
            table[(x, a)] = p
        return cls(
            parties=doc["parties"],
            inputs=_int_vector(doc["inputs"], "inputs"),
            outputs=_int_vector(doc["outputs"], "outputs"),
            table=table,
        )


@dataclass(frozen=True)
class NSViolation:
    """One broken marginal: same subset inputs/outputs, different contexts."""

    subset: tuple[int, ...]
    x_sub: Vector
    a_sub: Vector
    x_first: Vector
    x_other: Vector
    p_first: Fraction | float
    p_other: Fraction | float

    def __str__(self) -> str:
        parties = ",".join(str(k + 1) for k in self.subset)
        return (
            f"marginal of parties {{{parties}}} at inputs {self.x_sub} "
            f"outputs {self.a_sub}: {self.p_first} under context {self.x_first} "
            f"vs {self.p_other} under context {self.x_other}"
        )


@dataclass(frozen=True)
class NSReport:
    violations: tuple[NSViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _resolve_tol(behavior: Behavior, tol: float | None) -> float | Fraction:
    if tol is None:
        if not behavior.exact:
            raise ValueError(
                "behavior table contains floats; pass an explicit tolerance"
            )
        return Fraction(0)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    return tol


def check_no_signaling(
    behavior: Behavior, tol: float | None = None, strict: bool = False
) -> NSReport:
    """Verify the marginal conditions.

    Default: each single party's marginal must not depend on the other
    parties' inputs.  strict=True additionally checks every proper
    nonempty party subset.  Raises on a non-normalized table, and raises
    BudgetExceededError before any loop when the input-by-output grid,
    times the party subsets under strict, exceeds DEFAULT_BUDGET.

    An exact table checked without tolerance is put on the common
    denominator of its entries as one dense integer array, and every
    marginal is compared at once; the report equals _no_signaling_reference
    witness for witness.  Float tables, a positive tolerance, a common
    denominator too large for int64 sums, and more parties than an ndarray
    has axes for go through that reference loop.
    """
    _check_ns_budget(behavior, strict)
    eps = _resolve_tol(behavior, tol)
    if behavior.exact and eps == 0 and 2 * behavior.parties <= _MAX_DIMS:
        denominator = math.lcm(*(p.denominator for p in behavior.table.values()))
        if denominator * math.prod(behavior.outputs) <= _INT64_MAX:
            dense = _dense_table(behavior, denominator)
            return NSReport(_dense_violations(behavior, dense, denominator, strict))
    return _no_signaling_reference(behavior, tol, strict)


def _check_ns_budget(behavior: Behavior, strict: bool) -> None:
    """Raise BudgetExceededError if the input-by-output grid, times the
    party subsets under strict, exceeds DEFAULT_BUDGET.

    The count's logarithm comes first: a count of more than
    _EXACT_COUNT_DIGITS digits is over budget without being built.
    """
    what = "table cell visits"
    subsets = max(1, 2**behavior.parties - 2) if strict else 1
    sizes = behavior.inputs + behavior.outputs
    log10_required = math.fsum(map(math.log10, sizes)) + math.log10(subsets)
    if log10_required > _EXACT_COUNT_DIGITS:
        raise BudgetExceededError(None, DEFAULT_BUDGET, what, log10_required=log10_required)
    required = math.prod(sizes) * subsets
    if required > DEFAULT_BUDGET:
        raise BudgetExceededError(required, DEFAULT_BUDGET, what)


def _ns_subsets(n: int, strict: bool) -> list[tuple[int, ...]]:
    if strict:
        return [s for r in range(1, n) for s in itertools.combinations(range(n), r)]
    return [(k,) for k in range(n)] if n > 1 else []


def _dense_table(behavior: Behavior, denominator: int) -> np.ndarray:
    """The table as int64 counts of 1/denominator, shape [*inputs, *outputs].

    Raises the reference's ValueError on the first input vector, in
    input_vectors order, whose row does not sum to 1.
    """
    n = behavior.parties
    dense = np.zeros(behavior.inputs + behavior.outputs, dtype=np.int64)
    cells = np.array([x + a for x, a in behavior.table], dtype=np.intp).reshape(-1, 2 * n)
    dense[tuple(cells.T)] = [
        p.numerator * (denominator // p.denominator) for p in behavior.table.values()
    ]
    sums = dense.reshape(behavior.inputs + (-1,)).sum(axis=-1)
    bad = np.argwhere(sums != denominator)
    if len(bad):
        x = tuple(bad[0].tolist())
        total = Fraction(int(sums[x]), denominator)
        raise ValueError(f"behavior is not normalized: sum at x={x} is {total}")
    return dense


def _dense_violations(
    behavior: Behavior, dense: np.ndarray, denominator: int, strict: bool
) -> tuple[NSViolation, ...]:
    """Every subset marginal compared with its first context, in the
    reference loop's order: subset, x_sub, a_sub, context."""
    n = behavior.parties
    violations = []
    for subset in _ns_subsets(n, strict):
        rest = tuple(k for k in range(n) if k not in subset)
        marginal = dense.sum(axis=tuple(n + k for k in rest))
        # Axes [*x_sub, *a_sub, *context], so argwhere walks the loop order.
        marginal = marginal.transpose(
            subset + tuple(range(n, n + len(subset))) + rest
        )
        first = marginal[(...,) + (0,) * len(rest)]
        moved = marginal != first.reshape(first.shape + (1,) * len(rest))
        for index in np.argwhere(moved).tolist():
            x_sub = tuple(index[: len(subset)])
            a_sub = tuple(index[len(subset) : 2 * len(subset)])
            ctx = tuple(index[2 * len(subset) :])
            violations.append(
                NSViolation(
                    subset,
                    x_sub,
                    a_sub,
                    _merge(subset, x_sub, rest, (0,) * len(rest), n),
                    _merge(subset, x_sub, rest, ctx, n),
                    Fraction(int(first[x_sub + a_sub]), denominator),
                    Fraction(int(marginal[x_sub + a_sub + ctx]), denominator),
                )
            )
    return tuple(violations)


def _no_signaling_reference(
    behavior: Behavior, tol: float | None = None, strict: bool = False
) -> NSReport:
    """check_no_signaling as a loop over Fraction (or float) marginals.

    The reference the dense path is tested against, and the path for float
    tables, positive tolerances and denominators beyond int64.
    """
    n = behavior.parties
    _check_ns_budget(behavior, strict)
    eps = _resolve_tol(behavior, tol)
    norm_tol = float(eps) if not behavior.exact else 0.0
    bad = behavior.normalization_errors(norm_tol)
    if bad:
        x, total = bad[0]
        raise ValueError(f"behavior is not normalized: sum at x={x} is {total}")

    violations = []
    for subset in _ns_subsets(n, strict):
        rest = tuple(k for k in range(n) if k not in subset)
        sub_inputs = itertools.product(*(range(behavior.inputs[k]) for k in subset))
        for x_sub in sub_inputs:
            contexts = list(
                itertools.product(*(range(behavior.inputs[k]) for k in rest))
            )
            sub_outputs = itertools.product(
                *(range(behavior.outputs[k]) for k in subset)
            )
            for a_sub in sub_outputs:
                first_x = None
                first_p = None
                for ctx in contexts:
                    x = _merge(subset, x_sub, rest, ctx, n)
                    p = _marginal(behavior, subset, a_sub, x)
                    if first_x is None:
                        first_x, first_p = x, p
                    elif abs(p - first_p) > eps:
                        violations.append(
                            NSViolation(subset, x_sub, a_sub, first_x, x, first_p, p)
                        )
    return NSReport(tuple(violations))


def _merge(subset: Vector, x_sub: Vector, rest: Vector, ctx: Vector, n: int) -> Vector:
    x = [0] * n
    for k, v in zip(subset + rest, x_sub + ctx):
        x[k] = v
    return tuple(x)


def _marginal(behavior: Behavior, subset: Vector, a_sub: Vector, x: Vector):
    total = Fraction(0)
    for a in behavior.output_vectors():
        if all(a[k] == v for k, v in zip(subset, a_sub)):
            total = total + behavior.prob(x, a)
    return total


def is_deterministic_extremal(behavior: Behavior, tol: float | None = None) -> bool:
    """True iff every outcome probability is 0 or 1."""
    eps = _resolve_tol(behavior, tol)
    for x in behavior.input_vectors():
        for a in behavior.output_vectors():
            p = behavior.prob(x, a)
            if abs(p) > eps and abs(p - 1) > eps:
                return False
    return True


@dataclass(frozen=True)
class FunctionTuple:
    """Per-party response functions f_k of the full input vector."""

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    functions: tuple[Mapping[Vector, int], ...] = field(hash=False)

    @property
    def parties(self) -> int:
        return len(self.inputs)

    def input_vectors(self) -> Iterable[Vector]:
        return itertools.product(*(range(n) for n in self.inputs))

    def apply(self, k: int, x: Vector) -> int:
        return self.functions[k][x]

    def outputs_at(self, x: Vector) -> Vector:
        return tuple(f[x] for f in self.functions)


def functions_from_deterministic(
    behavior: Behavior, tol: float | None = None
) -> FunctionTuple:
    """Read the response functions off a deterministic extremal table."""
    eps = _resolve_tol(behavior, tol)
    if not is_deterministic_extremal(behavior, tol):
        raise ValueError("behavior is not deterministic extremal")
    functions: list[dict[Vector, int]] = [dict() for _ in range(behavior.parties)]
    for x in behavior.input_vectors():
        hit = None
        for a in behavior.output_vectors():
            if abs(behavior.prob(x, a) - 1) <= eps:
                if hit is not None:
                    raise ValueError(f"two certain outcomes at x={x}")
                hit = a
        if hit is None:
            raise ValueError(f"no certain outcome at x={x}")
        for k, ak in enumerate(hit):
            functions[k][x] = ak
    return FunctionTuple(
        inputs=behavior.inputs,
        outputs=behavior.outputs,
        functions=tuple(functions),
    )


def induced_behavior(ft: FunctionTuple) -> Behavior:
    """The 0/1 table a deterministic function tuple generates."""
    table = {
        (x, ft.outputs_at(x)): Fraction(1) for x in ft.input_vectors()
    }
    return Behavior(
        parties=ft.parties, inputs=ft.inputs, outputs=ft.outputs, table=table
    )


@dataclass(frozen=True)
class FnsViolation:
    """f_k changed while x_k stayed fixed: (k, x_k, two full contexts)."""

    party: int
    x_k: int
    x_first: Vector
    x_other: Vector
    out_first: int
    out_other: int

    def __str__(self) -> str:
        return (
            f"party {self.party + 1} at own input {self.x_k}: "
            f"outputs {self.out_first} under {self.x_first} "
            f"but {self.out_other} under {self.x_other}"
        )


@dataclass(frozen=True)
class FnsReport:
    violations: tuple[FnsViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_fns(ft: FunctionTuple) -> FnsReport:
    """Verify each f_k depends on its own input only, over the full grid."""
    violations = []
    for k in range(ft.parties):
        groups: dict[int, tuple[Vector, int]] = {}
        for x in ft.input_vectors():
            out = ft.apply(k, x)
            seen = groups.get(x[k])
            if seen is None:
                groups[x[k]] = (x, out)
            elif seen[1] != out:
                violations.append(
                    FnsViolation(k, x[k], seen[0], x, seen[1], out)
                )
    return FnsReport(violations=tuple(violations))


def is_factored(ft: FunctionTuple) -> bool:
    """Existence of single-argument F_k with f_k(x⃗) = F_k(x_k).

    Reads each candidate F_k off a fixed reference context and then checks
    it reproduces f_k everywhere; deliberately a different procedure from
    check_fns so the two can cross-validate each other.
    """
    for k in range(ft.parties):
        base = tuple(0 for _ in ft.inputs)
        candidate = {}
        for v in range(ft.inputs[k]):
            x = base[:k] + (v,) + base[k + 1:]
            candidate[v] = ft.apply(k, x)
        for x in ft.input_vectors():
            if ft.apply(k, x) != candidate[x[k]]:
                return False
    return True


@dataclass(frozen=True)
class EquivalenceReport:
    total: int
    fns_count: int
    factored_count: int
    coincide: bool

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "fns": self.fns_count,
            "factored": self.factored_count,
            "equal": self.coincide,
        }


def check_functional_locality_equivalence(
    inputs: Sequence[int], outputs: Sequence[int], budget: int = DEFAULT_BUDGET
) -> EquivalenceReport:
    """Count the FNS and the factored tuples over small alphabets.

    Both check_fns and is_factored are conjunctions of one property per
    party, so a tuple passes either check iff each of its functions does:
    the counts are products of per-party counts.  The two classifications
    agree on every tuple iff they agree on every single-party function;
    for the "only if", complete a disagreeing function with constant
    functions, which pass both checks.  So each party's o_k^g functions of
    the g-point input grid are classified once, by the two procedures
    independently, as one integer array.  _equivalence_reference
    enumerates the tuples themselves and is the tested reference.

    The budget counts the Σ_k o_k^g · g array cells classified, checked
    before any array is built; the report's total is still the exact
    ∏ o_k^g.  Raises ValueError unless there is at least one party and
    every size is >= 1.
    """
    inputs = tuple(int(n) for n in inputs)
    outputs = tuple(int(n) for n in outputs)
    if len(inputs) != len(outputs):
        raise ValueError("one input and one output alphabet size per party")
    if not inputs:
        raise ValueError("need at least one party")
    if any(n < 1 for n in inputs + outputs):
        raise ValueError("alphabet sizes must be >= 1")
    _check_equivalence_budget(inputs, outputs, budget)

    g = math.prod(inputs)
    # Party k's functions as [rows, inputs before k, x_k, inputs after k];
    # parties of one output size and one such grid classify alike.
    shapes, before = [], 1
    for n, size in zip(inputs, outputs):
        shapes.append((size, before, n, g // (before * n)))
        before *= n
    fns_count = factored_count = 1
    coincide = True
    for (size, *grid), parties in Counter(shapes).items():
        functions = _party_functions(size, tuple(grid))
        # FNS: at each own input, constant over the other parties' inputs.
        fns = np.all(functions.max(axis=(1, 3)) == functions.min(axis=(1, 3)), axis=1)
        # Factored: the reading off the base context, broadcast, is f_k.
        factored = np.all(functions == functions[:, :1, :, :1], axis=(1, 2, 3))
        fns_count *= int(fns.sum()) ** parties
        factored_count *= int(factored.sum()) ** parties
        coincide = coincide and bool(np.array_equal(fns, factored))
    return EquivalenceReport(
        total=math.prod(size**g for size in outputs),
        fns_count=fns_count,
        factored_count=factored_count,
        coincide=coincide,
    )


def _check_equivalence_budget(
    inputs: tuple[int, ...], outputs: tuple[int, ...], budget: int
) -> None:
    """Raise BudgetExceededError if the per-party classification would fill
    more than budget cells: Σ_k o_k^g · g, for o_k^g functions of g points.

    Compared as logarithms first, so a declaration beyond the budget fails
    before any exact power, or g itself, is built; only a count that fits
    the budget up to rounding is computed, and compared, exactly.
    """
    what = "response-function cells"
    log_g = math.fsum(math.log(n) for n in inputs)
    try:  # the terms' natural logs; exp overflows only for g beyond any budget
        logs = [log_g + (math.exp(log_g) * math.log(o) if o > 1 else 0.0) for o in outputs]
    except OverflowError:
        logs = [math.inf]
    top = max(logs)
    if math.isfinite(top):
        top += math.log(math.fsum(math.exp(x - top) for x in logs))
    if budget < 1 or top > math.log(budget) * (1 + 1e-9) + 1e-9:
        raise BudgetExceededError(None, budget, what, log10_required=top / math.log(10))
    g = math.prod(inputs)
    cells = g * sum(size**g for size in outputs)
    if cells > budget:
        raise BudgetExceededError(cells, budget, what)


def _party_functions(size: int, inputs: tuple[int, ...]) -> np.ndarray:
    """Every function of the input grid into range(size), shape [size**g, *inputs].

    Row r holds the r-th tuple of itertools.product(range(size), repeat=g)
    over the grid in itertools.product order, the order in which
    _equivalence_reference builds one party's functions.
    """
    g = math.prod(inputs)
    rows = np.arange(size**g, dtype=np.int64)
    functions = np.empty((size**g, g), dtype=np.min_scalar_type(size - 1))
    for j in reversed(range(g)):
        functions[:, j] = rows % size
        rows //= size
    return functions.reshape((size**g,) + inputs)


def _equivalence_reference(
    inputs: Sequence[int], outputs: Sequence[int], budget: int = DEFAULT_BUDGET
) -> EquivalenceReport:
    """Brute-force the FNS ⇔ factored-form equivalence over small alphabets.

    Enumerates every deterministic function tuple on the given alphabets,
    classifies each one by check_fns and by is_factored independently, and
    reports whether the two classifications coincide tuple-for-tuple.
    """
    inputs = tuple(int(n) for n in inputs)
    outputs = tuple(int(n) for n in outputs)
    if len(inputs) != len(outputs):
        raise ValueError("one input and one output alphabet size per party")
    grid = list(itertools.product(*(range(n) for n in inputs)))
    g = len(grid)
    total = math.prod(size**g for size in outputs)
    if total > budget:
        raise BudgetExceededError(total, budget)

    per_party_functions = [
        [dict(zip(grid, values)) for values in itertools.product(range(size), repeat=g)]
        for size in outputs
    ]
    fns_count = 0
    factored_count = 0
    coincide = True
    for combo in itertools.product(*per_party_functions):
        ft = FunctionTuple(inputs=inputs, outputs=outputs, functions=combo)
        a = check_fns(ft).passed
        b = is_factored(ft)
        fns_count += a
        factored_count += b
        coincide = coincide and (a == b)
    return EquivalenceReport(
        total=total,
        fns_count=fns_count,
        factored_count=factored_count,
        coincide=coincide,
    )


def pr_box() -> Behavior:
    """Binary 2-party box with a ⊕ b = x·y, each admissible pair at 1/2."""
    half = Fraction(1, 2)
    table = {}
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if a ^ b == x * y:
                        table[((x, y), (a, b))] = half
    return Behavior(parties=2, inputs=(2, 2), outputs=(2, 2), table=table)


def signaling_box() -> Behavior:
    """Party 2 deterministically outputs party 1's input: maximally signaling."""
    table = {}
    for x in range(2):
        for y in range(2):
            table[((x, y), (0, x))] = Fraction(1)
    return Behavior(parties=2, inputs=(2, 2), outputs=(2, 2), table=table)


def local_product_box() -> Behavior:
    """a = x and b = y: deterministic, local, extremal."""
    table = {}
    for x in range(2):
        for y in range(2):
            table[((x, y), (x, y))] = Fraction(1)
    return Behavior(parties=2, inputs=(2, 2), outputs=(2, 2), table=table)


def uniform_noise_box() -> Behavior:
    """All four outcomes equally likely whatever the inputs."""
    quarter = Fraction(1, 4)
    table = {}
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    table[((x, y), (a, b))] = quarter
    return Behavior(parties=2, inputs=(2, 2), outputs=(2, 2), table=table)
