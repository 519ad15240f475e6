"""Finite-alphabet behavior verification.

A behavior is a conditional distribution P(a1..aN | x1..xN) over finite
alphabets.  This module checks the no-signaling marginal conditions, detects
deterministic extremal points, extracts and checks functional no-signaling,
and brute-forces the equivalence between FNS and functional locality.

Tables are rational by default; floating tables must declare a tolerance,
since every check here is an equality of marginals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Vector = tuple[int, ...]

# The most steps one enumeration or behavior check may take.
DEFAULT_BUDGET = 10**6


class BudgetExceededError(ValueError):
    """Enumeration would exceed the allowed budget."""

    def __init__(self, required: int, budget: int, what: str = "function tuples") -> None:
        super().__init__(f"enumeration needs {required} {what}, budget is {budget}")
        self.required = required
        self.budget = budget


def _parse_prob(value) -> Fraction | float:
    if isinstance(value, bool):
        raise ValueError(f"probability must be numeric, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"cannot parse probability {value!r}")


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
        table = {}
        for i, entry in enumerate(doc["table"]):
            try:
                x = tuple(int(v) for v in entry["x"])
                a = tuple(int(v) for v in entry["a"])
                p = _parse_prob(entry["p"])
            except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
                raise ValueError(f"table entry {i}: {exc}") from exc
            if (x, a) in table:
                raise ValueError(f"table entry {i}: duplicate cell ({x}, {a})")
            table[(x, a)] = p
        return cls(
            parties=int(doc["parties"]),
            inputs=tuple(int(n) for n in doc["inputs"]),
            outputs=tuple(int(n) for n in doc["outputs"]),
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
    strict: bool

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
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
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
    """
    n = behavior.parties
    cells = math.prod(behavior.inputs) * math.prod(behavior.outputs)
    required = cells * max(1, 2**n - 2) if strict else cells
    if required > DEFAULT_BUDGET:
        raise BudgetExceededError(required, DEFAULT_BUDGET, "table cell visits")
    eps = _resolve_tol(behavior, tol)
    norm_tol = float(eps) if not behavior.exact else 0.0
    bad = behavior.normalization_errors(norm_tol)
    if bad:
        x, total = bad[0]
        raise ValueError(f"behavior is not normalized: sum at x={x} is {total}")

    if strict:
        subsets = [
            s
            for r in range(1, n)
            for s in itertools.combinations(range(n), r)
        ]
    else:
        subsets = [(k,) for k in range(n)] if n > 1 else []

    violations = []
    for subset in subsets:
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
    return NSReport(violations=tuple(violations), strict=strict)


def _merge(subset: Vector, x_sub: Vector, rest: Vector, ctx: Vector, n: int) -> Vector:
    x = [0] * n
    for k, v in zip(subset, x_sub):
        x[k] = v
    for k, v in zip(rest, ctx):
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
    total = 1
    for size in outputs:
        total *= size**g
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
