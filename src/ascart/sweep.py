"""Randomized constancy sweeps at fixed pole orders.

A sweep draws curves with prescribed pole orders -- distinct uniformly
random finite pole locations, uniformly random coefficients with nonzero
leading terms and no constant term at finite poles -- and computes the
a-number and p-rank of each.  When p = 1 mod L the a-number must come out
the same every time, equal to the closed-form value; the sweep makes that
an executable check.  Outside that regime the sweep reports the observed
distribution without a pass/fail verdict.  Every sample's p-rank must be
m(p-1) (Deuring-Shafarevich) on both sides; one that is not is a bug and
raises AssertionError.

Sampling is splittable and reproducible: sample i uses its own
random.Random seeded with the first 8 bytes of sha256("<seed>:<i>"), so
reports are byte-identical for equal (config, seed) and samples could be
drawn in any order or in parallel without changing the output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, astuple, dataclass, fields

from .cartier import cartier_matrix, check_digit_cap
from .curve import CurveSpec, PoleDatum, order_invariants
from .errors import ConditionNotSatisfied, FieldTooSmall, InvalidInput
from .finite_field import GF, Field
from .invariants import p_rank_stable, rank, theorem_a_value

GENERATOR_NAME = "sha256-split/mt19937"


def child_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _finite_poles(field: Field, orders) -> int:
    """m, the number of finite poles, if field has room for them."""
    m = len(orders) - 1
    if field.order < m:
        raise FieldTooSmall(f"{field} has {field.order} elements, fewer than {m} finite poles")
    return m


def random_curve(field: Field, orders, rng: random.Random) -> CurveSpec:
    """One curve with the given pole orders, drawn uniformly."""
    orders = list(orders)
    m = _finite_poles(field, orders)
    inf_coeffs = [field.random_element(rng) for _ in range(orders[0])]
    inf_coeffs.append(field.random_element(rng, nonzero=True))
    poles = [PoleDatum.at_infinity(field, inf_coeffs)]
    locations = [field.from_counter(n) for n in rng.sample(range(field.order), m)]
    for d, loc in zip(orders[1:], locations):
        coeffs = [field.random_element(rng) for _ in range(d - 1)]
        coeffs.append(field.random_element(rng, nonzero=True))
        poles.append(PoleDatum.finite(field, loc, coeffs))
    return CurveSpec(field, tuple(poles))


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's parameters; whatever they alone decide is checked here."""

    p: int
    field_degree: int
    orders: tuple[int, ...]
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidInput("sample count must be >= 1")
        if not self.orders or min(self.orders) < 1:
            raise InvalidInput("pole orders must be >= 1")
        # the field, its room for the finite poles, the orders prime to p and
        # the digit cap on the genus, which (p, orders) alone decide: no draw
        field = GF(self.p, self.field_degree)
        _finite_poles(field, self.orders)
        check_digit_cap(order_invariants(self.p, self.orders).g, field)


@dataclass(frozen=True)
class SampleResult:
    sample: int
    seed: int
    a: int
    s: int
    g: int
    rank: int


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    generator: str
    theorem_value: int | None
    samples: tuple[SampleResult, ...]
    distinct_a: tuple[int, ...]
    passed: bool | None

    def csv_lines(self) -> list[str]:
        lines = [",".join(f.name for f in fields(SampleResult))]
        lines.extend(",".join(map(str, astuple(r))) for r in self.samples)
        return lines

    def render(self) -> str:
        cfg = self.config
        orders = ",".join(str(d) for d in cfg.orders)
        head = [
            f"sweep p={cfg.p} field=GF({cfg.p}^{cfg.field_degree}) "
            f"orders={orders} samples={cfg.samples} seed={cfg.seed}",
            f"generator: {self.generator}",
            f"distinct a values: {sorted(self.distinct_a)}",
            f"theorem a: {self.theorem_value}",
            f"pass: {self.passed}",
        ]
        return "\n".join(head + self.csv_lines()) + "\n"

    def to_json(self) -> dict:
        return {
            **asdict(self.config),
            "orders": list(self.config.orders),
            "generator": self.generator,
            "theorem_a": self.theorem_value,
            "distinct_a": sorted(self.distinct_a),
            "pass": self.passed,
            "results": [asdict(r) for r in self.samples],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"


def run_sweep(config: SweepConfig) -> SweepReport:
    """Draw the configured samples and check a-number constancy."""
    field = GF(config.p, config.field_degree)
    try:
        theorem = theorem_a_value(config.p, config.orders)
    except ConditionNotSatisfied:
        theorem = None
    p_rank = (len(config.orders) - 1) * (config.p - 1)  # m(p-1), Deuring-Shafarevich
    results = []
    for i in range(config.samples):
        seed_i = child_seed(config.seed, i)
        spec = random_curve(field, config.orders, random.Random(seed_i))
        M = cartier_matrix(spec, "local")
        r, s = rank(M), p_rank_stable(M)
        if s != p_rank:  # a bug, never a mismatch
            raise AssertionError(f"sample {i}: p-rank {s} is not m(p-1) = {p_rank}")
        results.append(
            SampleResult(
                sample=i,
                seed=seed_i,
                a=M.dimension - r,
                s=s,
                g=M.dimension,
                rank=r,
            )
        )
    distinct = tuple(sorted({r.a for r in results}))
    passed = None
    if theorem is not None:
        passed = len(distinct) == 1 and distinct[0] == theorem
    return SweepReport(
        config=config,
        generator=GENERATOR_NAME,
        theorem_value=theorem,
        samples=tuple(results),
        distinct_a=distinct,
        passed=passed,
    )
