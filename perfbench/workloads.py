"""The benchmark's workloads: curve streams drawn from a seed, each with an
independent correctness check.

Every workload is a family of Artin-Schreier curves y^p - y = f(x) with
fixed pole orders over a fixed field.  A curve is one timed item.  The
computation calls into ascart only through module attributes
(``cartier.cartier_matrix``, ``zeta.l_polynomial``, ...), looked up at call
time, so the traced run can patch those names and see every call.

The checks compare against constants recorded here, from the closed forms
of the paper, never against a second call into ascart:

* a-number: a = sum_j a_j with a_j = (p-1)d_j/4 (d_j even) or
  (p-1)(d_j^2-1)/(4 d_j) (d_j odd), when every d_j divides p-1;
* p-rank: s = m(p-1) (Deuring-Shafarevich), m = number of finite poles;
* genus: g = D(p-1)/2 with D = sum_j (d_j + 1) - 2;
* zeta: the Newton polygon shrunk by p-1 equals the Hodge polygon.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ascart import cartier, curve, invariants, zeta
from ascart.finite_field import GF
from ascart.sweep import child_seed, random_curve


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    k: int
    orders: tuple[int, ...]
    D: int
    g: int
    a: int
    s: int
    top_k: int  # extension degree of the largest field computed in
    curves: int  # distinct curves per run, at least 100 so p90 has ten beyond it
    strata: int  # see make_curves; 0 takes the draws as they come
    compute: Callable  # CurveSpec -> raw result (timed)
    canonical: Callable  # raw result -> JSON-able dict of ints and strings
    check: Callable  # (Workload, canonical) -> list of problems

    @property
    def field_name(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


def _entries(M) -> list[list[int]]:
    return [list(c.digits) for row in M.entries for c in row]


# -- sweep: the paper's constancy sweep, one sample per curve ----------------


def _sweep_compute(spec):
    inv = curve.validate(spec)
    M = cartier.cartier_matrix(spec, "local")
    r = invariants.rank(M)
    return inv.g, M, r, invariants.p_rank_stable(M)


def _sweep_canonical(raw) -> dict:
    g, M, r, s = raw
    return {"g": g, "a": g - r, "s": s, "matrix": _entries(M)}


def _sweep_check(w: Workload, res: dict) -> list[str]:
    problems = []
    for key in ("g", "a", "s"):
        if res[key] != getattr(w, key):
            problems.append(f"{key} = {res[key]}, expected {getattr(w, key)}")
    if len(res["matrix"]) != res["g"] ** 2:
        problems.append(f"matrix has {len(res['matrix'])} entries for g = {res['g']}")
    return problems


# -- oracle: rational pipeline against local pipeline ------------------------


def _oracle_compute(spec):
    inv = curve.validate(spec)
    rational = cartier.cartier_matrix(spec, "rational")
    local = cartier.cartier_matrix(spec, "local")
    return inv.g, rational, local, invariants.rank(local)


def _oracle_canonical(raw) -> dict:
    g, rational, local, r = raw
    return {"g": g, "a": g - r, "rational": _entries(rational), "local": _entries(local)}


def _oracle_check(w: Workload, res: dict) -> list[str]:
    problems = []
    for key in ("g", "a"):
        if res[key] != getattr(w, key):
            problems.append(f"{key} = {res[key]}, expected {getattr(w, key)}")
    if res["rational"] != res["local"]:
        problems.append("rational and local pipelines disagree")
    return problems


# -- zeta: brute-force point counts, L-polynomial, polygons ------------------


def _zeta_compute(spec):
    inv = curve.validate(spec)
    L = zeta.l_polynomial(spec)
    newton = zeta.newton_polygon(L, spec.field.order)
    hodge = zeta.hodge_polygon(inv.orders)
    return inv.g, L, newton, zeta.compare_polygons(newton, hodge, spec.p)


def _zeta_canonical(raw) -> dict:
    g, L, newton, verdict = raw
    return {"g": g, "L": list(L.coeffs), "newton": newton.to_json(), "compare": verdict}


def _zeta_check(w: Workload, res: dict) -> list[str]:
    problems = []
    if res["g"] != w.g:
        problems.append(f"g = {res['g']}, expected {w.g}")
    if len(res["L"]) != 2 * w.g + 1 or res["L"][0] != 1:
        problems.append(f"L has {len(res['L'])} coefficients, expected {2 * w.g + 1}")
    if res["compare"] != "equal":
        problems.append(f"shrunk Newton vs Hodge: {res['compare']}, expected equal")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_prime", 13, 1, (4, 3), D=7, g=42, a=20, s=12, top_k=1, curves=100, strata=0,
            compute=_sweep_compute, canonical=_sweep_canonical, check=_sweep_check,
        ),
        Workload(
            "sweep_ext", 5, 2, (4, 2), D=6, g=12, a=6, s=4, top_k=2, curves=100, strata=0,
            compute=_sweep_compute, canonical=_sweep_canonical, check=_sweep_check,
        ),
        Workload(
            "oracle_ext", 3, 7, (2, 1), D=3, g=3, a=1, s=2, top_k=7, curves=100, strata=100,
            compute=_oracle_compute, canonical=_oracle_canonical, check=_oracle_check,
        ),
        Workload(
            "zeta_enum", 5, 1, (1, 1), D=2, g=4, a=0, s=4, top_k=4, curves=100, strata=0,
            compute=_zeta_compute, canonical=_zeta_canonical, check=_zeta_check,
        ),
    )
}


def make_curves(w: Workload, seed: int, count: int) -> list:
    """The workload's curves for a seed, drawn in order from child_seed(seed, i).

    With ``w.strata`` > 0 the draws are spread evenly over that many equal
    ranges of the first finite pole's position in the field's element order:
    a draw is kept only while its range still lacks curves.  Where a curve's
    cost grows with that position (the rational pipeline's root scan), this
    keeps the cost mix, and so the median, the same from seed to seed.
    """
    field = GF(w.p, w.k)

    def draw(i):
        return random_curve(field, w.orders, random.Random(child_seed(seed, i)))

    if not w.strata:
        return [draw(i) for i in range(count)]
    wanted = [count // w.strata + (s < count % w.strata) for s in range(w.strata)]
    kept, i = [], 0
    while len(kept) < count:
        spec = draw(i)
        i += 1
        s = spec.poles[1].location.counter() * w.strata // field.order
        if wanted[s]:
            wanted[s] -= 1
            kept.append(spec)
    return kept
