"""Claim verification harness.

Exact rational bound functions, exhaustive and seeded sweeps over the claim
catalog (ids in ``THEOREM_IDS``), and a structure profiler for the optimal
witnesses of a single instance. Every sweep returns a ``VerificationReport``
whose counterexample records embed the instance in BBG text, so a failure
can be replayed from the report alone.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (BalancedBipartiteGraph, VertexSubset, emit_bbg, from_rows,
                   is_induced_forest, min_degree)
from .errors import BudgetExceededError, ParameterError
from .generators import (complete_balanced, prop1_construction,
                         random_min_degree, random_th7, thh1_l1, thh1_l2,
                         thm3_lambda2, thm3_lambda_half)
from .solver import (ENUMERATION_BUDGET, enumerate_max_forests, max_forest,
                     max_forest_bruteforce)

__all__ = [
    "THEOREM_IDS",
    "StructureProfile",
    "VerificationReport",
    "bound_g",
    "bound_h",
    "bound_t8",
    "check_bounds",
    "merge_reports",
    "profile_structure",
    "verify_constructions",
    "verify_structure",
    "verify_t1_exhaustive",
    "verify_t1_random",
    "verify_t8",
]

THEOREM_IDS = ("T1", "P1", "T2", "T4", "C1", "T6λ1", "T6λ2", "T6λhalf",
               "T7l1", "T7l2", "T8", "BOUNDS")

Rat = int | Fraction


def _threshold(n: int) -> int:
    # smallest integer degree satisfying delta >= n/2 + 1
    return (n + 3) // 2


# ---------------------------------------------------------------------------
# exact bound functions
# ---------------------------------------------------------------------------

def bound_g(n: Rat, k: Rat) -> Fraction:
    """Degree-sum lower bound k * (n/2 + 3 - k), exact rational."""
    k = Fraction(k)
    return k * (Fraction(n) / 2 + 3 - k)


def bound_h(n: Rat, k: Rat) -> Fraction:
    """Degree-sum lower bound k * (n/2 + 2 - k), exact rational."""
    k = Fraction(k)
    return k * (Fraction(n) / 2 + 2 - k)


def bound_t8(n: Rat, k: Rat) -> Fraction:
    """Degree-sum lower bound for the relaxed-threshold argument:
    (n+1)/2 + 2 - k + (k - 1) * ((n+1)/2 + 3 - k), exact rational."""
    k = Fraction(k)
    m = (Fraction(n) + 1) / 2
    return m + 2 - k + (k - 1) * (m + 3 - k)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Result of one verification sweep.

    ``verdict`` is derived: pass exactly when no counterexamples were
    recorded. Counterexample entries are dicts with keys ``bbg`` (instance
    text, or None for non-graph claims), optional ``witness``, and
    ``detail``.
    """

    theorem_id: str
    params: dict
    instances_checked: int
    counterexamples: list[dict] = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def verdict(self) -> str:
        return "pass" if not self.counterexamples else "fail"

    def to_dict(self, include_timing: bool = True) -> dict:
        out: dict = {
            "theorem_id": self.theorem_id,
            "params": self.params,
            "instances_checked": self.instances_checked,
            "counterexamples": self.counterexamples,
        }
        if include_timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        out["verdict"] = self.verdict
        return out

    def render_text(self, include_timing: bool = True) -> str:
        lines = [f"theorem {self.theorem_id}: {self.verdict}",
                 f"  instances checked: {self.instances_checked}",
                 f"  counterexamples: {len(self.counterexamples)}"]
        for cex in self.counterexamples[:10]:
            lines.append(f"    - {cex['detail']}")
        if len(self.counterexamples) > 10:
            lines.append(f"    ... and {len(self.counterexamples) - 10} more")
        lines.append(f"  params: {self.params}")
        if include_timing:
            lines.append(f"  elapsed: {self.elapsed_ms:.1f} ms")
        return "\n".join(lines)


def _witness_json(w: VertexSubset) -> dict:
    v1, v2 = w.indices()
    return {"v1": list(v1), "v2": list(v2)}


def _cex(g: BalancedBipartiteGraph | None, witness: VertexSubset | None,
         detail: str) -> dict:
    entry: dict = {"bbg": emit_bbg(g) if g is not None else None}
    if witness is not None:
        entry["witness"] = _witness_json(witness)
    entry["detail"] = detail
    return entry


def _finish(theorem_id: str, params: dict, checked: int,
            counterexamples: list[dict], t0: float) -> VerificationReport:
    return VerificationReport(theorem_id, params, checked, counterexamples,
                              (time.perf_counter() - t0) * 1000.0)


def merge_reports(reports: Sequence[VerificationReport],
                  theorem_id: str | None = None) -> VerificationReport:
    """Associatively merge reports of one theorem: counts add up and
    counterexamples concatenate in input order."""
    if not reports:
        raise ParameterError("nothing to merge")
    tid = theorem_id or reports[0].theorem_id
    if any(r.theorem_id != tid for r in reports):
        raise ParameterError("cannot merge reports of different theorems")
    cex: list[dict] = []
    for r in reports:
        cex.extend(r.counterexamples)
    return VerificationReport(
        tid,
        {"runs": [r.params for r in reports]},
        sum(r.instances_checked for r in reports),
        cex,
        sum(r.elapsed_ms for r in reports),
    )


def _run_instances(fn: Callable, args_list: list, jobs: int) -> list:
    if jobs <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, args_list))


def _recheck(g: BalancedBipartiteGraph, res, expected: int,
             where: str = "") -> list[dict]:
    # independent re-validation of a solver witness, then the claimed
    # forest number; ``where`` ends that detail, e.g. " (seed 3)"
    issues = []
    if res.witness.size != res.forest_number:
        issues.append(_cex(g, res.witness, "witness size disagrees with forest number"))
    if not is_induced_forest(g, res.witness):
        issues.append(_cex(g, res.witness, "solver witness failed the independent forest check"))
    if res.forest_number != expected:
        issues.append(_cex(g, res.witness,
            f"forest number {res.forest_number}, expected {expected}{where}"))
    return issues


# ---------------------------------------------------------------------------
# BOUNDS: exact inequality sweep
# ---------------------------------------------------------------------------

def check_bounds(n_max: int) -> VerificationReport:
    """Sweep the three degree-sum inequalities over all integer k in their
    stated ranges for every n up to ``n_max``.

    Comparisons are exact (integer-scaled rationals, no floating point). A
    counterexample is recorded when the integer consequence fails, i.e. the
    ceiling of the bound drops below the required edge count. Exact values
    below the threshold whose ceiling still meets it are reported in params
    as fractional near-misses; k = 2 evaluations of the second bound are
    reported separately rather than counted.
    """
    if n_max < 2:
        raise ParameterError(f"need n_max >= 2, got {n_max}")
    t0 = time.perf_counter()
    checked = 0
    counterexamples: list[dict] = []
    near_misses: list[list] = []
    h_k2_count = 0
    h_k2_sample: list[list] = []
    for n in range(2, n_max + 1):
        # bound_g(n, k) >= n + 2 for k in [2, floor((n+2)/2)]
        # scaled by 2: k*(n + 6 - 2k) vs 2(n + 2)
        for k in range(2, (n + 2) // 2 + 1):
            checked += 1
            v2 = k * (n + 6 - 2 * k)
            if v2 <= 2 * (n + 1):
                counterexamples.append(_cex(None, None,
                    f"g(n={n}, k={k}) = {Fraction(v2, 2)} has ceiling below {n + 2}"))
            elif v2 < 2 * (n + 2):
                near_misses.append(["g", n, k, str(Fraction(v2, 2))])
        # bound_h(n, k) >= n + 1 for k in [3, floor((n-1)/2)]; k = 2 is
        # evaluated too but reported separately
        for k in range(2, (n - 1) // 2 + 1):
            checked += 1
            v2 = k * (n + 4 - 2 * k)
            fails_int = v2 <= 2 * n
            below_exact = v2 < 2 * (n + 1)
            if k == 2:
                if fails_int or below_exact:
                    h_k2_count += 1
                    if len(h_k2_sample) < 5:
                        h_k2_sample.append([n, k, str(Fraction(v2, 2))])
                continue
            if fails_int:
                counterexamples.append(_cex(None, None,
                    f"h(n={n}, k={k}) = {Fraction(v2, 2)} has ceiling below {n + 1}"))
            elif below_exact:
                near_misses.append(["h", n, k, str(Fraction(v2, 2))])
        # bound_t8(n, k) >= n + 2 for odd n, k in [2, (n+1)/2]; the value is
        # an integer at integer k when n is odd
        if n % 2:
            m = (n + 1) // 2
            for k in range(2, m + 1):
                checked += 1
                v = -k * k + (m + 3) * k - 1
                if v < n + 2:
                    counterexamples.append(_cex(None, None,
                        f"t8(n={n}, k={k}) = {v} below {n + 2}"))
    params = {
        "n_max": n_max,
        "fractional_near_misses": near_misses,
        "h_k2_below_threshold": {"count": h_k2_count, "sample": h_k2_sample},
    }
    return _finish("BOUNDS", params, checked, counterexamples, t0)


# ---------------------------------------------------------------------------
# T1: high minimum degree forces forest number n + 1
# ---------------------------------------------------------------------------

def _qualifying_row_sets(n: int, delta: int) -> Iterator[tuple[int, ...]]:
    # complete scan of all labeled adjacency matrices, pruned on partial
    # row/column degree bounds; equivalent to filtering the full 2^(n*n)
    # space on minimum degree >= delta
    row_options = [r for r in range(1 << n) if r.bit_count() >= delta]
    rows: list[int] = []
    cols = [0] * n

    def rec(depth: int) -> Iterator[tuple[int, ...]]:
        if depth == n:
            yield tuple(rows)
            return
        remaining = n - depth - 1
        for r in row_options:
            ok = True
            for j in range(n):
                cols[j] += r >> j & 1
                if cols[j] + remaining < delta:
                    ok = False
            if ok:
                rows.append(r)
                yield from rec(depth + 1)
                rows.pop()
            for j in range(n):
                cols[j] -= r >> j & 1

    return rec(0)


def verify_t1_exhaustive(n: int, *, allow_n5: bool = False) -> VerificationReport:
    """Check every labeled instance with minimum degree >= n/2 + 1 for
    forest number exactly n + 1, using the subset-scan oracle.

    n in {2, 3, 4} by default; n = 5 must be opted into (33.5M matrices).
    """
    if n not in (2, 3, 4) and not (n == 5 and allow_n5):
        raise ParameterError(
            f"exhaustive sweep covers n in 2..4 (n=5 behind allow_n5), got {n}")
    t0 = time.perf_counter()
    delta = _threshold(n)
    checked = 0
    counterexamples: list[dict] = []
    for rows in _qualifying_row_sets(n, delta):
        g = from_rows(n, rows)
        checked += 1
        counterexamples.extend(_recheck(g, max_forest_bruteforce(g), n + 1))
    params = {"n": n, "min_degree_threshold": delta,
              "matrices_scanned": 2 ** (n * n)}
    return _finish("T1", params, checked, counterexamples, t0)


def _t1_random_instance(args: tuple[int, int, int]) -> list[dict]:
    n, delta, seed = args
    g = random_min_degree(n, delta, seed)
    return _recheck(g, max_forest(g), n + 1, f" (seed {seed})")


def verify_t1_random(n: int, samples: int = 100, seed: int = 1,
                     jobs: int = 1) -> VerificationReport:
    """Seeded random sweep of the minimum-degree claim at part size n."""
    if not 1 <= n <= 64:
        raise ParameterError(f"need 1 <= n <= 64, got {n}")
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    t0 = time.perf_counter()
    delta = _threshold(n)
    args = [(n, delta, seed + i) for i in range(samples)]
    counterexamples: list[dict] = []
    for issues in _run_instances(_t1_random_instance, args, jobs):
        counterexamples.extend(issues)
    params = {"n": n, "samples": samples, "seed": seed,
              "min_degree_threshold": delta}
    return _finish("T1", params, samples, counterexamples, t0)


# ---------------------------------------------------------------------------
# structure of optimal witnesses (T2 / T4 / C1)
# ---------------------------------------------------------------------------

@dataclass
class StructureProfile:
    """Distribution of the smaller-part size over all optimal witnesses."""

    forest_number: int
    lambdas: frozenset[int]
    witness_per_lambda: dict[int, VertexSubset]
    exhaustive: bool

    def to_dict(self) -> dict:
        return {
            "forest_number": self.forest_number,
            "lambdas": sorted(self.lambdas),
            "witness_per_lambda": {
                str(lam): _witness_json(w)
                for lam, w in sorted(self.witness_per_lambda.items())
            },
            "exhaustive": self.exhaustive,
        }


def profile_structure(g: BalancedBipartiteGraph,
                      budget: int = ENUMERATION_BUDGET) -> StructureProfile:
    """Fold every maximum forest into its smaller-part size.

    Keeps the lexicographically first witness per observed value. When the
    enumeration budget refuses C(2n, f), the profile degrades to the single
    solver witness and is marked non-exhaustive instead of raising.
    """
    res = max_forest(g)
    try:
        witnesses = enumerate_max_forests(
            g, forest_number=res.forest_number, budget=budget)
        per: dict[int, VertexSubset] = {}
        for w in witnesses:
            lam = w.min_part_size()
            if lam not in per:
                per[lam] = w
        return StructureProfile(res.forest_number, frozenset(per),
                                dict(sorted(per.items())), True)
    except BudgetExceededError:
        lam = res.witness.min_part_size()
        return StructureProfile(res.forest_number, frozenset({lam}),
                                {lam: res.witness}, False)


def _structure_instance(args: tuple[int, int, int, str]) -> dict:
    n, delta, seed, check = args
    g = random_min_degree(n, delta, seed)
    res = max_forest(g)
    issues = _recheck(g, res, n + 1, f" (seed {seed})")
    if res.forest_number != n + 1:
        return {"cex": issues, "witnesses": 0}
    allowed = {1, 2}
    if n % 2 == 0:
        allowed.add(n // 2)
    count = 0
    for w in enumerate_max_forests(g, forest_number=res.forest_number):
        count += 1
        lam = w.min_part_size()
        if check == "T2":
            if lam not in allowed:
                issues.append(_cex(g, w,
                    f"witness with smaller part {lam} outside {sorted(allowed)} (seed {seed})"))
        elif check == "T4":
            if n % 2 == 1 and lam == 2:
                issues.append(_cex(g, w,
                    f"smaller part 2 witness on odd n={n} (seed {seed})"))
        elif check == "C1":
            if lam != 1:
                issues.append(_cex(g, w,
                    f"witness with smaller part {lam} != 1 on odd n={n} (seed {seed})"))
    if check == "C1":
        # converse direction: every one-sided selection of size n + 1
        # must induce a forest
        full = (1 << n) - 1
        for i in range(n):
            for cand in (VertexSubset(1 << i, full), VertexSubset(full, 1 << i)):
                if not is_induced_forest(g, cand):
                    issues.append(_cex(g, cand,
                        f"one-sided subset of size {n + 1} is not a forest (seed {seed})"))
    return {"cex": issues, "witnesses": count}


def verify_structure(n: int, samples: int = 25, seed: int = 1,
                     check: str = "T2", jobs: int = 1) -> VerificationReport:
    """Enumerate all optimal witnesses over seeded qualifying instances and
    test their smaller-part sizes.

    check selects the claim: "T2" (sizes limited to {1, 2, n/2}), "T4"
    (size 2 never occurs when n is odd), "C1" (odd n: size 1 exclusively,
    and conversely every one-sided selection is a forest; requires odd n).
    """
    if check not in ("T2", "T4", "C1"):
        raise ParameterError(f"check must be one of T2, T4, C1, got {check!r}")
    if not 2 <= n <= 12:
        raise ParameterError(f"need 2 <= n <= 12 for full enumeration, got {n}")
    if check == "C1" and n % 2 == 0:
        raise ParameterError("C1 concerns odd n only")
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    t0 = time.perf_counter()
    delta = _threshold(n)
    args = [(n, delta, seed + i, check) for i in range(samples)]
    counterexamples: list[dict] = []
    witnesses = 0
    for out in _run_instances(_structure_instance, args, jobs):
        counterexamples.extend(out["cex"])
        witnesses += out["witnesses"]
    params = {"n": n, "samples": samples, "seed": seed, "check": check,
              "min_degree_threshold": delta, "witnesses_enumerated": witnesses}
    if check == "T4" and n % 2 == 0:
        params["note"] = "vacuous for even n"
    return _finish(check, params, samples, counterexamples, t0)


# ---------------------------------------------------------------------------
# explicit constructions (P1, T6*, T7*)
# ---------------------------------------------------------------------------

class _Case(NamedTuple):
    """One construction instance and what its family claims about it."""

    g: BalancedBipartiteGraph
    where: str                          # its parameters, e.g. "n=4"
    forest_number: int
    degree: int | None = None           # claimed minimum degree, exact
    degree_floor: int | None = None     # claimed lower bound on it
    witness: VertexSubset | None = None  # of size forest_number
    split: int | None = None            # the witness's smaller-part size
    witness_failed: str = ""            # detail when the witness fails


def _t6_case(n: int, g: BalancedBipartiteGraph, witness: VertexSubset,
             split: int) -> _Case:
    return _Case(g, f"n={n}", n + 1, degree_floor=n // 2 + 1,
                 witness=witness, split=split,
                 witness_failed="advertised witness failed shape checks")


def _t7_case(n: int, k: int, g: BalancedBipartiteGraph, extra: int,
             witness: VertexSubset | None = None) -> _Case:
    return _Case(g, f"n={n}, k={k}", g.n + extra, degree=k, witness=witness,
                 witness_failed="canonical witness failed")


# claim id -> (default sizes, case builder); sizes are part sizes n, or
# (n, k) pairs for T7. The builders name the family functions at call time,
# so a replaced module attribute takes effect.
_CONSTRUCTIONS = {
    "P1": (tuple(range(2, 11)), lambda n: _Case(
        prop1_construction(n), f"n={n}", n + 2, degree=(n + 1) // 2)),
    "T6λ1": (tuple(range(2, 9)), lambda n: _Case(
        complete_balanced(n), f"n={n}", n + 1,
        witness=VertexSubset((1 << n) - 1, 1), split=1,
        witness_failed="canonical one-sided witness failed")),
    "T6λ2": ((4, 6, 8, 10), lambda n: _t6_case(n, *thm3_lambda2(n), 2)),
    "T6λhalf": ((4, 6, 8, 10),
                lambda n: _t6_case(n, *thm3_lambda_half(n), n // 2)),
    "T7l1": (((3, 2), (5, 2), (5, 3), (7, 3)),
             lambda pair: _t7_case(*pair, thh1_l1(*pair), 1)),
    # canonical witness: the whole second part plus x and the
    # reduced-degree base vertex
    "T7l2": (((6, 2), (6, 3), (8, 3)), lambda pair: _t7_case(
        *pair, thh1_l2(*pair), 2,
        VertexSubset(1 | (1 << pair[0]), (1 << (pair[0] + 1)) - 1))),
}


def verify_constructions(theorem_id: str,
                         ns: Iterable[int] | None = None,
                         pairs: Iterable[tuple[int, int]] | None = None
                         ) -> VerificationReport:
    """Build each construction instance and confirm what its family claims
    with the exact solver.

    Every instance is checked in one order: its minimum degree (exact for
    P1 and T7, a floor for T6λ2 and T6λhalf), its advertised witness where
    it has one (size, smaller-part size, acyclicity), the solver witness,
    and the forest number. P1 and the T6 cases take part sizes ``ns``; the
    T7 cases take (n, k) ``pairs``. Defaults cover the documented
    desk-scale ranges.
    """
    if theorem_id not in _CONSTRUCTIONS:
        raise ParameterError(
            f"theorem_id must name a construction family, got {theorem_id!r}")
    t0 = time.perf_counter()
    defaults, make_case = _CONSTRUCTIONS[theorem_id]
    by_pairs = theorem_id.startswith("T7")
    given = pairs if by_pairs else ns
    values = tuple(given) if given is not None else defaults
    counterexamples: list[dict] = []
    for size in values:
        case = make_case(size)
        g, where = case.g, f" ({case.where})"
        degree = min_degree(g)
        if case.degree is not None and degree != case.degree:
            counterexamples.append(_cex(g, None,
                f"minimum degree {degree}, expected {case.degree}{where}"))
        if case.degree_floor is not None and degree < case.degree_floor:
            counterexamples.append(_cex(g, None,
                f"minimum degree {degree} below {case.degree_floor}{where}"))
        w = case.witness
        if w is not None and (w.size != case.forest_number
                              or case.split not in (None, w.min_part_size())
                              or not is_induced_forest(g, w)):
            counterexamples.append(_cex(g, w, case.witness_failed + where))
        counterexamples.extend(
            _recheck(g, max_forest(g), case.forest_number, where))
    params = ({"pairs": [list(p) for p in values]} if by_pairs
              else {"n_values": list(values)})
    return _finish(theorem_id, params, len(values), counterexamples, t0)


# ---------------------------------------------------------------------------
# T8: relaxed threshold with one floor-degree vertex per part
# ---------------------------------------------------------------------------

def _t8_instance(args: tuple[int, int]) -> list[dict]:
    n, seed = args
    g = random_th7(n, seed)
    floor = (n + 1) // 2
    issues = []
    if min_degree(g) < floor:
        issues.append(_cex(g, None, f"minimum degree below {floor} (seed {seed})"))
    for rows in (g.adj1, g.adj2):
        if sum(1 for row in rows if row.bit_count() == floor) > 1:
            issues.append(_cex(g, None,
                f"more than one floor-degree vertex in a part (seed {seed})"))
    issues.extend(_recheck(g, max_forest(g), n + 1, f" (seed {seed})"))
    return issues


def verify_t8(n_values: Iterable[int] | None = None, samples: int = 25,
              seed: int = 1, jobs: int = 1) -> VerificationReport:
    """Seeded sweep of the relaxed-threshold claim: minimum degree
    (n+1)/2 with at most one floor-degree vertex per part still forces
    forest number n + 1 (odd n)."""
    values = tuple(n_values) if n_values is not None else (5, 7, 9)
    for n in values:
        if n % 2 == 0 or not 3 <= n <= 15:
            raise ParameterError(f"need odd n in 3..15, got {n}")
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    t0 = time.perf_counter()
    args = [(n, seed + i) for n in values for i in range(samples)]
    counterexamples: list[dict] = []
    for issues in _run_instances(_t8_instance, args, jobs):
        counterexamples.extend(issues)
    params = {"n_values": list(values), "samples": samples, "seed": seed}
    return _finish("T8", params, len(args), counterexamples, t0)
