"""Claim verification harness.

Exact rational bound functions, exhaustive and seeded sweeps over the claim
catalog (ids in ``THEOREM_IDS``), and a structure profiler for the optimal
witnesses of a single instance. Every sweep returns a ``VerificationReport``
whose counterexample records embed the instance in BBG text, so a failure
can be replayed from the report alone.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .core import (BalancedBipartiteGraph, VertexSubset, emit_bbg, from_rows,
                   is_induced_forest, min_degree)
from .errors import ParameterError, PostconditionError
from .generators import (complete_balanced, prop1_construction,
                         random_min_degree, random_th7, thh1_l1, thh1_l2,
                         thm3_lambda2, thm3_lambda_half)
from .solver import (SOLVER_PART_CAP, enumerate_max_forests, max_forest,
                     max_forest_bruteforce)

__all__ = [
    "ENUMERATION_BUDGET",
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


def _check_part_size(n: int) -> None:
    # the random sweeps need 2 <= n: at n = 1 the threshold exceeds n
    if not 2 <= n <= SOLVER_PART_CAP:
        raise ParameterError(
            f"need 2 <= n <= {SOLVER_PART_CAP}, the solver's part cap, got {n}")


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


def _check_sizes(values: tuple, what: str) -> None:
    # a sweep's size list must be non-empty and name each size once: a
    # repeated size would run and count its instances twice
    if not values:
        raise ParameterError(f"need at least one {what}")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ParameterError(f"{what} {v} given twice")


def _finish(theorem_id: str, params: dict, checked: int,
            counterexamples: list[dict], t0: float) -> VerificationReport:
    return VerificationReport(theorem_id, params, checked, counterexamples,
                              (time.perf_counter() - t0) * 1000.0)


def merge_reports(reports: Sequence[VerificationReport]) -> VerificationReport:
    """Associatively merge reports of one theorem: counts add up and
    counterexamples concatenate in input order."""
    if not reports:
        raise ParameterError("nothing to merge")
    tid = reports[0].theorem_id
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

# the degree-sum inequalities check_bounds sweeps, in report order: the
# bound's name, the edge count n + plus it must reach, the last k of its range
# 2 .. last(n), twice the bound as an integer polynomial (bound_g, bound_h
# and bound_t8 scaled by 2), and the word a counterexample's detail puts
# before the size. t8 is an integer at odd n and claimed at odd n only
_INEQUALITIES = (
    ("g", 2, lambda n: (n + 2) // 2, lambda n, k: k * (n + 6 - 2 * k),
     "has ceiling below"),
    ("h", 1, lambda n: (n - 1) // 2, lambda n, k: k * (n + 4 - 2 * k),
     "has ceiling below"),
    ("t8", 2, lambda n: (n + 1) // 2 if n % 2 else 1,
     lambda n, k: k * (n + 7 - 2 * k) - 2, "below"),
)


def check_bounds(n_max: int) -> VerificationReport:
    """Sweep the degree-sum inequalities of ``_INEQUALITIES`` over every
    integer k in their ranges for every n up to ``n_max``.

    Comparisons are exact (integer-scaled rationals, no floating point). A
    counterexample is recorded when the integer consequence fails, i.e. the
    ceiling of the bound drops below the required edge count. Exact values
    below the threshold whose ceiling still meets it are reported in params
    as fractional near-misses. The second bound is claimed for k >= 3: its
    k = 2 evaluations are checked too, but those below the threshold are
    tallied in params rather than recorded.
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
        for name, plus, last, twice, below in _INEQUALITIES:
            need = n + plus
            for k in range(2, last(n) + 1):
                checked += 1
                v2 = twice(n, k)
                if v2 >= 2 * need:
                    continue
                value = Fraction(v2, 2)
                if name == "h" and k == 2:
                    h_k2_count += 1
                    if len(h_k2_sample) < 5:
                        h_k2_sample.append([n, k, str(value)])
                elif v2 <= 2 * need - 2:
                    counterexamples.append(_cex(None, None,
                        f"{name}(n={n}, k={k}) = {value} {below} {need}"))
                else:
                    near_misses.append([name, n, k, str(value)])
    params = {
        "n_max": n_max,
        "fractional_near_misses": near_misses,
        "h_k2_below_threshold": {"count": h_k2_count, "sample": h_k2_sample},
    }
    return _finish("BOUNDS", params, checked, counterexamples, t0)


# ---------------------------------------------------------------------------
# T1: high minimum degree forces forest number n + 1
# ---------------------------------------------------------------------------

def _qualifying_graphs(n: int, delta: int) -> Iterator[BalancedBipartiteGraph]:
    # every labeled adjacency matrix with minimum degree >= delta, in the
    # order of a scan of all 2^(n*n): rows of degree >= delta in every
    # combination, kept when their columns reach delta too
    row_options = [r for r in range(1 << n) if r.bit_count() >= delta]
    for rows in itertools.product(row_options, repeat=n):
        g = from_rows(n, rows)
        if min_degree(g) >= delta:
            yield g


def verify_t1_exhaustive(n: int) -> VerificationReport:
    """Check every labeled instance with minimum degree >= n/2 + 1 for
    forest number exactly n + 1, using the subset-scan oracle.

    n in 2..5; the scan walks only rows of degree >= n/2 + 1, so n = 5
    checks its 1 546 qualifying graphs in under a second.
    """
    if not 2 <= n <= 5:
        raise ParameterError(f"exhaustive sweep covers n in 2..5, got {n}")
    t0 = time.perf_counter()
    delta = _threshold(n)
    checked = 0
    counterexamples: list[dict] = []
    for g in _qualifying_graphs(n, delta):
        checked += 1
        counterexamples.extend(_recheck(g, max_forest_bruteforce(g), n + 1))
    params = {"n": n, "min_degree_threshold": delta,
              "matrices_scanned": 2 ** (n * n)}
    return _finish("T1", params, checked, counterexamples, t0)


# ---------------------------------------------------------------------------
# seeded sweeps (T1, T2 / T4 / C1, T8)
# ---------------------------------------------------------------------------

# structure claim -> (the smaller-part sizes an optimal witness may have at
# part size n, None for any; the detail for a witness outside them)
_STRUCTURE = {
    "T2": (lambda n: {1, 2, n // 2} if n % 2 == 0 else {1, 2},
           "witness with smaller part {lam} outside {allowed}"),
    "T4": (lambda n: None if n % 2 == 0 else set(range(n + 1)) - {2},
           "smaller part {lam} witness on odd n={n}"),
    "C1": (lambda n: {1}, "witness with smaller part {lam} != 1 on odd n={n}"),
}


def _seeded_instance(args: tuple[str, int, int]) -> tuple[list[dict], int]:
    # one seeded instance of a claim: its counterexamples and the number of
    # maximum forests listed. The generator guarantees the claim's hypothesis
    # (a miss raises PostconditionError), so only the conclusion is checked:
    # f = n + 1 and, for a structure claim, every maximum forest's split. The
    # generators and solver are named at call time, so a replaced module
    # attribute takes effect.
    tid, n, seed = args
    where = f" (seed {seed})"
    g = (random_th7(n, seed) if tid == "T8"
         else random_min_degree(n, _threshold(n), seed))
    res = max_forest(g)
    issues = _recheck(g, res, n + 1, where)
    structure = _STRUCTURE.get(tid)
    if structure is None or res.forest_number != n + 1:
        return issues, 0
    allowed_at, detail = structure
    allowed = allowed_at(n)
    count = 0
    for w in enumerate_max_forests(g):
        count += 1
        lam = w.min_part_size()
        if allowed is not None and lam not in allowed:
            issues.append(_cex(g, w, detail.format(
                lam=lam, allowed=sorted(allowed), n=n) + where))
    return issues, count


def _sweep(tid: str, sizes: Sequence[int], samples: int, seed: int,
           jobs: int) -> tuple[list[dict], int]:
    # sample i of each part size runs with seed + i; returns the joined
    # counterexamples and the number of maximum forests listed
    if samples < 1:
        raise ParameterError(f"need samples >= 1, got {samples}")
    if jobs < 1:
        raise ParameterError(f"need jobs >= 1, got {jobs}")
    args = [(tid, n, seed + i) for n in sizes for i in range(samples)]
    counterexamples: list[dict] = []
    witnesses = 0
    for issues, count in _run_instances(_seeded_instance, args, jobs):
        counterexamples.extend(issues)
        witnesses += count
    return counterexamples, witnesses


def verify_t1_random(n: int, samples: int = 100, seed: int = 1,
                     jobs: int = 1) -> VerificationReport:
    """Seeded random sweep of the minimum-degree claim at part size n."""
    _check_part_size(n)
    t0 = time.perf_counter()
    counterexamples, _ = _sweep("T1", (n,), samples, seed, jobs)
    params = {"n": n, "samples": samples, "seed": seed,
              "min_degree_threshold": _threshold(n)}
    return _finish("T1", params, samples, counterexamples, t0)


def verify_structure(n: int, samples: int = 25, seed: int = 1,
                     check: str = "T2", jobs: int = 1) -> VerificationReport:
    """Enumerate all optimal witnesses over seeded qualifying instances and
    test their smaller-part sizes.

    check selects the claim: "T2" (sizes limited to {1, 2, n/2}), "T4"
    (size 2 never occurs when n is odd), "C1" (odd n: size 1 exclusively;
    requires odd n). ``random_min_degree`` guarantees the degree hypothesis,
    so the sweep checks only the conclusions: f = n + 1, then the split of
    every maximum forest. C1's converse needs no check: a one-sided
    selection of n + 1 vertices induces a star, maximum once f = n + 1.
    """
    if check not in _STRUCTURE:
        raise ParameterError(
            f"check must be one of {', '.join(_STRUCTURE)}, got {check!r}")
    _check_part_size(n)
    if check == "C1" and n % 2 == 0:
        raise ParameterError("C1 concerns odd n only")
    t0 = time.perf_counter()
    counterexamples, witnesses = _sweep(check, (n,), samples, seed, jobs)
    params = {"n": n, "samples": samples, "seed": seed, "check": check,
              "min_degree_threshold": _threshold(n),
              "witnesses_enumerated": witnesses}
    # no smaller-part size is ruled out at this n
    if _STRUCTURE[check][0](n) is None:
        params["note"] = "vacuous for even n"
    return _finish(check, params, samples, counterexamples, t0)


def verify_t8(n_values: Iterable[int] | None = None, samples: int = 25,
              seed: int = 1, jobs: int = 1) -> VerificationReport:
    """Seeded sweep of the relaxed-threshold claim: minimum degree
    (n+1)/2 with at most one floor-degree vertex per part still forces
    forest number n + 1 (odd n in 3..63, up to the solver's part cap)."""
    values = tuple(n_values) if n_values is not None else (5, 7, 9)
    for n in values:
        if n % 2 == 0 or not 3 <= n < SOLVER_PART_CAP:
            raise ParameterError(
                f"need odd n in 3..{SOLVER_PART_CAP - 1}, got {n}")
    _check_sizes(values, "n")
    t0 = time.perf_counter()
    counterexamples, _ = _sweep("T8", values, samples, seed, jobs)
    params = {"n_values": list(values), "samples": samples, "seed": seed}
    return _finish("T8", params, len(values) * samples, counterexamples, t0)


# ---------------------------------------------------------------------------
# structure of the optimal witnesses of one instance
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


# profile_structure lists the maximum forests only when their candidate
# count C(2n, f) stays within this bound
ENUMERATION_BUDGET = 10 ** 8


def profile_structure(g: BalancedBipartiteGraph,
                      budget: int = ENUMERATION_BUDGET) -> StructureProfile:
    """Fold every maximum forest into its smaller-part size.

    Keeps the lexicographically first witness per observed value. One walk
    lists the forests (``enumerate_max_forests``): its first is the solver
    witness, whose size is f. When C(2n, f) exceeds ``budget``, the profile
    stops there, with that witness alone, and is marked non-exhaustive. The
    count bounds the number of maximum forests: a disjoint union of n/2
    copies of K2,2 has 4^(n/2), over a million at n = 20.
    """
    if budget < 0:
        raise ParameterError(f"need budget >= 0, got {budget}")
    walk = enumerate_max_forests(g)
    first = next(walk, None)
    if first is None:
        raise PostconditionError("the walk found no maximum forest")
    f = first.size
    exhaustive = math.comb(2 * g.n, f) <= budget
    per = {first.min_part_size(): first}
    if exhaustive:
        for w in walk:
            per.setdefault(w.min_part_size(), w)
    return StructureProfile(f, frozenset(per), dict(sorted(per.items())),
                            exhaustive)


# ---------------------------------------------------------------------------
# explicit constructions (P1, T6*, T7*)
# ---------------------------------------------------------------------------

# claim id -> (default sizes, builder of (graph, its parameters, its claimed
# forest number)); sizes are part sizes n, or (n, k) pairs for T7. The
# builders name the family functions at call time, so a replaced module
# attribute takes effect.
_CONSTRUCTIONS = {
    "P1": (tuple(range(2, 11)),
           lambda n: (prop1_construction(n), f"n={n}", n + 2)),
    "T6λ1": (tuple(range(2, 9)),
             lambda n: (complete_balanced(n), f"n={n}", n + 1)),
    "T6λ2": ((4, 6, 8, 10),
             lambda n: (thm3_lambda2(n)[0], f"n={n}", n + 1)),
    "T6λhalf": ((4, 6, 8, 10),
                lambda n: (thm3_lambda_half(n)[0], f"n={n}", n + 1)),
    "T7l1": (((3, 2), (5, 2), (5, 3), (7, 3)),
             lambda nk: (thh1_l1(*nk), "n={}, k={}".format(*nk), nk[0] + 2)),
    "T7l2": (((6, 2), (6, 3), (8, 3)),
             lambda nk: (thh1_l2(*nk), "n={}, k={}".format(*nk), nk[0] + 3)),
}


def verify_constructions(theorem_id: str,
                         ns: Iterable[int] | None = None,
                         pairs: Iterable[tuple[int, int]] | None = None
                         ) -> VerificationReport:
    """Build each construction instance and confirm its forest number with
    the exact solver.

    The family's generator guarantees the degrees and the witness it
    promises, raising ``PostconditionError`` when it misses one, so only
    the conclusion is checked here: the solver witness, then the forest
    number. T6λ1's one-sided witness needs no check: one part plus one
    vertex of the other induces a star, maximum once f = n + 1. P1 and the
    T6 cases take part sizes ``ns``; the T7 cases take (n, k) ``pairs``;
    the argument a case does not take must stay None. Defaults cover the
    documented desk-scale ranges.
    """
    if theorem_id not in _CONSTRUCTIONS:
        raise ParameterError(
            f"theorem_id must name a construction family, got {theorem_id!r}")
    t0 = time.perf_counter()
    defaults, make_case = _CONSTRUCTIONS[theorem_id]
    by_pairs = theorem_id.startswith("T7")
    given, unread = (pairs, ns) if by_pairs else (ns, pairs)
    if unread is not None:
        raise ParameterError(f"{theorem_id} does not read "
                             f"{'ns' if by_pairs else 'pairs'}")
    values = tuple(given) if given is not None else defaults
    _check_sizes(values, "pair" if by_pairs else "n")
    counterexamples: list[dict] = []
    for size in values:
        g, where, forest_number = make_case(size)
        counterexamples.extend(
            _recheck(g, max_forest(g), forest_number, f" ({where})"))
    params = ({"pairs": [list(p) for p in values]} if by_pairs
              else {"n_values": list(values)})
    return _finish(theorem_id, params, len(values), counterexamples, t0)
