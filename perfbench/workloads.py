"""Instance pools for the three benchmark workloads.

The two solve workloads run a fixed corpus of graphs, and the workload seed
only shuffles the order they run in. A solve's cost is heavy-tailed: the
same graph under another vertex labeling can take ten times as long, and
one G(n, n, p) draw differs from the next by more. Measured over 5 seeds,
drawing fresh graphs or fresh labelings per seed moved the pool's total
solve time by 20-35 % from seed to seed, more than any bound a
regression gate could use, and a pool large enough to average that away
does not fit in a run. With a fixed corpus, seed-to-seed spread is the
machine's alone, and the reference answers hold at every seed.

The sweep workload's cost barely depends on the instance (it scans all
C(2n, f) subsets), so there the seed does pick the instances: a block of
consecutive verify seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("solve-sparse", "solve-dense", "sweep-structure")


@dataclass(frozen=True)
class PoolSpec:
    """Sizes of one workload's pools.

    ``sparse`` maps (n, p) to the number of base graphs of that cell,
    ``dense`` maps n to the number of base graphs; the sweep runs
    ``sweep_samples`` verify calls at part size ``sweep_n``.
    """

    name: str
    sparse: dict
    dense: dict
    sweep_n: int
    sweep_samples: int


# On a 2-vCPU x86 VM a solve pass takes 7-9 s, so a 40 s run times every
# instance about five times, and the median of several runs spread over the
# run filters out a slow spell of the machine.
# The sparse corpus leans on n = 18, with one graph per p at n = 20 and
# n = 22: their costs are heavy-tailed (one n = 20 graph takes 2 s), and a
# pass made of them would leave too few runs per instance. The sweep uses
# n = 9 (a 70 ms sample, about 15 runs each): at n = 10 a sample takes
# 290 ms and its throughput moved 18 % from run to run.
FULL = PoolSpec(
    name="full",
    sparse={(n, p): count
            for p in (0.15, 0.2, 0.3)
            for n, count in ((18, 12), (20, 1), (22, 1))},
    dense={32: 40, 48: 30, 64: 20},
    sweep_n=9,
    sweep_samples=40,
)

# A pool that runs in well under a second, for the benchmark's own tests.
SMOKE = PoolSpec(
    name="smoke",
    sparse={(6, 0.3): 2, (7, 0.3): 1},
    dense={6: 2, 8: 1},
    sweep_n=4,
    sweep_samples=2,
)


@dataclass(frozen=True)
class Instance:
    """One CLI call: its argv, its stdin text and what is known about it.

    ``base`` indexes the reference answers (the base graph for the solve
    workloads, the sample position for the sweep); ``expect_f`` is a
    forest number a claim of the paper fixes, or None.
    """

    iid: str
    argv: tuple
    stdin: str
    n: int
    base: int
    expect_f: int | None = None
    verify_seed: int | None = None


SOLVE_ARGV = ("solve", "--format", "json", "--no-timing")


def random_bipartite_rows(n: int, p: float, seed: int) -> list[int]:
    """G(n, n, p) adjacency rows; the construction of the test suite's
    ``random_bipartite`` helper."""
    rng = random.Random(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < p:
                rows[i] |= 1 << j
    return rows


def sparse_bases(spec: PoolSpec) -> list[tuple[int, float, int]]:
    """(n, p, construction seed) of every sparse base graph, in base order."""
    return [(n, p, n * 10_000 + round(p * 100) * 100 + i)
            for (n, p), count in sorted(spec.sparse.items())
            for i in range(count)]


def dense_bases(spec: PoolSpec) -> list[tuple[int, int]]:
    """(n, construction seed) of every dense base graph, in base order."""
    return [(n, n * 1_000 + i)
            for n, count in sorted(spec.dense.items())
            for i in range(count)]


def build_pool(workload: str, seed: int, bb,
               spec: PoolSpec = FULL) -> list[Instance]:
    """Generate one workload's instances from ``seed``.

    ``bb`` carries the imported ``core`` and ``generators`` modules; they are
    looked up at call time, so a tracer's hooks on them see set-up too. The
    solve corpus comes out in an order shuffled by the seed, so any prefix
    of the pool is a fair sample of it.
    """
    out: list[Instance] = []
    if workload == "sweep-structure":
        first = 1 + seed * spec.sweep_samples
        for k in range(spec.sweep_samples):
            s = first + k
            argv = ("verify", "--theorem", "T2", "--n", str(spec.sweep_n),
                    "--samples", "1", "--seed", str(s), "--jobs", "1",
                    "--no-timing")
            out.append(Instance(f"sweep-{s}", argv, "", spec.sweep_n, k,
                                verify_seed=s))
        return out
    if workload == "solve-sparse":
        made = [(n, random_bipartite_rows(n, p, s))
                for n, p, s in sparse_bases(spec)]
    elif workload == "solve-dense":
        made = [(n, list(bb.generators.random_min_degree(n, (n + 3) // 2, s).adj1))
                for n, s in dense_bases(spec)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for b, (n, rows) in enumerate(made):
        text = bb.core.emit_bbg(bb.core.from_rows(n, rows))
        # T1: minimum degree >= n/2 + 1 forces f = n + 1
        expect = n + 1 if workload == "solve-dense" else None
        out.append(Instance(f"{workload}-{b}", SOLVE_ARGV, text, n, b, expect))
    random.Random(seed).shuffle(out)
    return out
