"""Regenerate ``reference.json``, the reference answers of the full pools.

    python3 perfbench/make_reference.py

Solves every instance through the CLI and accepts an answer only when the
independent checker passes it, including the forest number a claim of the
paper fixes. Stores the forest number and witness (the lexicographically
smallest maximum forest, so unique; as hex bitmasks) of each base graph of
the solve corpora, and [verdict, witnesses_enumerated] of each sweep sample
at each workload seed in SWEEP_SEEDS. Run it only on a commit whose answers
are trusted; the benchmark then holds every later commit to them.
"""

from __future__ import annotations

import json
import sys

import check
import run
import workloads

SWEEP_SEEDS = range(20)


def answers(workload: str, seed: int, bb) -> list:
    pool = sorted(workloads.build_pool(workload, seed, bb), key=lambda i: i.base)
    out = []
    for inst in pool:
        code, text, err, _ = run.run_cli(bb.cli, inst.argv, inst.stdin)
        problems = run.check_output(workload, seed, inst, code, text,
                                    check.Reference({}))
        if problems:
            raise SystemExit(f"{inst.iid}: {problems} {err}")
        res = json.loads(text)
        if workload == "sweep-structure":
            out.append([res["verdict"], res["params"]["witnesses_enumerated"]])
        else:
            w = res["witness"]
            out.append([res["forest_number"],
                        [format(sum(1 << i for i in w[k]), "x") for k in ("v1", "v2")]])
    return out


def main() -> int:
    bb = run.import_package()
    data = {workload: answers(workload, 0, bb)
            for workload in ("solve-sparse", "solve-dense")}
    data["sweep-structure"] = {str(seed): answers("sweep-structure", seed, bb)
                               for seed in SWEEP_SEEDS}
    with open(check.Reference.PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
