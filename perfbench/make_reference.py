"""Regenerate perfbench/reference/atlas_edges.csv, the atlas workload's reference.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The atlas workload runs ``deltachain atlas --gamma-steps 401`` with gamma
endpoints -(6 + eps) and 6 + eps, |eps| <= ATLAS_JITTER.  The reference
holds every edge row at eps = -J, 0 and +J (J = ATLAS_JITTER); the check
interpolates quadratically in eps.  Before writing, the script confirms that
every query has the same edge kinds at all STRUCTURE_PROBES values of eps,
and the same edges clipped at the beta window, so that any seed gives the
same rows and the same work.  The committed file
was made at the commit that introduced the benchmark; regenerating it on
later code defeats its purpose.
"""

import os
import sys
import tempfile

from workloads import ATLAS_BETA_MAX, ATLAS_BETA_MIN, ATLAS_JITTER, ATLAS_REFERENCE, ATLAS_STEPS, atlas_queries, cli_invocations

STRUCTURE_PROBES = 9


def atlas_edges(eps: float, work: str) -> dict:
    from deltachain import cli

    argv = cli_invocations("atlas", {"eps": eps}, work)[0]
    if cli.main(argv) != 0:
        raise SystemExit(f"atlas failed at eps = {eps!r}")
    queries, stray, _ = atlas_queries(argv[argv.index("--out") + 1], eps)
    if stray:
        raise SystemExit(f"{stray} rows with an unexpected gamma at eps = {eps!r}")
    return queries


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(os.path.dirname(ATLAS_REFERENCE), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=here) as work:
        half = (STRUCTURE_PROBES - 1) // 2
        probes = {ATLAS_JITTER * k / half: atlas_edges(ATLAS_JITTER * k / half, work) for k in range(-half, half + 1)}
    shapes = {
        eps: {key: [(kind, beta in (ATLAS_BETA_MIN, ATLAS_BETA_MAX)) for kind, beta in rows]
              for key, rows in queries.items()}
        for eps, queries in probes.items()
    }
    first = next(iter(shapes.values()))
    for eps, shape in shapes.items():
        if shape != first:
            diff = sorted(k for k in set(shape) | set(first) if shape.get(k) != first.get(k))
            raise SystemExit(f"edge structure at eps = {eps!r} differs in queries {diff[:5]}")
    lo, mid, hi = (probes[e] for e in (-ATLAS_JITTER, 0.0, ATLAS_JITTER))
    lines = [
        f"# atlas --gamma-steps {ATLAS_STEPS} edges at eps = -{ATLAS_JITTER}, 0, +{ATLAS_JITTER}; "
        "beta is the unsigned edge position",
        "gamma_index,cell,regime,edge_kind,beta_at_minus_j,beta_at_0,beta_at_plus_j",
    ]
    for key in sorted(mid):
        index, cell, regime = key
        for (kind, b0), (_, bm), (_, bp) in zip(mid[key], lo[key], hi[key]):
            lines.append(f"{index},{cell},{regime},{kind},{bm!r},{b0!r},{bp!r}")
    with open(ATLAS_REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 2} edge rows to {ATLAS_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
