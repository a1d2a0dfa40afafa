"""Print the input properties of each workload's first pass as JSON.

    python3 perfbench/describe.py --seed N

These are the properties the program's cost depends on: input size, the
share of ring-isomorphic pairs, the share of pairs whose graded ranks
differ (the oracle's early exit), how often each descriptor recurs, and
the largest l and k1+k2.  ``perfbench/workloads.json`` records them for
the default seed.
"""

import argparse
import json

import checkout


def descriptors_of(item):
    if isinstance(item, tuple):
        return [d for d in item if not isinstance(d, str)]
    return [item]


def properties(workload) -> dict:
    from torusclass.classify import cohomology_isomorphic
    from torusclass.invariants import cohomology
    from torusclass.quotient import graded_ranks

    uses = {}
    for item in workload.items:
        for d in descriptors_of(item):
            uses[d] = uses.get(d, 0) + 1
    out = {
        "items": len(workload.items),
        "descriptors": len(uses),
        "uses_per_descriptor": sum(uses.values()) / len(uses),
        "max_l": max(d.ell for d in uses),
        "max_k1_plus_k2": max(d.k1 + d.k2 for d in uses),
    }
    pairs = [item[-2:] for item in workload.items if len(descriptors_of(item)) == 2]
    if pairs:
        ranks = {d: graded_ranks(cohomology(d)) for d in uses}
        out["pairs"] = len(pairs)
        out["ring_isomorphic_share"] = sum(cohomology_isomorphic(a, b) for a, b in pairs) / len(pairs)
        out["graded_ranks_differ_share"] = sum(ranks[a] != ranks[b] for a, b in pairs) / len(pairs)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    checkout.use_checkout_source()
    import workloads

    print(json.dumps({name: properties(cls(args.seed, 0))
                      for name, cls in workloads.WORKLOADS.items()}, indent=2))


if __name__ == "__main__":
    main()
