"""Reproduce the lattice false UNSAT that the benchmark's workloads leave out.

    python3 perfbench/known_defects.py [--seed N] [--count K]

Runs the ROADMAP case ([2 C1, 35 C1], square 0, B1.x = 1, bound 40) and K
seeded planted searches over the matching span whose dot constraints may
involve pi, each checked by the brute-force oracle in oracles.py.  Prints
every search with its verdict and exits 1 while any of them fails, 0 once
none does.  It is not part of the benchmark command: a benchmark workload
runs only operations the program gets right, and this script keeps the
ones it gets wrong in view.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
from worker import LatticeCertify  # noqa: E402

ROADMAP_CASE = dict(span="c1pair", c1_multiples=(2, 35), square=0,
                    dots=[("B1", 1)], bound=40)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=12)
    args = ap.parse_args(argv)

    lattice = LatticeCertify()
    lattice.setup(args.seed, None)
    rng = inputs.pass_rng(args.seed, "known-defects", 1)
    ones = args.count // 2
    searches = [("roadmap", "[2 C1, 35 C1], square 0, B1.x = 1, bound 40",
                 ROADMAP_CASE)]
    searches += [("planted", f"planted pi 1-dot #{k}", spec) for k, spec in
                 enumerate(inputs.planted_searches(rng, ones, 1, ("pi",)))]
    searches += [("planted", f"planted 2-dot #{k}", spec) for k, spec in
                 enumerate(inputs.planted_searches(rng, args.count - ones, 2,
                                                   inputs.MATCHING_NAMES))]
    failed = 0
    for kind, name, spec in searches:
        run = lattice.search(kind, name, spec)[3]
        try:
            ok, _, note = oracles.lattice(spec, run())
        except Exception as exc:  # a raised error is a failed search too
            ok, note = False, f"{type(exc).__name__}: {exc}"
        failed += not ok
        print(f"{'ok    ' if ok else 'FAILED'} {name}  dots={spec['dots']}  "
              f"bound={spec['bound']}: {note}")
    print(f"{failed} of {len(searches)} searches failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
