#!/usr/bin/env python3
"""Compare the two scale-up strategies from a common base network.

For a base (l, m, N) this prints, side by side, the torus-expansion
sequence (constant degree, no rewiring of existing nodes) and the
hypercube-expansion sequence (degree +1 per doubling, every existing
node gains a link), with the cost metrics at each step.
"""

import argparse

from tehnet import (
    ScalingMode,
    TehnetError,
    metrics_report,
    scaling_sequence,
    teh_spec,
)


def parse_dims(text: str) -> tuple[int, int, int]:
    rows, cols, cube = (int(part) for part in text.split(","))
    return rows, cols, cube


def report(mode: ScalingMode, base, specs) -> None:
    print(f"mode: {mode.value} expansion")
    print(f"  base {base.label()}: nodes={base.node_count} "
          f"degree={base.nominal_degree}")
    rewire = ("rewires existing nodes" if mode is ScalingMode.EXPAND_HYPERCUBE
              else "existing nodes untouched")
    for number, spec in enumerate(specs, start=1):
        m = metrics_report(spec)
        print(
            f"  step {number}: {spec.label()} nodes={m.node_count} "
            f"degree={spec.nominal_degree} links={m.links} diameter={m.diameter} "
            f"cost={m.cost} ({rewire})"
        )
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", default="4,4,8", type=parse_dims,
                        help="base dimensions l,m,N")
    parser.add_argument("--steps", default=3, type=int)
    args = parser.parse_args()
    # Both sequences are made before any output, so bad input ends in one
    # usage error, not in a traceback after part of the report.
    try:
        base = teh_spec(*args.base)
        sequences = {
            mode: scaling_sequence(mode, base, args.steps) for mode in ScalingMode
        }
    except TehnetError as err:
        parser.error(str(err))
    for mode, specs in sequences.items():
        report(mode, base, specs)


if __name__ == "__main__":
    main()
