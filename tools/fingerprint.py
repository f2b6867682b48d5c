"""Print a fingerprint of `penalty.run` on 68 systems, to check that a change
leaves the solver's results as they are, bit for bit.

    python3 tools/fingerprint.py [ROOT]

ROOT is a checkout of the repository and defaults to this one; the
systems are run with its src/semrelay and drawn with its tests/oracles.py.
They are the 20 standard cases of tests/test_penalty.py (the default
system at W = 1e5, 1e6 and 1e7 and at H = 0, and 16 draws of rng seed 7),
then 32 draws of rng seed 11 and 16 of seed 3, as in its TestRandomSystems,
each run with the default PenaltyConfig. Prints one line per system: its
name, status, outer and inner iterations, max_iter_blocks, and a hash of
zeta, the best point and both traces, each float as float.hex. A last line
gives the hash of all lines before it. Two checkouts agree on these runs
when they print the same.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path


def systems() -> dict:
    """The 68 systems by name, each as (p, fit)."""
    import numpy as np
    from oracles import random_fit, random_params
    from semrelay.model import SigmoidFit, SystemParams

    cases = {f"W=1e{k}": (SystemParams(W=10.0 ** k), SigmoidFit()) for k in (5, 6, 7)}
    cases["H=0"] = (SystemParams(H=0.0), SigmoidFit())
    for seed, draws in ((7, 16), (11, 32), (3, 16)):
        rng = np.random.default_rng(seed)
        for i in range(draws):
            cases[f"rng{seed}-{i}"] = (random_params(rng), random_fit(rng))
    return cases


def _hex(x) -> str:
    """x as text, every float in it, however nested, as float.hex."""
    if x is None:
        return "None"
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        x = dataclasses.astuple(x)
    return "(" + ",".join(map(_hex, x)) + ")"


def fingerprint(name: str, report) -> str:
    """The line of one system: its name, the counts of its `SolveReport`
    and a hash of its floats."""
    floats = _hex((report.zeta, report.best, report.objective_trace, report.zeta_trace))
    digest = hashlib.sha256(floats.encode()).hexdigest()[:16]
    return (f"{name} {report.status} {report.outer_iters} {report.inner_iters} "
            f"{report.max_iter_blocks} {digest}")


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    if not (root / "src" / "semrelay").is_dir():
        print(f"error: no src/semrelay in {root}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from semrelay.penalty import PenaltyConfig, run

    total = hashlib.sha256()
    for name, (p, fit) in systems().items():
        line = fingerprint(name, run(p, fit, PenaltyConfig()))
        total.update(line.encode() + b"\n")
        print(line, flush=True)
    print(f"total {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
