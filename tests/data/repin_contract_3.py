"""Re-derive the annulus golden file for sampling contract 3 and check it
against the contract-2 file it replaces.

Run from the repository root (needs git for the contract-2 golden file):

    PYTHONPATH=src python tests/data/repin_contract_3.py [--write]

The golden file is ``full_check`` of ``annulus:inner=1,outer=2`` at 20,000
samples, seed 7.  Contract 3 kept the draws and the means and changed how a
block's cross products are summed, so every record must keep its keys, kind,
method and verdict, every number must be bit-identical to the contract-2
record or within 1e-12 of it relative, and only ``sampling_contract`` may
change.  The report must stay "violated" after exactly 4 Monte Carlo
passes (``run_chunked`` calls: the primary and 3 shared rechecks).  ``--write`` rewrites the file.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from sineq import integrate, verify
from sineq.bodies import annulus_body
from sineq.integrate import SAMPLING_CONTRACT, Engine

GOLDEN = Path(__file__).parent / "annulus_full_check_mc20000_seed7.jsonl"
CONTRACT_2_COMMIT = "0035a95"  # the last commit that reduced under contract 2


def annulus_golden() -> list[str]:
    old = [json.loads(line) for line in subprocess.run(
        ["git", "show", f"{CONTRACT_2_COMMIT}:tests/data/{GOLDEN.name}"],
        capture_output=True, text=True, check=True).stdout.splitlines()]
    passes = []
    original = integrate.run_chunked

    def counted(*args, **kwargs):
        passes.append(args)
        return original(*args, **kwargs)

    integrate.run_chunked = counted
    try:
        rep = verify.full_check(annulus_body(1.0, 2.0), Engine(method="mc", samples=20_000, seed=7),
                                experimental=True)
    finally:
        integrate.run_chunked = original
    new = rep.to_records()
    assert rep.verdict == "violated" and len(passes) == 4, (rep.verdict, len(passes))
    assert len(new) == len(old) == 7
    for o, n in zip(old, new):
        assert n.keys() == o.keys(), n.keys() ^ o.keys()
        assert (o["sampling_contract"], n["sampling_contract"]) == (2, SAMPLING_CONTRACT)
        for key in o.keys() - {"sampling_contract"}:
            if isinstance(o[key], float):
                assert math.isclose(n[key], o[key], rel_tol=1e-12, abs_tol=0.0), (key, o, n)
            else:
                assert n[key] == o[key], (key, o[key], n[key])
        moved = sorted(k for k in o.keys() - {"sampling_contract"} if n[k] != o[k])
        print(f"{n['kind']:16} t={n['t']!s:5} {n['verdict']:9} moved: {', '.join(moved) or '-'}")
    return [json.dumps(r, sort_keys=True) for r in new]


def main(argv: list[str]) -> None:
    lines = annulus_golden()
    if "--write" in argv:
        GOLDEN.write_text("".join(line + "\n" for line in lines))
        print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
