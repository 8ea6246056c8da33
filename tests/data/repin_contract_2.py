"""Re-derive the test fixtures that depend on Monte Carlo bits, for
sampling contract 2, and check each against what it stands for.

Run from the repository root (needs git for the contract-1 golden file):

    PYTHONPATH=src python tests/data/repin_contract_2.py [--write]

* The annulus golden file: ``full_check`` of ``annulus:inner=1,outer=2``
  at 20,000 samples, seed 7.  Every record must keep its verdict, the
  report must stay "violated" after exactly 4 estimation passes (the
  primary and 3 shared rechecks), and every margin, and every curve
  value, must lie within a two-sample 4-sigma bound of the contract-1
  record.  ``--write`` rewrites the file.
* The moment-ratio excursion (``test_moments`` and ``test_cli``): the
  coordinate norm, n = 1, p = 2, q = 1, 2,000 samples.  The first seed
  whose ratio lies 3.1 to 3.3 sigma above C(2, 1), the band of the
  contract-1 fixture (3.21 sigma at seed 1242), and whose rechecks do not
  reproduce it.
* The curve tolerance of ``test_cli``: ``verify --body polydisc:r=1,1
  --engine mc --samples 20000 --grid 1,3``.  The first seed from 1 whose
  t = 3 tolerance lies within 5e-5 of the pinned 0.0184.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from sineq import verify
from sineq.bodies import annulus_body, polydisc
from sineq.integrate import DET_TOL, SAMPLING_CONTRACT, Engine, tolerance
from sineq.moments import coordinate_norm, moment_ratio

GOLDEN = Path(__file__).parent / "annulus_full_check_mc20000_seed7.jsonl"
CONTRACT_1_COMMIT = "9f24e35"  # the last commit that drew under contract 1


def _se(rec: dict) -> float:
    """The margin's standard error, read back from the applied tolerance."""
    return 0.0 if rec["tolerance"] == DET_TOL else rec["tolerance"] / 3.0


def _within_4_sigma(old: float, new: float, se_old: float, se_new: float) -> bool:
    return abs(new - old) <= 4.0 * math.hypot(se_old, se_new)


def annulus_golden() -> list[str]:
    old = [json.loads(line) for line in subprocess.run(
        ["git", "show", f"{CONTRACT_1_COMMIT}:tests/data/{GOLDEN.name}"],
        capture_output=True, text=True, check=True).stdout.splitlines()]
    passes = []
    original = verify.body_statistics

    def counted(*args, **kwargs):
        passes.append(args)
        return original(*args, **kwargs)

    verify.body_statistics = counted
    try:
        rep = verify.full_check(annulus_body(1.0, 2.0), Engine(method="mc", samples=20_000, seed=7),
                                experimental=True)
    finally:
        verify.body_statistics = original
    new = rep.to_records()
    assert rep.verdict == "violated" and len(passes) == 4, (rep.verdict, len(passes))
    assert len(new) == len(old) == 7
    for o, n in zip(old, new):
        assert n.keys() - o.keys() == {"sampling_contract"}, n.keys() ^ o.keys()
        assert n["sampling_contract"] == SAMPLING_CONTRACT
        for key in ("kind", "body", "t", "seed", "samples", "method", "verdict"):
            assert n[key] == o[key], (key, o[key], n[key])
        assert _within_4_sigma(o["margin"], n["margin"], _se(o), _se(n)), (o, n)
        if n["kind"] == "dilation":
            assert _within_4_sigma(o["value"], n["value"], o["std_error"], n["std_error"]), (o, n)
        print(f"{n['kind']:16} t={n['t']!s:5} margin {o['margin']:+.5f} -> {n['margin']:+.5f}"
              f"  value {o['value']:.5f} -> {n['value']:.5f}  {n['verdict']}")
    return [json.dumps(r, sort_keys=True) for r in new]


def moment_excursion_seed() -> int:
    for seed in range(100_000):
        pair = moment_ratio(coordinate_norm(0), 2.0, 1.0, 1,
                            Engine(method="mc", samples=2000, seed=seed))
        sigmas = (pair.bound - pair.ratio) / pair.ratio_se
        if (-3.3 <= sigmas <= -3.1 and pair.verdict == "holds"
                and pair.verdict_note == "initial 3-sigma excursion not reproduced"):
            print(f"moment excursion: seed {seed}, {sigmas:.4f} sigma")
            return seed
    raise AssertionError("no seed in range")


def curve_tolerance_seed() -> int:
    for seed in range(1, 100_000):
        rep = verify.full_check(polydisc([1.0, 1.0]),
                                Engine(method="mc", samples=20_000, seed=seed), (1.0, 3.0))
        tol = tolerance(rep.curve.points[1].margin_se)
        if abs(tol - 0.0184) <= 5e-5:
            print(f"curve tolerance: seed {seed}, t = 3 tolerance {tol:.6f}")
            return seed
    raise AssertionError("no seed in range")


def main(argv: list[str]) -> None:
    lines = annulus_golden()
    moment_excursion_seed()
    curve_tolerance_seed()
    if "--write" in argv:
        GOLDEN.write_text("".join(line + "\n" for line in lines))
        print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
