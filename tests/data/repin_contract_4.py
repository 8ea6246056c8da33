"""Re-pin every Monte Carlo fixture for sampling contract 4 and check each
against its contract-3 value.

Run from the repository root (needs git, for the contract-3 sources and
fixtures):

    PYTHONPATH=src python tests/data/repin_contract_4.py [--write]

Contract 4 keeps the draws and changes how a pass lays out and reduces its
columns: one row per column, a pairwise sum per column and one dot per pair
of columns in each sub-block.  The fixtures this moves:

* the annulus golden file, ``full_check`` of ``annulus:inner=1,outer=2`` at
  20,000 samples, seed 7, which must stay "violated" after exactly 4
  ``run_chunked`` calls (the primary pass and its 3 rechecks);
* the six ``cli_workers_seed11/*.jsonl`` outputs of the CI worker-count step;
* the digests and the record pinned inside ``tests/test_integrate.py`` and
  ``tests/test_moments.py`` (``PINS``);
* the contract line of ``demos/expected/06_reproducibility.txt``.

The files are compared with their committed contract-3 versions at
``CONTRACT_3_COMMIT``; the pins are recomputed under the contract-3 sources
of that commit (in a subprocess over ``git archive``), and each contract-3
value must reproduce its pinned literal.  Every fixture must keep its keys,
kind, method, verdict and note; indicator means (the ``body_statistics``
grid columns and the dilation values) must be bit-identical; every other
number must be within 1e-10 relative, or 1e-15 absolute for a covariance
entry that cancels to about 0.  Each fixture is printed with its largest
relative move.  Without ``--write`` the run fails unless every file already
holds its contract-4 value; ``--write`` rewrites those that do not.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CONTRACT_3_COMMIT = "e2818fb"  # the last commit that reduced under contract 3
ANNULUS = "tests/data/annulus_full_check_mc20000_seed7.jsonl"
DEMO = "demos/06_reproducibility.py"
DEMO_EXPECTED = "demos/expected/06_reproducibility.txt"
# the CI worker-count step's commands, run with these engine options
CLI_CASES = {
    "polydisc": "verify --body polydisc:r=1,1.5",
    "annulus": "verify --body annulus:inner=1,outer=2 --experimental",
    "subadditivity": "entropy --lemma subadditivity "
                     "--body weighted-lp-ball:p=2,w=0.9,1,1.1,scale=1.9",
    "moments-linf": "moments --norm linf --n 3 --p 2 --q 1",
    "moments-gauge": "moments --norm body:weighted-lp-ball:p=3,w=0.9,1,1.1,1.2,scale=2 "
                     "--n 4 --p 2 --q 1",
    "multidim": "entropy --lemma multidim --body weighted-lp-ball:p=2,w=0.9,1,1.1,scale=1.9",
}
CLI_ENGINE = "--engine mc --samples 300000 --seed 11 --workers 1"
REL, ABS = 1e-10, 1e-15


# ---------------------------------------------------------------------------
# The pinned values, computed by the same calls as the tests that pin them;
# these run under both contracts, so they use only what both provide.


def _stats(body, samples, seed, stream=0) -> dict:
    from sineq.integrate import Engine
    from sineq.verify import DEFAULT_T_GRID, body_statistics

    stats = body_statistics(body, None, DEFAULT_T_GRID,
                            Engine(method="mc", samples=samples, seed=seed, stream=stream))
    return {"means": stats.means.tolist(), "cov": stats.cov.tolist()}


def _entropy(check, body, tag) -> dict:
    from sineq import entropy
    from sineq.integrate import Engine

    rep = getattr(entropy, check)(entropy.complement_indicator(body), body.dim, tag,
                                  Engine(method="mc", samples=70_000, seed=23))
    return rep.to_record()


def _moments(norm, n, samples=70_000) -> dict:
    from sineq import moments
    from sineq.bodies import unconditional_lp_ball
    from sineq.integrate import Engine

    make = {"linf": moments.linf_norm, "l1": moments.l1_norm,
            "lp:3": lambda: moments.lp_norm(3.0),
            "gauge": lambda: unconditional_lp_ball(2.5, n, 1.3, [0.8, 1.0, 1.2, 1.1][:n])}
    return moments.moment_ratio(make[norm](), 2.5, 0.75, n,
                                Engine(method="mc", samples=samples, seed=29)).to_record()


def _kernel_body(name):
    import numpy as np

    from sineq import bodies as B

    return {
        "lp": (B.reinhardt_lp_ball([0.9, 1.0, 1.1], 2.0, 1.9), "radial-mu", "complex-gaussian"),
        "box-product": (B.product(B.polydisc([0.8]), B.cylinder_body(1.2, 2)).dilate(1.3),
                        "radial-mu", "complex-gaussian"),
        "cross-polytope": (B.cross_polytope(3.2, 4), "exponential-1d", "exponential"),
        "norm-ball": (B.norm_ball(lambda x: (np.abs(x) ** 3).sum(axis=1) ** (1 / 3), 2.0, 3),
                      "exponential-1d", "exponential"),
    }[name]


def _pass_pinned() -> dict:
    from sineq.bodies import polydisc

    return _stats(polydisc([0.9, 1.4]), 150_000, 2026, 9)


def _column_pass_pinned() -> dict:
    from sineq.bodies import custom_reinhardt, validate_body

    body = validate_body(custom_reinhardt(
        2, lambda r: (r * r).sum(axis=1) + r[:, 0] * r[:, 1] <= 2.25), rng_seed=3)
    return _stats(body, 150_000, 2026, 9)


def _entropy_pin(check, body):
    shape, factor, measure = _kernel_body(body)
    return _entropy(check, shape, factor if check == "check_subadditivity" else measure)


def _rechecked_record() -> dict:
    from sineq.integrate import Engine
    from sineq.moments import coordinate_norm, moment_ratio

    return moment_ratio(coordinate_norm(0), 2.0, 1.0, 2,
                        Engine(method="mc", samples=300_000, seed=338)).to_record()


# name -> (test file, how the test pins the value, producer).  "bytes" is
# the sha256 of a pass's means and covariance bytes, "pair" that of the
# sorted-key JSON of [means, cov], "json" that of a record's sorted-key
# JSON, "text" that JSON itself in a parenthesized string.
PINS = {
    "test_pass_pinned": ("tests/test_integrate.py", "bytes", _pass_pinned),
    "test_column_pass_pinned": ("tests/test_integrate.py", "bytes", _column_pass_pinned),
    "test_moment_ratio_pass_pinned": ("tests/test_integrate.py", "json",
                                      lambda: _moments("linf", 3, samples=150_000)),
    **{f"ENTROPY[{check}, {body}]": ("tests/test_integrate.py", "json",
                                     lambda c=check, b=body: _entropy_pin(c, b))
       for check in ("check_subadditivity", "check_lemma_multidim")
       for body in ("lp", "box-product", "cross-polytope", "norm-ball")},
    **{f"MOMENTS[{norm}, {n}]": ("tests/test_integrate.py", "json",
                                 lambda a=norm, b=n: _moments(a, b))
       for norm in ("linf", "l1", "lp:3", "gauge") for n in (2, 3, 4)},
    **{f"STATISTICS[{body}]": ("tests/test_integrate.py", "pair",
                               lambda b=body: _stats(_kernel_body(b)[0], 70_000, 31))
       for body in ("lp", "cross-polytope")},
    "RECHECKED_RECORD": ("tests/test_moments.py", "text", _rechecked_record),
}


def pin_values() -> dict:
    return {name: producer() for name, (_, _, producer) in PINS.items()}


def encode(how: str, value) -> str:
    if how == "bytes":
        import numpy as np

        raw = np.array(value["means"]).tobytes() + np.array(value["cov"]).tobytes()
        return hashlib.sha256(raw).hexdigest()
    text = json.dumps([value["means"], value["cov"]] if how == "pair" else value, sort_keys=True)
    return text if how == "text" else hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Comparison


def compare(name: str, old, new) -> tuple[float, float]:
    """The largest relative move from ``old`` to ``new`` (JSON values), and
    the largest absolute move of a covariance entry held only by the
    absolute bound; raises ``AssertionError`` when a rule of the module
    docstring is broken."""
    moves, cancelled = [0.0], [0.0]

    def walk(o, n, path, exact, cov):
        assert type(o) is type(n), (name, path, o, n)
        if isinstance(o, dict):
            assert o.keys() == n.keys(), (name, path, o.keys() ^ n.keys())
            dilation = o.get("kind") == "dilation"
            for key in o.keys() - {"sampling_contract"}:
                walk(o[key], n[key], f"{path}.{key}", dilation and key == "value", False)
        elif isinstance(o, list):
            assert len(o) == len(n), (name, path)
            for i, (a, b) in enumerate(zip(o, n)):
                walk(a, b, f"{path}[{i}]", exact, cov)
        elif isinstance(o, float):
            if exact:
                assert o == n, (name, path, "indicator mean moved", o, n)
            if math.isclose(n, o, rel_tol=REL, abs_tol=0.0):
                moves.append(abs(n - o) / abs(o) if o else 0.0)
            else:
                assert cov and abs(n - o) <= ABS, (name, path, o, n)
                cancelled.append(abs(n - o))
        else:
            assert o == n, (name, path, o, n)

    if isinstance(old, dict) and "means" in old:  # a pass: grid columns, then the weight
        k = len(old["means"]) - 1
        walk(old["means"][:k], new["means"][:k], "means", True, False)
        walk(old["means"][k:], new["means"][k:], "means", False, False)
        walk(old["cov"], new["cov"], "cov", False, True)
    else:
        walk(old, new, "", False, False)
    return max(moves), max(cancelled)


def report(name: str, old, new) -> None:
    rel, cancelled = compare(name, old, new)
    print(f"{name:50} {'moved' if old != new else 'same '} relative {rel:.1e}"
          + (f", cancelled covariance {cancelled:.1e} absolute" if cancelled else ""))


# ---------------------------------------------------------------------------
# Fixtures


def git_show(path: str) -> str:
    return subprocess.run(["git", "show", f"{CONTRACT_3_COMMIT}:{path}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def contract_3_pins() -> dict:
    """The pins computed under the contract-3 sources."""
    archive = subprocess.run(["git", "archive", CONTRACT_3_COMMIT, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        out = subprocess.run([sys.executable, __file__, "--emit"], env=env,
                             capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def annulus_lines() -> list[str]:
    from sineq import integrate, verify
    from sineq.bodies import annulus_body
    from sineq.integrate import Engine

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
    assert rep.verdict == "violated" and len(passes) == 4, (rep.verdict, len(passes))
    return [json.dumps(r, sort_keys=True) for r in rep.to_records()]


def cli_lines(args: str) -> list[str]:
    from sineq import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(f"{args} {CLI_ENGINE}".split())
    assert code in (0, 3), (args, code)
    return out.getvalue().splitlines()


def demo_lines() -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / DEMO), run_name="__main__")
    return out.getvalue().splitlines()


def check_records(name: str, old: list[str], new: list[str]) -> None:
    old_recs, new_recs = [json.loads(x) for x in old], [json.loads(x) for x in new]
    assert len(old_recs) == len(new_recs), name
    for o, n in zip(old_recs, new_recs):
        assert (o["sampling_contract"], n["sampling_contract"]) == (3, 4), (name, o, n)
    report(name, old_recs, new_recs)


def replace_pin(source: str, name: str, how: str, old: str, new: str) -> str:
    """``source`` with the pin ``name`` set to ``new``; it must hold ``old``
    or ``new`` already."""
    if how == "text":
        block = re.search(rf"{name} = \((.*?)\)\n", source, re.S)
        assert block and ast.literal_eval(f"({block[1]})") in (old, new), (name, "pin differs")
        pieces, line = [], ""
        for part in re.split(r"(?<=, )", new):
            if line and len(line) + len(part) > 80:
                pieces.append(line)
                line = ""
            line += part
        body = "\n".join(f"        {piece!r}" for piece in pieces + [line])
        return source.replace(block[0], f"{name} = (\n{body})\n")
    assert source.count(old) + source.count(new) == 1, (name, "pin does not appear once")
    return source.replace(old, new)


def main(argv: list[str]) -> None:
    if "--emit" in argv:
        print(json.dumps(pin_values()))
        return
    from sineq.integrate import SAMPLING_CONTRACT

    assert SAMPLING_CONTRACT == 4, SAMPLING_CONTRACT
    files = {}

    new = annulus_lines()
    check_records(ANNULUS, git_show(ANNULUS).splitlines(), new)
    files[ANNULUS] = new
    for name, args in CLI_CASES.items():
        path = f"tests/data/cli_workers_seed11/{name}.jsonl"
        new = cli_lines(args)
        check_records(path, git_show(path).splitlines(), new)
        files[path] = new
    new, old = demo_lines(), git_show(DEMO_EXPECTED).splitlines()
    moved = [(a, b) for a, b in zip(old, new) if a != b]
    assert len(old) == len(new) and moved == [(
        "Sampling contract 3: a row is the radii (|z_1|, |z_2|)",
        "Sampling contract 4: a row is the radii (|z_1|, |z_2|)")], moved
    print(f"{DEMO_EXPECTED:50} moved only its contract line")
    files[DEMO_EXPECTED] = new

    olds, news = contract_3_pins(), pin_values()
    sources = {}
    for name, (path, how, _) in PINS.items():
        if "sampling_contract" in olds[name]:
            assert (olds[name]["sampling_contract"], news[name]["sampling_contract"]) == (3, 4)
        report(f"{Path(path).name}:{name}", olds[name], news[name])
        source = sources.get(path) or (ROOT / path).read_text()
        sources[path] = replace_pin(source, name, how, encode(how, olds[name]),
                                    encode(how, news[name]))

    texts = {**{path: "".join(line + "\n" for line in lines) for path, lines in files.items()},
             **sources}
    stale = [path for path, text in texts.items() if (ROOT / path).read_text() != text]
    if "--write" in argv:
        for path in stale:
            (ROOT / path).write_text(texts[path])
        print(f"rewrote {len(stale)} of {len(texts)} files")
    elif stale:
        sys.exit(f"not re-pinned for contract 4 (run with --write): {', '.join(stale)}")
    else:
        print(f"all {len(texts)} files hold their contract-4 values")


if __name__ == "__main__":
    main(sys.argv[1:])
