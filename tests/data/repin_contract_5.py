"""Re-pin every Monte Carlo fixture for sampling contract 5 and check each
against its contract-4 value.

Run from the repository root (needs git, for the contract-4 sources and
fixtures):

    PYTHONPATH=src python tests/data/repin_contract_5.py [--write]

Contract 5 draws each block from its own PCG64DXSM generator instead of
the Philox counter of contracts 1 to 4, so every seeded Monte Carlo number
moves and no law does.  The fixtures this moves:

* the annulus golden file, ``full_check`` of ``annulus:inner=1,outer=2`` at
  20,000 samples, seed 7, which must stay "violated" after exactly 4
  ``run_chunked`` calls (the primary pass and its 3 rechecks);
* the ``cli_workers_seed11/*.jsonl`` outputs of the CI worker-count step;
* the digests and the records pinned inside ``tests/test_integrate.py`` and
  ``tests/test_moments.py`` (``PINS``), and the raw draws pinned in
  ``TestSamplingContract`` (``DRAW_PINS``: new bits with no old value to
  compare, their law is what ``TestKeys`` checks);
* the seeds of the tests that need a given protocol path (``SEARCHES``):
  each is the first seed from a fixed start that takes the path its
  contract-4 seed took, and each test must cite it;
* every file of ``demos/expected``.

The contract-4 values are computed under the contract-4 sources of
``CONTRACT_4_COMMIT`` (in a subprocess over ``git archive``) and must
reproduce the committed contract-4 files and pins.  Every fixture must
keep its keys, kind, verdict and note, and its method up to the seed of a
re-seeded fixture; every number must lie within 4 sigma of its contract-4
value, where sigma is sqrt(2) times the standard deviation of that number
over ``REPLICATES`` contract-5 runs of the same fixture at the seeds
``REPLICATE_SEEDS`` (a number that does not vary over them must not
move).  Each fixture is printed with its largest z.  The demos print
numbers without their spread: their text must match word for word with
the numbers masked (but for ``DEMO_TEXT_EDITS``), and the largest
relative move of a number is printed.  Without ``--write`` the run fails
unless every file already holds its contract-5 value; ``--write``
rewrites those that do not.
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
CONTRACT_4_COMMIT = "15b9a53"  # the last commit that drew under contract 4
ANNULUS = "tests/data/annulus_full_check_mc20000_seed7.jsonl"
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
    "exp-box": "verify --body box:a=1,1.5 --measure exponential",
}
CLI_ENGINE = "--engine mc --samples 300000 --workers 1 --seed"
CLI_SEED = 11
NEW_CLI_CASES = {"exp-box"}  # no contract-4 file: compared with its contract-4 output
REPLICATES = 20
REPLICATE_SEEDS = range(10_001, 10_001 + REPLICATES)
Z_BOUND = 4.0
DEMO_TEXT_EDITS = {  # contract-4 line -> contract-5 line, numbers masked
    "Identical (seed, stream, counter) -> identical draws":
        "Identical (seed, stream, block) -> identical draws",
}


# ---------------------------------------------------------------------------
# The fixtures as functions of their seed.  The pins and the CLI outputs
# run under both contracts, so they use only what both provide.


def _stats(body, samples, seed, stream=0) -> dict:
    from sineq.integrate import Engine
    from sineq.verify import DEFAULT_T_GRID, body_statistics

    stats = body_statistics(body, None, DEFAULT_T_GRID,
                            Engine(method="mc", samples=samples, seed=seed, stream=stream))
    return {"means": stats.means.tolist(), "cov": stats.cov.tolist()}


def _entropy(check, body, tag, seed=23) -> dict:
    from sineq import entropy
    from sineq.integrate import Engine

    rep = getattr(entropy, check)(entropy.complement_indicator(body), body.dim, tag,
                                  Engine(method="mc", samples=70_000, seed=seed))
    return rep.to_record()


def _moments(norm, n, samples=70_000, seed=29) -> dict:
    from sineq import moments
    from sineq.bodies import unconditional_lp_ball
    from sineq.integrate import Engine

    make = {"linf": moments.linf_norm, "l1": moments.l1_norm,
            "lp:3": lambda: moments.lp_norm(3.0),
            "gauge": lambda: unconditional_lp_ball(2.5, n, 1.3, [0.8, 1.0, 1.2, 1.1][:n])}
    return moments.moment_ratio(make[norm](), 2.5, 0.75, n,
                                Engine(method="mc", samples=samples, seed=seed)).to_record()


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


def _pass_pinned(seed=2026) -> dict:
    from sineq.bodies import polydisc

    return _stats(polydisc([0.9, 1.4]), 150_000, seed, 9)


def _column_pass_pinned(seed=2026) -> dict:
    from sineq.bodies import custom_reinhardt, validate_body

    body = validate_body(custom_reinhardt(
        2, lambda r: (r * r).sum(axis=1) + r[:, 0] * r[:, 1] <= 2.25), rng_seed=3)
    return _stats(body, 150_000, seed, 9)


def _entropy_pin(check, body, seed=23):
    shape, factor, measure = _kernel_body(body)
    return _entropy(check, shape, factor if check == "check_subadditivity" else measure, seed)


def _rechecked_record(seed) -> dict:
    from sineq.integrate import Engine
    from sineq.moments import coordinate_norm, moment_ratio

    return moment_ratio(coordinate_norm(0), 2.0, 1.0, 2,
                        Engine(method="mc", samples=300_000, seed=seed)).to_record()


def annulus_records(seed=7, count=False) -> list[dict]:
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
        rep = verify.full_check(annulus_body(1.0, 2.0),
                                Engine(method="mc", samples=20_000, seed=seed), experimental=True)
    finally:
        integrate.run_chunked = original
    if count:
        assert rep.verdict == "violated" and len(passes) == 4, (rep.verdict, len(passes))
    return rep.to_records()


def cli_records(args: str, seed=CLI_SEED) -> list[dict]:
    from sineq import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(f"{args} {CLI_ENGINE} {seed}".split())
    assert code in (0, 3), (args, code)
    return [json.loads(line) for line in out.getvalue().splitlines()]


# name -> (test file, how the test pins the value, producer of a seed, the
# seed).  "bytes" is the sha256 of a pass's means and covariance bytes,
# "pair" that of the sorted-key JSON of [means, cov], "json" that of a
# record's sorted-key JSON, "text" that JSON itself in a parenthesized
# string.
PINS = {
    "test_pass_pinned": ("tests/test_integrate.py", "bytes", _pass_pinned, 2026),
    "test_column_pass_pinned": ("tests/test_integrate.py", "bytes", _column_pass_pinned, 2026),
    "test_moment_ratio_pass_pinned": (
        "tests/test_integrate.py", "json",
        lambda seed: _moments("linf", 3, samples=150_000, seed=seed), 29),
    **{f"ENTROPY[{check}, {body}]": ("tests/test_integrate.py", "json",
                                     lambda seed, c=check, b=body: _entropy_pin(c, b, seed), 23)
       for check in ("check_subadditivity", "check_lemma_multidim")
       for body in ("lp", "box-product", "cross-polytope", "norm-ball")},
    **{f"MOMENTS[{norm}, {n}]": ("tests/test_integrate.py", "json",
                                 lambda seed, a=norm, b=n: _moments(a, b, seed=seed), 29)
       for norm in ("linf", "l1", "lp:3", "gauge") for n in (2, 3, 4)},
    **{f"STATISTICS[{body}]": ("tests/test_integrate.py", "pair",
                               lambda seed, b=body: _stats(_kernel_body(b)[0], 70_000, seed), 31)
       for body in ("lp", "cross-polytope")},
    "RECHECKED_RECORD": ("tests/test_moments.py", "text", _rechecked_record, None),
}
RECHECKED_SEED_4 = 338  # the contract-4 seed of RECHECKED_RECORD


def encode(how: str, value) -> str:
    if how == "bytes":
        import numpy as np

        raw = np.array(value["means"]).tobytes() + np.array(value["cov"]).tobytes()
        return hashlib.sha256(raw).hexdigest()
    text = json.dumps([value["means"], value["cov"]] if how == "pair" else value, sort_keys=True)
    return text if how == "text" else hashlib.sha256(text.encode()).hexdigest()


def contract_4_values() -> dict:
    """What both contracts compute, at the fixtures' own seeds."""
    return {
        "pins": {name: producer(RECHECKED_SEED_4 if seed is None else seed)
                 for name, (_, _, producer, seed) in PINS.items()},
        "cli": {name: cli_records(args) for name, args in CLI_CASES.items()},
        "annulus": annulus_records(),
    }


# ---------------------------------------------------------------------------
# Seed searches: the first seed from ``start`` whose run takes the path


def _entropy_excursion(seed: int) -> str | None:
    from sineq.bodies import parse_descriptor
    from sineq.entropy import check_lemma_multidim, complement_indicator
    from sineq.integrate import Engine

    g = complement_indicator(parse_descriptor("cylinder:R=1,n=1", "reinhardt"))
    rep = check_lemma_multidim(g, 1, engine=Engine(method="mc", samples=20_000, seed=seed))
    if rep.verdict_note == "initial 3-sigma excursion not reproduced":
        return f"slack {rep.slack:.5f}, {rep.slack / rep.std_error:.2f} sigma"
    return None


def _moment_excursion(seed: int) -> str | None:
    from sineq.integrate import Engine
    from sineq.moments import coordinate_norm, moment_ratio

    pair = moment_ratio(coordinate_norm(0), 2.0, 1.0, 1,
                        Engine(method="mc", samples=2000, seed=seed))
    sigmas = (pair.bound - pair.ratio) / pair.ratio_se
    if -3.3 <= sigmas <= -3.1 and pair.verdict_note == "initial 3-sigma excursion not reproduced":
        return f"{sigmas:.2f} sigma"
    return None


def _rechecked_excursion(seed: int) -> str | None:
    rec = _rechecked_record(seed)
    if rec["verdict"] == "holds" and rec["margin"] < -rec["tolerance"]:
        return f"{rec['margin'] / rec['std_error']:.2f} sigma"
    return None


def _curve_tolerance(seed: int) -> str | None:
    from sineq import verify
    from sineq.bodies import polydisc
    from sineq.integrate import Engine, tolerance

    rep = verify.full_check(polydisc([1.0, 1.0]), Engine(method="mc", samples=20_000, seed=seed),
                            (1.0, 3.0))
    tol = tolerance(rep.curve.points[1].margin_se)
    return f"t = 3 tolerance {tol:.6f}" if abs(tol - 0.0184) <= 5e-5 else None


# name -> (test of the path, start, contract-4 seed, [(test file, text citing
# the seed)]).  The paths: the multidimensional lemma's equality case (the
# cylinder's complement, n = 1, 20,000 samples) reading below -3 sigma,
# with no recheck repeating it; the coordinate moment ratio (n = 1, p = 2,
# q = 1, 2,000 samples) reading 3.1 to 3.3 sigma above C(2, 1), the band of
# the contract-1 fixture, with no recheck repeating it; the same at n = 2
# and 300,000 samples (``RECHECKED_RECORD``); and the polydisc curve of
# ``verify --body polydisc:r=1,1 --engine mc --samples 20000 --grid 1,3``
# with a t = 3 tolerance within 5e-5 of the 0.0184 a test pins.
SEARCHES = {
    "entropy excursion": (_entropy_excursion, 1, 9, [
        ("tests/test_entropy.py", "samples=20_000, seed={})"),
        ("tests/test_cli.py", '"--samples", "20000", "--seed", "{}",')]),
    "moment excursion": (_moment_excursion, 0, 1459, [
        ("tests/test_moments.py", "samples=2000, seed={})"),
        ("tests/test_cli.py", '"--samples", "2000", "--seed", "{}",')]),
    "rechecked moment excursion": (_rechecked_excursion, 1, RECHECKED_SEED_4, [
        ("tests/test_moments.py", "samples=300_000, seed={}, workers=workers")]),
    "curve tolerance": (_curve_tolerance, 1, 3, [
        ("tests/test_cli.py", '"--samples", "20000", "--seed", "{}", "--grid", "1,3"'),
        ("tests/test_cli.py", "samples=20_000, seed={}),")]),
}


def search(name: str) -> int:
    path, start, _, _ = SEARCHES[name]
    for seed in range(start, start + 100_000):
        found = path(seed)
        if found:
            print(f"{name:50} seed {SEARCHES[name][2]} -> {seed}: {found}")
            return seed
    raise AssertionError(f"{name}: no seed in range")


# ---------------------------------------------------------------------------
# Comparison


def leaves(value, path=""):
    """(path, leaf) of every leaf of a JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def spreads(replicates: list) -> dict:
    """sqrt(2) times the standard deviation of each float leaf over the
    replicates: the sigma of a difference of two runs."""
    columns: dict[str, list[float]] = {}
    for rep in replicates:
        for path, leaf in leaves(rep):
            if isinstance(leaf, float):
                columns.setdefault(path, []).append(leaf)
    out = {}
    for path, xs in columns.items():
        mean = math.fsum(xs) / len(xs)
        var = math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1) if len(xs) > 1 else 0.0
        out[path] = math.sqrt(2.0 * var)
    return out


def compare(name: str, old, new, sigma: dict, seeds: tuple[int, int] | None = None) -> None:
    """Check ``new`` against ``old`` by the rules of the module docstring
    and print the largest z; ``seeds`` (old, new) for a re-seeded fixture."""
    old_leaves, new_leaves = dict(leaves(old)), dict(leaves(new))
    assert old_leaves.keys() == new_leaves.keys(), (name, old_leaves.keys() ^ new_leaves.keys())
    worst, where = 0.0, "-"
    for path, o in old_leaves.items():
        n = new_leaves[path]
        key = path.rsplit(".", 1)[-1]
        if key == "sampling_contract":
            assert (o, n) == (4, 5), (name, path, o, n)
        elif seeds and key == "seed":
            assert (o, n) == seeds, (name, path, o, n)
        elif seeds and key == "method":
            assert n == o.replace(f", {seeds[0]})", f", {seeds[1]})"), (name, o, n)
        elif isinstance(o, float) and isinstance(n, float):
            s = sigma.get(path, 0.0)
            if s == 0.0:
                assert o == n, (name, path, "a number that does not vary moved", o, n)
                continue
            z = (n - o) / s
            assert abs(z) <= Z_BOUND, (name, path, o, n, z)
            if abs(z) > abs(worst):
                worst, where = z, path
        else:
            assert o == n, (name, path, o, n)
    print(f"{name:50} largest z {worst:+.2f} at {where}")


def replicated(name: str, produce, old, new, seeds=None) -> None:
    compare(name, old, new, spreads([produce(seed) for seed in REPLICATE_SEEDS]), seeds)


# ---------------------------------------------------------------------------
# Fixtures


def git_show(path: str) -> str:
    return subprocess.run(["git", "show", f"{CONTRACT_4_COMMIT}:{path}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def under_contract_4() -> dict:
    """:func:`contract_4_values` computed under the contract-4 sources."""
    archive = subprocess.run(["git", "archive", CONTRACT_4_COMMIT, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src")}
        out = subprocess.run([sys.executable, __file__, "--emit"], env=env,
                             capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def lines(records: list[dict]) -> list[str]:
    return [json.dumps(r, sort_keys=True) for r in records]


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


# The raw draws pinned in TestSamplingContract: (tag, n) -> the sha256 of
# rows [0, 1000) of block 3 of SampleStream(2026, 9) and its first row
# (``PINNED``), and the first row of block 4 (``NEXT_BLOCK``).
DRAW_PINS = [("complex-gaussian", 2), ("exponential", 3), ("radial-mu", 2), ("exponential-1d", 3)]
NEXT_BLOCK = DRAW_PINS[:3]


def draw_pin_source(source: str) -> str:
    from sineq.integrate import SampleStream, draw_points
    from sineq.measures import MeasureKind

    def rows(tag, n, block, take):
        return draw_points(MeasureKind(tag, n), SampleStream(2026, 9), block, take)

    pinned = "".join(
        f'        ("{tag}", {n}): (\n'
        f'            "{hashlib.sha256(pts.tobytes()).hexdigest()}",\n'
        f"            {pts[0].tolist()!r},\n        ),\n"
        for tag, n in DRAW_PINS for pts in [rows(tag, n, 3, 1000)])
    nxt = "".join(f'        ("{tag}", {n}): {rows(tag, n, 4, 1)[0].tolist()!r},\n'
                  for tag, n in NEXT_BLOCK)
    for name, body in (("PINNED", pinned), ("NEXT_BLOCK", nxt)):
        block = re.search(rf"\n    {name} = {{\n(.*?)    }}\n", source, re.S)
        assert block, name
        source = source.replace(block[0], f"\n    {name} = {{\n{body}    }}\n")
    return source


NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def demo_text(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    return out.getvalue()


def compare_demo(name: str, old: str, new: str) -> None:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    assert len(old_lines) == len(new_lines), name
    moves = [0.0]
    for a, b in zip(old_lines, new_lines):
        words_a, words_b = NUMBER.sub("#", a), NUMBER.sub("#", b)
        assert DEMO_TEXT_EDITS.get(words_a, words_a) == words_b, (name, a, b)
        for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
            moves.append(abs(y - x) / abs(x) if x else abs(y))
    print(f"{'demos/expected/' + name + '.txt':50} same words, numbers moved "
          f"by up to {max(moves):.1e} relative")


def main(argv: list[str]) -> None:
    if "--emit" in argv:
        print(json.dumps(contract_4_values()))
        return
    from sineq.integrate import SAMPLING_CONTRACT

    assert SAMPLING_CONTRACT == 5, SAMPLING_CONTRACT
    old = under_contract_4()
    texts = {}

    seeds = {name: search(name) for name in SEARCHES}
    for name, (_, _, _, cites) in SEARCHES.items():
        for path, text in cites:
            assert text.format(seeds[name]) in (ROOT / path).read_text(), (name, path, text)

    assert lines(old["annulus"]) == git_show(ANNULUS).splitlines(), "contract-4 annulus"
    new = annulus_records(count=True)
    replicated(ANNULUS, annulus_records, old["annulus"], new)
    texts[ANNULUS] = lines(new)
    for name, args in CLI_CASES.items():
        path = f"tests/data/cli_workers_seed11/{name}.jsonl"
        if name not in NEW_CLI_CASES:
            assert lines(old["cli"][name]) == git_show(path).splitlines(), f"contract-4 {path}"
        new = cli_records(args)
        replicated(path, lambda seed, a=args: cli_records(a, seed), old["cli"][name], new)
        texts[path] = lines(new)
    for path in sorted((ROOT / "demos" / "expected").glob("*.txt")):
        rel = str(path.relative_to(ROOT))
        new = demo_text(path.stem)
        compare_demo(path.stem, git_show(rel), new)
        texts[rel] = new.splitlines()
    texts = {path: "".join(line + "\n" for line in text) for path, text in texts.items()}

    contract_4_sources, sources = {}, {}
    for name, (path, how, producer, seed) in PINS.items():
        label, old_value = f"{Path(path).name}:{name}", old["pins"][name]
        if seed is None:  # re-seeded
            seed = seeds["rechecked moment excursion"]
            new = producer(seed)
            replicated(label, producer, old_value, new, (RECHECKED_SEED_4, seed))
        else:
            new = producer(seed)
            replicated(label, producer, old_value, new)
        old_pin, new_pin = encode(how, old_value), encode(how, new)
        # the contract-4 value must be the pin of the contract-4 test file
        replace_pin(contract_4_sources.setdefault(path, git_show(path)), name, how,
                    old_pin, new_pin)
        sources[path] = replace_pin(sources.get(path) or (ROOT / path).read_text(), name, how,
                                    old_pin, new_pin)
    path = "tests/test_integrate.py"
    sources[path] = draw_pin_source(sources[path])
    print(f"{path + ':DRAW_PINS':50} new bits")
    texts.update(sources)

    stale = [path for path, text in texts.items()
             if not (ROOT / path).exists() or (ROOT / path).read_text() != text]
    if "--write" in argv:
        for path in stale:
            (ROOT / path).write_text(texts[path])
        print(f"rewrote {len(stale)} of {len(texts)} files")
    elif stale:
        sys.exit(f"not re-pinned for contract 5 (run with --write): {', '.join(stale)}")
    else:
        print(f"all {len(texts)} files hold their contract-5 values")


if __name__ == "__main__":
    main(sys.argv[1:])
