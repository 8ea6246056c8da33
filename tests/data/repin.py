"""Check that every fixture of ``tests/data/registry.py`` holds what the
working tree produces, and at a sampling-contract bump check each against
its value under the contract before.

Run from the root of a git checkout that holds HEAD's parent:

    PYTHONPATH=src python tests/data/repin.py [--write]

The contract is ``sineq.integrate.SAMPLING_CONTRACT``.  The base commit is
HEAD while the working tree's contract differs from HEAD's (a bump in
progress), HEAD^ when HEAD's differs from HEAD^'s (a bump as it lands, in
one commit), and there is none otherwise: between bumps the tool checks the
files only, so a fixture may then change a key or a deterministic number
and a producer or a demo may call any API of the working tree.

At a bump the values under the contract before are computed under the
sources of the base commit (in a subprocess over ``git archive``).  Every
fixture must be produced there, and where the base commit pins it too (a
demo: with an unchanged script), the pin there must be that value.  Every
fixture must keep its keys, kinds, verdicts and notes.  Every number must
lie within ``Z_BOUND`` sigma of its base value, where sigma is sqrt(2)
times the standard deviation of that number over ``REPLICATE_SEEDS``, runs
of the same fixture under the working tree at other seeds (a number that
does not vary over them must not move).  Each fixture is printed with its
largest z.  A demo's text must match its base text word for word with the
numbers masked (but for ``registry.DEMO_TEXT_EDITS``), and the largest
relative move of a number is printed.  Raw draws and a searched seed have
no earlier value to compare.

At a bump the tool also runs the fixed-seed ``within_3se`` asserts of
``tests/test_integrate.py`` under the working tree and names each estimate
that lands outside 3 standard errors of its truth.  It only reports them: a
seed is not searched for and no bound is widened, since about one such
assert in 370 lands outside by chance.

Without ``--write`` the run fails unless every file already holds the
working tree's values; ``--write`` rewrites those that do not, and names
each.
"""

from __future__ import annotations

import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from registry import DEMO_TEXT_EDITS, REGISTRY, ROOT, encode

REPLICATE_SEEDS = range(10_001, 10_021)
Z_BOUND = 4.0
UNCOMPARED = ("bits", "seed")  # new values, with no earlier one to compare
CONTRACT_LINE = re.compile(r"^SAMPLING_CONTRACT = (\d+)", re.M)


def check(ok: bool, what) -> None:
    """Fail the run, naming ``what``, unless ``ok`` (kept under ``-O``)."""
    if not ok:
        raise AssertionError(what)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def git_show(commit: str, path: str) -> str | None:
    """``path`` at ``commit``, None where it does not exist."""
    out = subprocess.run(["git", "show", f"{commit}:{path}"], cwd=ROOT, capture_output=True,
                         text=True)
    return out.stdout if out.returncode == 0 else None


def read(path: str) -> str | None:
    """``path`` in the working tree, None where it does not exist."""
    return (ROOT / path).read_text() if (ROOT / path).exists() else None


def contract_at(commit: str) -> int:
    # a checkout without ``commit`` (HEAD^ of a depth-1 clone) fails here, naming it
    return int(CONTRACT_LINE.search(git("show", f"{commit}:src/sineq/integrate.py"))[1])


def base_commit(contract: int) -> str | None:
    """The commit to compare with, by the rule of the module docstring."""
    for commit in ("HEAD", "HEAD^"):
        if contract_at(commit) != contract:
            return git("rev-parse", commit)
    return None


def emit() -> None:
    """Print the comparable fixtures' values, as JSON, each as
    {"value": ...} or {"error": ...}."""
    out = {}
    for name, fx in REGISTRY.items():
        if fx.how not in UNCOMPARED:
            try:
                out[name] = {"value": fx.produce(fx.seed)}
            except Exception as exc:  # reported, by name, in the checking process
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))


def under(commit: str) -> dict:
    """:func:`emit` run under the sources of ``commit``."""
    archive = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(Path(tmp) / "src"), str(Path(__file__).parent)])}
        out = subprocess.run([sys.executable, "-c", "import repin; repin.emit()"], env=env,
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def pin(text: str | None, pattern: str | None) -> re.Match | None:
    """The one match of ``pattern`` in ``text`` (None where there is none)."""
    if text is None or pattern is None:
        return None
    found = list(re.finditer(pattern, text, re.S))
    check(len(found) <= 1, (pattern, "matches more than once"))
    return found[0] if found else None


def pinned(text: str | None, pattern: str | None) -> str | None:
    """What ``text`` pins at ``pattern``: the whole text without one."""
    if pattern is None:
        return text
    match = pin(text, pattern)
    return match[1] if match else None


def repinned(text: str, pattern: str | None, value: str) -> str:
    if pattern is None:
        return value
    match = pin(text, pattern)
    check(match, (pattern, "not found"))
    return text[:match.start(1)] + value + text[match.end(1):]


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


def compare(name: str, old, new, sigma: dict, contracts: tuple[int, int]) -> None:
    """Check ``new`` against ``old`` by the rules of the module docstring
    and print the largest z."""
    old_leaves, new_leaves = dict(leaves(old)), dict(leaves(new))
    check(old_leaves.keys() == new_leaves.keys(), (name, old_leaves.keys() ^ new_leaves.keys()))
    worst, where = 0.0, "-"
    for path, o in old_leaves.items():
        n = new_leaves[path]
        if path.rsplit(".", 1)[-1] == "sampling_contract":
            check((o, n) == contracts, (name, path, o, n))
        elif isinstance(o, float) and isinstance(n, float):
            s = sigma.get(path, 0.0)
            if s == 0.0:
                check(o == n, (name, path, "a number that does not vary moved", o, n))
                continue
            z = (n - o) / s
            check(abs(z) <= Z_BOUND, (name, path, o, n, z))
            if abs(z) > abs(worst):
                worst, where = z, path
        else:
            check(o == n, (name, path, o, n))
    print(f"{name:60} largest z {worst:+.2f} at {where or '-'}")


NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def compare_demo(name: str, old: str, new: str) -> None:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    check(len(old_lines) == len(new_lines), name)
    moves = [0.0]
    for a, b in zip(old_lines, new_lines):
        words_a, words_b = NUMBER.sub("#", a), NUMBER.sub("#", b)
        check(DEMO_TEXT_EDITS.get(words_a, words_a) == words_b, (name, a, b))
        for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
            moves.append(abs(y - x) / abs(x) if x else abs(y))
    print(f"{name:60} same words, numbers moved by up to {max(moves):.1e} relative")


# ---------------------------------------------------------------------------


def against_base(name: str, fx, new, base: str, old: dict, contracts: tuple[int, int]) -> None:
    """Check the working tree's value ``new`` of fixture ``name`` against
    ``old``, the base sources' values, by the rules of the module
    docstring."""
    if fx.how in UNCOMPARED:
        print(f"{name:60} {pinned(read(fx.path), fx.pattern)} -> {encode(fx.how, new)}")
        return
    value = old[name]["value"]
    if fx.script is None or git_show(base, fx.script) == read(fx.script):
        at_base = pinned(git_show(base, fx.path), fx.pattern)
        check(at_base in (None, encode(fx.how, value)), (name, "differs at the base"))
    if fx.how == "text":
        compare_demo(name, value, new)
    else:
        sigma = spreads([fx.produce(seed) for seed in REPLICATE_SEEDS])
        compare(name, value, new, sigma, contracts)


def three_sigma() -> None:
    """Print the z of each estimate that a ``within_3se`` assert of
    tests/test_integrate.py checks, its test named, and the tests where one
    lands outside 3 standard errors.  Each such test is run with a
    ``within_3se`` that records instead of judging."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_integrate

    zs: list[float] = []

    def within(estimate, truth: float) -> bool:
        diff = estimate.value - truth
        zs.append(diff / estimate.std_error if estimate.std_error else math.inf if diff else 0.0)
        return True

    test_integrate.within_3se = within
    outside = []
    for cls in [c for c in vars(test_integrate).values() if isinstance(c, type)]:
        for name, test in vars(cls).items():
            if name.startswith("test_") and "within_3se(" in inspect.getsource(test):
                zs.clear()
                test(cls())
                for z in zs:
                    print(f"{cls.__name__ + '::' + name:60} z {z:+.2f}")
                if not all(abs(z) <= 3.0 for z in zs):
                    outside.append(f"{cls.__name__}::{name}")
    print(f"outside 3 sigma under contract {test_integrate.SAMPLING_CONTRACT}: "
          f"{', '.join(outside) or 'none'}")


def main(argv: list[str]) -> None:
    if set(argv) - {"--write"}:
        sys.exit("usage: PYTHONPATH=src python tests/data/repin.py [--write]")
    from sineq.integrate import SAMPLING_CONTRACT

    base = base_commit(SAMPLING_CONTRACT)
    if base is None:
        print(f"contract {SAMPLING_CONTRACT}, unchanged since HEAD^: checking the files only")
    else:
        contracts = (contract_at(base), SAMPLING_CONTRACT)
        print(f"contract {contracts[1]} against contract {contracts[0]} of {base[:12]}")
        old = under(base)
        failed = [f"{name}: {got['error']}" for name, got in old.items() if "error" in got]
        if failed:
            sys.exit("the base sources do not produce\n  " + "\n  ".join(failed))

    texts: dict[str, str] = {}
    for name, fx in REGISTRY.items():
        new = fx.produce(fx.seed)
        if base is not None:
            against_base(name, fx, new, base, old, contracts)
        current = texts[fx.path] if fx.path in texts else read(fx.path)
        texts[fx.path] = repinned(current, fx.pattern, encode(fx.how, new))
    if base is not None:
        three_sigma()

    stale = [path for path, text in texts.items() if read(path) != text]
    if "--write" in argv:
        for path in stale:
            (ROOT / path).write_text(texts[path])
            print(f"rewrote {path}")
        print(f"rewrote {len(stale)} of {len(texts)} files")
    elif stale:
        sys.exit(f"not re-pinned for contract {SAMPLING_CONTRACT} (run with --write): "
                 f"{', '.join(stale)}")
    else:
        print(f"all {len(texts)} files hold their contract-{SAMPLING_CONTRACT} values")


if __name__ == "__main__":
    main(sys.argv[1:])
