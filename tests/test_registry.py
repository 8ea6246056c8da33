"""The fixture registry, ``tests/data/registry.py``, names every seeded Monte
Carlo fixture: each worker-count case of the CI and each digest or record
pinned under ``tests/``.  So ``tests/data/repin.py`` checks them all, and
compares them across contracts at a sampling-contract bump."""

import re
from pathlib import Path

import pytest

import registry
import repin
from sineq.integrate import SAMPLING_CONTRACT

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

# a sha256 digest, or a record of a seeded run, which carries its contract
PINNED = re.compile(r'[0-9a-f]{64}|"sampling_contract": \d+')


def test_worker_count_cases_are_the_registered_ones():
    files = {path.stem for path in (TESTS / "data" / "cli_workers_seed11").iterdir()}
    assert files == set(registry.CLI_CASES)


def test_every_pin_under_tests_is_registered():
    fixtures: dict[str, list] = {}
    for fx in registry.REGISTRY.values():
        fixtures.setdefault(fx.path, []).append(fx)
    for path in sorted(TESTS.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        rel = path.relative_to(ROOT).as_posix()
        text = path.read_text()
        spans = []
        for fx in fixtures.get(rel, []):
            if fx.pattern is None:
                spans.append((0, len(text)))
                continue
            found = [m.span(1) for m in re.finditer(fx.pattern, text, re.S)]
            assert len(found) == 1, (rel, fx.pattern, "must match once")
            spans += found
        stray = [m[0] for m in PINNED.finditer(text)
                 if not any(a <= m.start() and m.end() <= b for a, b in spans)]
        assert not stray, (rel, "pins what the registry does not name", stray)


def never(*args):
    raise AssertionError("called")


@pytest.mark.parametrize("tree, head, parent, base", [
    (6, 5, 5, "HEAD"),
    (6, 5, 4, "HEAD"),
    (6, 6, 5, "HEAD^"),
    (5, 5, 5, None),
], ids=["bump-in-progress", "bump-on-a-bump", "bump-commit", "no-bump"])
def test_base_commit_rule(monkeypatch, tree, head, parent, base):
    monkeypatch.setattr(repin, "contract_at", {"HEAD": head, "HEAD^": parent}.__getitem__)
    monkeypatch.setattr(repin, "git", lambda *args: f"sha of {args[-1]}")
    assert repin.base_commit(tree) == (base and f"sha of {base}")


def test_outside_a_bump_only_the_files_are_checked(monkeypatch, tmp_path, capsys):
    # no commit is archived and no replicate seed is run
    seeds = []
    fixture = registry.Fixture("out.txt", "text",
                               lambda seed: seeds.append(seed) or f"seed {seed}\n", 3)
    monkeypatch.setattr(repin, "contract_at", lambda commit: SAMPLING_CONTRACT)
    for name in ("git", "git_show", "under"):
        monkeypatch.setattr(repin, name, never)
    monkeypatch.setattr(repin, "REGISTRY", {"out.txt": fixture})
    monkeypatch.setattr(repin, "ROOT", tmp_path)
    with pytest.raises(SystemExit, match="not re-pinned .*: out.txt$"):
        repin.main([])
    repin.main(["--write"])
    assert (tmp_path / "out.txt").read_text() == "seed 3\n"
    assert "rewrote out.txt\n" in capsys.readouterr().out
    repin.main([])
    assert capsys.readouterr().out.endswith(
        f"all 1 files hold their contract-{SAMPLING_CONTRACT} values\n")
    assert seeds == [3, 3, 3]
