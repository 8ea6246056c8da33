"""The fixture registry, ``tests/data/registry.py``, names every seeded Monte
Carlo fixture: each worker-count case of the CI and each digest or record
pinned under ``tests/``.  So ``tests/data/repin.py`` re-pins them all at a
sampling-contract bump."""

import re
from pathlib import Path

import registry

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

# a sha256 digest, or a record of a seeded run, which carries its contract
PINNED = re.compile(r'[0-9a-f]{64}|"sampling_contract": \d+')


def ci_cases() -> dict[str, str]:
    """NAME -> command of each case of the CI worker-count step."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    step = ci[ci.index("name: Worker count does not change a bit"):]
    return dict(re.findall(r'"([\w-]+): ([^"]+)"', step))


def test_worker_count_cases_are_the_registered_ones():
    files = {path.stem for path in (TESTS / "data" / "cli_workers_seed11").iterdir()}
    assert ci_cases() == registry.CLI_CASES
    assert files == set(registry.CLI_CASES)
    ci = " ".join((ROOT / ".github" / "workflows" / "ci.yml").read_text().split())
    assert f"--samples {registry.CLI_SAMPLES} --seed {registry.CLI_SEED} " in ci


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
