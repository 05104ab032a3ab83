"""The golden outcomes hold: every exact counter of the six scenario
shapes equals ``outcomes.json`` by name, in this interpreter (whose hash
seed pytest leaves random) and in a fresh one at a fixed other hash seed.

The subprocess starts before the in-process pass so the two share the
wall clock.  A failure lists each moved value as ``shape seed counter:
old -> new``; regenerate with ``PYTHONPATH=src python -m tests.golden
--write`` only when the move is intended, and name it in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from tests.golden import SHAPES, compute_all, diff, load

#: The second pass's hash seed: fixed, so a set-order dependence that
#: shows under it shows on every run.
SECOND_HASH_SEED = "4242"

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture(scope="module")
def second_pass():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = SECOND_HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), REPO]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "tests.golden"], cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    yield process
    if process.poll() is None:
        process.kill()
        process.communicate()


def _report(lines):
    return "golden outcomes moved:\n" + "\n".join(lines)


def test_file_covers_every_shape_and_seed():
    golden = load()
    assert sorted(golden) == sorted(SHAPES)
    for name, seeds in golden.items():
        assert sorted(seeds) == sorted(map(str, SHAPES[name].seeds)), name
        for counters in seeds.values():
            assert "outcome_signature" in counters
            assert ("frame_digest" in counters) == bool(SHAPES[name].shards)


def test_outcomes_in_process(second_pass):
    lines = diff(load(), compute_all())
    assert not lines, _report(lines)


def test_outcomes_under_a_second_hash_seed(second_pass):
    out, err = second_pass.communicate(timeout=300)
    assert second_pass.returncode == 0, err
    lines = diff(load(), json.loads(out))
    assert not lines, _report(lines)
