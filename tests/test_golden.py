"""The eleven contract runs and the work counters, recomputed in-process,
match tests/golden/.

See tests/golden_runs.py for the runs and for how to regenerate the files
after a change that moves an artifact on purpose.
"""

import json

import pytest

from golden_runs import GOLDEN_DIR, HASHED, RUNS, moved, produce, \
    read_sums, versions_note, work


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_golden(name, tmp_path):
    summary, digests = produce(name, tmp_path)
    golden = (GOLDEN_DIR / name / "summary.json").read_text()
    moves = moved(json.loads(golden), json.loads(summary))
    assert not moves, (f"{name}: summary.json moved:\n  "
                       + "\n  ".join(moves) + versions_note())
    assert summary == golden, f"{name}: summary.json text differs"
    sums = read_sums()
    for f in HASHED:
        assert digests[f] == sums[f"{name}/{f}"], (
            f"{name}/{f} differs from its SHA-256 in SHA256SUMS"
            + versions_note())


def test_golden_files_cover_every_run():
    assert sorted(read_sums()) == sorted(
        f"{name}/{f}" for name in RUNS for f in HASHED)
    assert sorted(p.name for p in GOLDEN_DIR.iterdir() if p.is_dir()) \
        == sorted(RUNS)


def test_work_counters_match_golden():
    # Series length, generator products, contour nodes and transform
    # points are deterministic: a change that adds work fails here.
    golden = json.loads((GOLDEN_DIR / "work.json").read_text())
    moves = moved(golden, work())
    assert not moves, ("work counters moved:\n  " + "\n  ".join(moves)
                       + versions_note())
