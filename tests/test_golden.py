"""Golden outputs: a refactor of the numerics must not move an arm choice.

Each ``run`` case runs one small, fixed CLI configuration.  The columns
``algo,env_id,trial_id,round,chosen_arm`` of every ``regret.csv`` row are
pinned byte for byte by their SHA-256, recorded before the stacked
block-design state was introduced, so any arm choice that moves fails.

``cum_regret`` and ``summary.csv`` are compared at rel 1e-9 instead, against
rows recorded with those same arm choices: ``regret.csv``'s rows at every
50th round (each trace's final round included) and the whole
``summary.csv``.  With the arms fixed, a regret value depends on the machine
only through the rounding of the mean rewards, whose ``x . theta`` is a BLAS
``gemv``: with OpenBLAS's Sandybridge kernels (no FMA) in place of this
machine's, no arm moved and ``cum_regret`` moved by at most 5.2e-16 relative.
Rel 1e-9 leaves that move six orders of magnitude of room, while a change in
how regret is charged (a wrong mean, noise leaking in) moves it by far more;
and since regret accumulates, a wrong increment anywhere in a trace shows at
its next checked round.

``diagnostics.csv`` is pinned by tolerance too: its spectral and
estimate-dependent columns legitimately move in the low bits when the
floating-point arithmetic changes, so every numeric column is compared at
rel 1e-9 against a file recorded with the cyclic-Jacobi eigensolver that
preceded the closed-form spectral diagnostics, and NaNs must sit in the same
places.
"""

import hashlib
import math
from pathlib import Path

import pytest

from hybandit.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL = 1e-9
CHECKED_EVERY = 50

# case -> (CLI arguments, SHA-256 of regret.csv's algo,env_id,trial_id,round,chosen_arm lines)
CASES = {
    "custom_6_3_8": (
        [
            "run", "--setting", "custom", "--d1", "6", "--d2", "3", "--K", "8",
            "--T", "2000", "--n-envs", "2", "--n-trials", "2", "--seed", "11",
        ],
        "7a9e8dbcbdd62b0bd6b60414d6dc5cf6e266f9c6af0bba96f8b691e99f21dbde",
    ),
    "setting3_k10_50": (
        [
            "run", "--setting", "3", "--k-grid", "10,50",
            "--T", "1000", "--n-envs", "2", "--n-trials", "2", "--seed", "12",
        ],
        "0cf1dcb9c6c4cf6ac1f9679a40409bc5f0e127ffd51896d18a1b7ccb57271a17",
    ),
}


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _assert_rows_close(got, ref, exact, close):
    """Rows equal in the ``exact`` columns and within rel ``REL`` in the ``close`` ones."""
    assert len(got) == len(ref)
    for row, ref_row in zip(got, ref):
        assert [row[j] for j in exact] == [ref_row[j] for j in exact]
        for j in close:
            assert float(row[j]) == pytest.approx(float(ref_row[j]), rel=REL, abs=0.0), row


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests(case, tmp_path):
    argv, arm_digest = CASES[case]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0

    header, rows = _read_csv(tmp_path / "regret.csv")
    arms = "".join(",".join([*row[:4], row[5]]) + "\n" for row in [header, *rows])
    assert hashlib.sha256(arms.encode()).hexdigest() == arm_digest

    ref_header, ref = _read_csv(GOLDEN / f"{case}_regret_every50.csv")
    assert header == ref_header
    checked = [row for row in rows if int(row[3]) % CHECKED_EVERY == 0]
    _assert_rows_close(checked, ref, exact=(0, 1, 2, 3, 5), close=(4,))

    header, got = _read_csv(tmp_path / "summary.csv")
    ref_header, ref = _read_csv(GOLDEN / f"{case}_summary.csv")
    assert header == ref_header
    _assert_rows_close(got, ref, exact=(0, 1, 2, 3, 4, 7), close=(5, 6))


DIAGNOSE_ARGV = [
    "diagnose", "--d1", "3", "--d2", "3", "--K", "3", "--T", "400",
    "--algos", "hylinucb,dislinucb", "--diagnostics-every", "100",
    "--n-envs", "2", "--n-trials", "2", "--seed", "13",
]
DIAGNOSTICS_GOLDEN = GOLDEN / "diagnose_d3_k3_t400_diagnostics.csv"


def test_diagnostics_within_tolerance(tmp_path):
    assert main([*DIAGNOSE_ARGV, "--out-dir", str(tmp_path)]) == 0
    header, got = _read_csv(tmp_path / "diagnostics.csv")
    ref_header, ref = _read_csv(DIAGNOSTICS_GOLDEN)
    assert header == ref_header
    assert len(got) == len(ref) == 32
    numeric = range(header.index("round") + 1, len(header))
    n_finite = 0
    for row, ref_row in zip(got, ref):
        assert row[:4] == ref_row[:4]
        for j in numeric:
            a, b = float(row[j]), float(ref_row[j])
            assert math.isnan(a) == math.isnan(b), (row[:4], header[j])
            if not math.isnan(b):
                n_finite += 1
                assert a == pytest.approx(b, rel=1e-9, abs=0.0), (row[:4], header[j])
    # dislinucb rows carry no sandwich spectrum; every other value is finite
    assert n_finite == 32 * len(numeric) - 16 * 2
