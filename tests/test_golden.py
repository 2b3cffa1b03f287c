"""Golden output digests: a refactor of the numerics must not move an arm choice.

Each case runs one small, fixed CLI configuration and compares the SHA-256 of
``regret.csv`` and ``summary.csv`` with digests recorded before the stacked
block-design state was introduced.  Regret depends on the policy's numerics
only through the chosen arms, so a mismatch means some arm choice moved.

``diagnostics.csv`` is pinned by tolerance instead: its spectral and
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

CASES = {
    "custom_6_3_8": (
        [
            "run", "--setting", "custom", "--d1", "6", "--d2", "3", "--K", "8",
            "--T", "2000", "--n-envs", "2", "--n-trials", "2", "--seed", "11",
        ],
        {
            "regret.csv": "dff5f7159a67657540114a223a49b015433e6ba822315e2d32a69bbdae25feb7",
            "summary.csv": "8fbfec933a14877a0f7cd74043170808caa1ad1ac30bf705fce36bb903f1a4e3",
        },
    ),
    "setting3_k10_50": (
        [
            "run", "--setting", "3", "--k-grid", "10,50",
            "--T", "1000", "--n-envs", "2", "--n-trials", "2", "--seed", "12",
        ],
        {
            "regret.csv": "82255720b65a6d6ef6c77e7d372b378467ef4bc95b44c8e96167155104b854cd",
            "summary.csv": "aa3c6dcf9939ae3d8ec147ae63b534dfa14f44c3b04dfb48f4a43b879e392155",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests(case, tmp_path):
    argv, expected = CASES[case]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected
    }
    assert got == expected


DIAGNOSE_ARGV = [
    "diagnose", "--d1", "3", "--d2", "3", "--K", "3", "--T", "400",
    "--algos", "hylinucb,dislinucb", "--diagnostics-every", "100",
    "--n-envs", "2", "--n-trials", "2", "--seed", "13",
]
DIAGNOSTICS_GOLDEN = Path(__file__).parent / "golden" / "diagnose_d3_k3_t400_diagnostics.csv"


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


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
