"""Golden output digests: a refactor of the numerics must not move an arm choice.

Each case runs one small, fixed CLI configuration and compares the SHA-256 of
``regret.csv`` and ``summary.csv`` with digests recorded before the stacked
block-design state was introduced.  Regret depends on the policy's numerics
only through the chosen arms, so a mismatch means some arm choice moved.
``diagnostics.csv`` is not pinned: its estimate-dependent columns legitimately
move in the low bits when the floating-point arithmetic changes.
"""

import hashlib

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
