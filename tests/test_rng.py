import numpy as np
import pytest

from hybandit.rng import derive_seed, splitmix64, stream


def test_streams_are_reproducible():
    a = stream(123, 4, 567, "context").standard_normal(16)
    b = stream(123, 4, 567, "context").standard_normal(16)
    assert np.array_equal(a, b)


def test_streams_differ_across_coordinates():
    base = stream(1, 2, 3, "context").standard_normal(8)
    for args in [(2, 2, 3, "context"), (1, 3, 3, "context"), (1, 2, 4, "context"), (1, 2, 3, "noise")]:
        other = stream(*args).standard_normal(8)
        assert not np.array_equal(base, other)


def test_splitmix_is_deterministic_bijection_sample():
    outs = {splitmix64(i) for i in range(10_000)}
    assert len(outs) == 10_000


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        stream(0, 0, 0, "nope")


def test_bounds_checked():
    with pytest.raises(ValueError):
        stream(0, 1 << 16, 0, "noise")
    with pytest.raises(ValueError):
        stream(0, 0, 1 << 40, "noise")


def test_derive_seed_spreads():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_high_bit_seed_stream_pinned():
    # A key word with its top bit set must keep giving the same stream.
    got = stream(2**63 + 99, 3, 7, "context").standard_normal(8)
    expected = [
        -0.25619471740835403,
        -0.7329882876296765,
        0.05650060271394013,
        -0.13206934633450174,
        0.29003059630983724,
        0.1110384843813724,
        0.5270573306265914,
        0.6424109134457336,
    ]
    assert got.tolist() == expected
