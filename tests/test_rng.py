import numpy as np

from ldrestore.rng import stream


def test_stream_draws_are_pinned():
    # entropy [crc32(name), seed, *indices]: these draws fix the stream layout
    g = stream(20240830, "lora.init", 3, 7)
    assert g.integers(0, 2**31, size=4).tolist() == [997209562, 389511921, 1183255260, 1922501096]
    assert [v.hex() for v in g.standard_normal(2)] == ["-0x1.212151e3a29c0p-1", "-0x1.33927b83c0b78p-3"]
    # a negative seed is taken modulo 2**64
    assert stream(-1, "batches").integers(0, 2**31, size=3).tolist() == [520879205, 2132036555, 1992616447]


def test_streams_are_stateless_and_distinct():
    a = stream(1, "x", 2).standard_normal(3)
    assert np.array_equal(a, stream(1, "x", 2).standard_normal(3))
    for other in (stream(2, "x", 2), stream(1, "y", 2), stream(1, "x", 3), stream(1, "x")):
        assert not np.array_equal(a, other.standard_normal(3))
