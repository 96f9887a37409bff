import re

import numpy as np
import pytest

from ldrestore.errors import ContractViolation
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


def test_stream_refuses_a_seed_or_index_that_is_not_an_integer():
    # int() would put 1.7 and True on stream(1, "x")'s draws
    for args, bad in [((1.7, "x"), 1.7), ((True, "x"), True), ((1, "x", 2.0), 2.0),
                      ((1, "x", 2, np.bool_(True)), np.bool_(True)), ((np.float64(1.0), "x"), np.float64(1.0))]:
        with pytest.raises(ContractViolation, match=re.escape(repr(bad))):
            stream(*args)
    # numpy integers are integers
    want = stream(1, "x", 2).standard_normal(3)
    assert np.array_equal(stream(np.int64(1), "x", np.uint8(2)).standard_normal(3), want)
