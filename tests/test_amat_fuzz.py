"""Generated amat text: ``data.load_amat`` against the row-at-a-time reader.

The reference, ``oracle.load_amat``, converts each row with Python's
``float()``; the library parses the whole file with numpy's C reader.  On
every file here both must return the same bits.
"""
import numpy as np
import pytest

import oracle
from mlmkl.data import load_amat

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FORMATS = (repr, "%.17g".__mod__, "%.10g".__mod__)
# zeros of both signs, the clip bounds, a value %.10g rounds, the smallest
# subnormal and normal numbers and values outside [0, 1].  Magnitudes stay
# below 1e308: %.10g rounds the largest doubles up to "inf", which both
# readers reject.
SPECIAL = (0.0, -0.0, 1.0, 1.0 / 3.0, 5e-324, 2.2250738585072014e-308, 1e-300,
           1e308, -0.25, 1.5, 1e30, -1e-30, 0.1)
VALUES = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(SPECIAL)
BLANK_LINES = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def amat_text(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sep = draw(SEPARATORS)
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        lines.extend(draw(BLANK_LINES))
        row = rng.random(784)
        for i, v in draw(st.lists(st.tuples(st.integers(0, 783), VALUES), max_size=24)):
            row[i] = v
        fmt = draw(st.sampled_from(FORMATS))
        label = draw(st.integers(0, 9))
        cells = [fmt(float(v)) for v in row]
        cells.append(draw(st.sampled_from([str(label), repr(float(label)), "%de0" % label])))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + sep.join(cells) + draw(st.sampled_from(["", " ", "\t"])))
    lines.extend(draw(BLANK_LINES))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


@hypothesis.settings(max_examples=150, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(text=amat_text())
def test_load_amat_matches_the_reference_bit_for_bit(tmp_path, text):
    path = tmp_path / "generated.amat"
    path.write_bytes(text.encode("ascii"))
    want = oracle.load_amat(path)
    got = load_amat(path)
    assert got.features.flags.c_contiguous
    assert got.features.dtype == np.float64 and got.labels.dtype == np.int64
    np.testing.assert_array_equal(got.features.view(np.int64), want.features.view(np.int64))
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.name == want.name
