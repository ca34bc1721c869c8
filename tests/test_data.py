import numpy as np
import pytest

import oracle
from mlmkl.data import Dataset, load_amat, split, write_amat
from mlmkl.errors import ParseError, ShapeError

ZEROS = " ".join(["0"] * 784)


def rejected_as_by_the_reference(path):
    """``load_amat``'s ParseError for ``path``, after checking that the
    row-at-a-time reader raises one with the same line and message."""
    with pytest.raises(ParseError) as want:
        oracle.load_amat(path)
    with pytest.raises(ParseError) as got:
        load_amat(path)
    assert (got.value.line, str(got.value)) == (want.value.line, str(want.value))
    return got.value


def small_dataset(n=6, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.random((n, 784)),
        labels=rng.integers(0, 10, size=n),
        name="small",
    )


def test_amat_roundtrip(tmp_path):
    ds = small_dataset()
    path = tmp_path / "digits.amat"
    write_amat(ds, path)
    back = load_amat(path)
    np.testing.assert_allclose(back.features, ds.features, atol=1e-9)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.name == "digits.amat"


def test_amat_preserves_row_order(tmp_path):
    path = tmp_path / "rows.amat"
    with open(path, "w") as fh:
        for i in range(5):
            fh.write(" ".join(["%g" % (i / 10.0)] * 784) + " %d\n" % i)
    ds = load_amat(path)
    np.testing.assert_array_equal(ds.labels, [0, 1, 2, 3, 4])
    np.testing.assert_allclose(ds.features[:, 0], [0.0, 0.1, 0.2, 0.3, 0.4])


def test_amat_tolerates_blank_lines(tmp_path):
    path = tmp_path / "blank.amat"
    row = " ".join(["0"] * 784)
    path.write_text("\n%s 3\n\n%s 7\n\n" % (row, row))
    ds = load_amat(path)
    np.testing.assert_array_equal(ds.labels, [3, 7])


def test_amat_wrong_column_count_reports_line(tmp_path):
    path = tmp_path / "bad.amat"
    good = " ".join(["0"] * 784) + " 1\n"
    path.write_text(good + "0 0 1\n")
    with pytest.raises(ParseError) as exc:
        load_amat(path)
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)
    rejected_as_by_the_reference(path)


def test_amat_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad.amat"
    cells = ["0"] * 784
    cells[3] = "abc"
    path.write_text(" ".join(cells) + " 1\n")
    with pytest.raises(ParseError) as exc:
        load_amat(path)
    assert exc.value.line == 1
    rejected_as_by_the_reference(path)


def test_amat_rejects_non_digit_labels(tmp_path):
    row = " ".join(["0"] * 784)
    for bad in ("10", "-1", "2.5"):
        path = tmp_path / ("label_%s.amat" % bad)
        path.write_text("%s %s\n" % (row, bad))
        with pytest.raises(ParseError):
            load_amat(path)
        rejected_as_by_the_reference(path)


def test_amat_clamps_pixels(tmp_path):
    path = tmp_path / "hot.amat"
    cells = ["0"] * 784
    cells[0] = "1.5"
    cells[1] = "-0.25"
    path.write_text(" ".join(cells) + " 0\n")
    ds = load_amat(path)
    assert ds.features[0, 0] == 1.0
    assert ds.features[0, 1] == 0.0


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_amat_rejects_non_finite_pixels(tmp_path, bad):
    # clamping would turn inf into 1 and -inf into 0, and nan would survive it
    path = tmp_path / "bad.amat"
    row = " ".join(["0"] * 784) + " 1\n"
    cells = ["0"] * 784
    cells[5] = bad
    path.write_text(row + " ".join(cells) + " 1\n")
    with pytest.raises(ParseError) as exc:
        load_amat(path)
    assert exc.value.line == 2
    rejected_as_by_the_reference(path)


def test_amat_empty_file(tmp_path):
    path = tmp_path / "empty.amat"
    path.write_text("\n\n")
    with pytest.raises(ParseError):
        load_amat(path)
    rejected_as_by_the_reference(path)


@pytest.mark.parametrize("text,line,message", [
    ("", None, "no samples"),
    (" \t\n\r\n  \n", None, "no samples"),
    ("\n\n%s 1\n0 0 1\n" % ZEROS, 4, "expected 785 values per row, got 3"),
    ("0 0 1\n0 0 2\n", 1, "expected 785 values per row, got 3"),
    ("%s 1\r\n\r\n%s 1 2\r\n" % (ZEROS, ZEROS), 3, "expected 785 values per row, got 786"),
    ("%s 1\n\t\n%s x\n" % (ZEROS, ZEROS), 3, "non-numeric value in row"),
    ("%s 1\r%s x\r" % (ZEROS, ZEROS), 2, "non-numeric value in row"),
    ("%s 1\n%s\t0x1p-2 1" % (ZEROS, ZEROS[2:]), 2, "non-numeric value in row"),
    ("abc 0 1\n", 1, "expected 785 values per row, got 3"),
    ("%s 1 #2\n" % ZEROS, 1, "expected 785 values per row, got 786"),
    ("%s nan\n" % ZEROS, 1, "non-finite value in row"),
    ("%s 1\n%s 1e400\n" % (ZEROS, ZEROS), 2, "non-finite value in row"),
    ("%s 9\n%s 9.5\n" % (ZEROS, ZEROS), 2, "label 9.5 is not a digit class"),
    ("%s 1e300\n" % ZEROS, 1, "label 1e+300 is not a digit class"),
    ("%s -0.5\n" % ZEROS, 1, "label -0.5 is not a digit class"),
    ("%s\t3\n%s\t3  \n0\n" % (ZEROS, ZEROS), 3, "expected 785 values per row, got 1"),
])
def test_amat_rejections_match_the_reference(tmp_path, recwarn, text, line, message):
    path = tmp_path / "bad.amat"
    path.write_bytes(text.encode("ascii"))
    exc = rejected_as_by_the_reference(path)
    assert exc.line == line
    assert message in str(exc)
    assert len(recwarn) == 0  # np.loadtxt warns of a file with no rows


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff13"])
def test_amat_rejects_what_float_reads_but_is_not_an_ascii_decimal(tmp_path, token):
    # the one place the reader differs from the row-at-a-time reference,
    # which reads these as 10, 3 and 3 with float()
    path = tmp_path / "underscore.amat"
    path.write_text("%s 1\n\n%s %s\n" % (ZEROS, ZEROS[2:], token + " 1"), encoding="utf-8")
    assert oracle.load_amat(path).n == 2
    with pytest.raises(ParseError, match="non-numeric") as exc:
        load_amat(path)
    assert exc.value.line == 3


def test_amat_undecodable_bytes_report_line(tmp_path):
    path = tmp_path / "binary.amat"
    good = (ZEROS + " 1\n").encode("ascii")
    path.write_bytes(good + good + b"\xff\xfe\x00garbage\n" + good)
    with pytest.raises(ParseError, match="not utf-8 text") as exc:
        load_amat(path)
    assert exc.value.line == 3


def test_write_amat_formats_each_value_as_the_reference(tmp_path):
    special = [0.0, 1.0, 1.0 / 3.0, 1e-300, 5e-324, -0.0]
    features = np.random.default_rng(3).random((4, 784))
    features[:, : len(special)] = special
    features[1, 100:] = 0.0
    ds = Dataset(features, np.array([0, 9, 3, 0]))
    write_amat(ds, tmp_path / "got.amat")
    oracle.write_amat(ds, tmp_path / "want.amat")
    assert (tmp_path / "got.amat").read_bytes() == (tmp_path / "want.amat").read_bytes()
    back = load_amat(tmp_path / "got.amat")
    assert back.features[0, 5] == 0.0 and np.signbit(back.features[0, 5])


def test_split_disjoint_and_deterministic():
    ds = small_dataset(n=20, seed=2)
    train, valid = split(ds, 12, 5, seed=7)
    assert train.n == 12 and valid.n == 5
    again, _ = split(ds, 12, 5, seed=7)
    np.testing.assert_array_equal(train.features, again.features)
    # disjoint: every validation row differs from every train row
    for row in valid.features:
        assert not np.any(np.all(train.features == row, axis=1))


def test_split_without_validation():
    ds = small_dataset(n=10)
    train, valid = split(ds, 10, 0, seed=0)
    assert valid is None
    assert train.n == 10
    assert sorted(train.labels.tolist()) == sorted(ds.labels.tolist())


def test_split_rejects_overdraw():
    ds = small_dataset(n=8)
    with pytest.raises(ValueError):
        split(ds, 6, 3)
    with pytest.raises(ValueError):
        split(ds, 0, 2)


def test_dataset_validation():
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 10)), np.zeros(3, dtype=int))
    with pytest.raises(ShapeError):
        Dataset(np.zeros((2, 784)), np.zeros(3, dtype=int))
    with pytest.raises(ShapeError):
        Dataset(np.zeros((0, 784)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 784)), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 784)), np.array([0, 11]))
    with pytest.raises(ValueError):
        Dataset(np.full((2, 784), 1.5), np.array([0, 1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_pixels(bad):
    x = np.zeros((2, 784))
    x[1, 7] = bad
    with pytest.raises(ValueError, match="finite"):
        Dataset(x, np.array([0, 1]))
