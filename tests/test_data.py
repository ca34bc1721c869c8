import struct

import numpy as np
import pytest

from mlmkl.data import Dataset, load_amat, load_idx, split, write_amat
from mlmkl.errors import ParseError, ShapeError


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


def test_amat_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad.amat"
    cells = ["0"] * 784
    cells[3] = "abc"
    path.write_text(" ".join(cells) + " 1\n")
    with pytest.raises(ParseError) as exc:
        load_amat(path)
    assert exc.value.line == 1


def test_amat_rejects_non_digit_labels(tmp_path):
    row = " ".join(["0"] * 784)
    for bad in ("10", "-1", "2.5"):
        path = tmp_path / ("label_%s.amat" % bad)
        path.write_text("%s %s\n" % (row, bad))
        with pytest.raises(ParseError):
            load_amat(path)


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


def test_amat_empty_file(tmp_path):
    path = tmp_path / "empty.amat"
    path.write_text("\n\n")
    with pytest.raises(ParseError):
        load_amat(path)


def write_idx_pair(tmp_path, images, labels, prefix=""):
    n, rows, cols = images.shape
    ip = tmp_path / (prefix + "img.idx")
    lp = tmp_path / (prefix + "lab.idx")
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, n))
        fh.write(labels.astype(np.uint8).tobytes())
    return ip, lp


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
    labels = np.array([0, 9, 4, 4], dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    ds = load_idx(ip, lp)
    assert ds.n == 4
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_allclose(ds.features, images.reshape(4, 784) / 255.0)
    assert ds.features.max() <= 1.0


def test_idx_bad_magic(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    data = bytearray(ip.read_bytes())
    data[3] = 0x99
    ip.write_bytes(bytes(data))
    with pytest.raises(ParseError):
        load_idx(ip, lp)


def test_idx_truncated_pixels(tmp_path):
    images = np.zeros((3, 28, 28), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    ip.write_bytes(ip.read_bytes()[:-10])
    with pytest.raises(ParseError):
        load_idx(ip, lp)


def test_idx_label_outside_the_digit_classes(tmp_path):
    images = np.zeros((3, 28, 28), dtype=np.uint8)
    labels = np.array([0, 12, 3], dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    with pytest.raises(ParseError, match=r"label 12 of item 1 .*lab\.idx"):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 28, 28), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    _, lp2 = write_idx_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8),
                            np.zeros(2, dtype=np.uint8), prefix="short_")
    with pytest.raises(ParseError):
        load_idx(ip, lp2)


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
