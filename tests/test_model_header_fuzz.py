"""Model files whose JSON header is mutated at random and signed again.

The checksum then holds and the version is the one ``save`` wrote, so
whatever the header says reaches the parser: ``load`` must either return a
model or fail with ``ModelIOError``.
"""
import hashlib
import json
import struct

import numpy as np
import pytest

from mlmkl import pipeline
from mlmkl.errors import ModelIOError
from mlmkl.kernels import parse_kernel
from mlmkl.pipeline import LayerConfig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_PREFIX = struct.Struct("<IIQ")
_START = 8 + _PREFIX.size


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.05, 1.0, size=(30, 5))
    y = (x[:, 0] > 0.5).astype(int)
    cfg = LayerConfig(kernels=(parse_kernel("arccos(n=1,L=1)"), parse_kernel("rbf(gamma=0.5)")),
                      width=2, basis_size=3)
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    pipeline.save(pipeline.fit(x, y, [cfg], subsample=20), path)
    blob = path.read_bytes()
    version, header_len, total = _PREFIX.unpack(blob[8:_START])
    header = json.loads(blob[_START:_START + header_len])
    return header, blob[_START + header_len:total - 32], version


def signed(header, payload, version):
    """A model file of ``header`` and ``payload`` at format ``version``
    with a valid checksum."""
    head = json.dumps(header).encode("utf-8")
    total = _START + len(head) + len(payload) + 32
    body = b"MLMKLBIN" + _PREFIX.pack(version, len(head), total) + head + payload
    return body + hashlib.sha256(body).digest()


def paths(node, prefix=()):
    """Every key path into a JSON value, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


DELETE = object()


def mutated(header, path, value):
    """``header`` with the value at ``path`` replaced by ``value``, or
    removed when ``value`` is ``DELETE``."""
    if not path:
        return None if value is DELETE else value
    out = json.loads(json.dumps(header))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


def test_an_unmutated_header_signed_again_loads(model_file, tmp_path):
    # else every rejection below could come from the prefix, not the parser
    header, payload, version = model_file
    target = tmp_path / "same.bin"
    target.write_bytes(signed(header, payload, version))
    assert isinstance(pipeline.load(target), pipeline.MlmklModel)


@pytest.mark.parametrize(
    "path,value",
    [
        pytest.param(("layers",), 5, id="layers-number"),
        pytest.param(("layers", 0), "layer", id="layer-string"),
        pytest.param(("layers", 0, "kernels"), 7, id="kernels-number"),
        pytest.param(("layers", 0, "kernels", 0), 7, id="kernel-number"),
        pytest.param(("layers", 0, "total_mean"), [], id="total-mean-list"),
        pytest.param(("classifier",), None, id="classifier-null"),
        pytest.param(("classifier", "kernel"), 3, id="classifier-kernel-number"),
        pytest.param(("arrays",), None, id="arrays-null"),
        pytest.param((), [], id="header-list"),
    ],
)
def test_load_rejects_a_header_of_the_wrong_shape(model_file, tmp_path, path, value):
    header, payload, version = model_file
    target = tmp_path / "mutated.bin"
    target.write_bytes(signed(mutated(header, path, value), payload, version))
    with pytest.raises(ModelIOError):
        pipeline.load(target)


@hypothesis.settings(max_examples=200, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(data=st.data())
def test_load_returns_a_model_or_fails_as_model_io_error(model_file, tmp_path, data):
    header, payload, version = model_file
    path = data.draw(st.sampled_from(list(paths(header))))
    value = data.draw(st.just(DELETE) | JSON)
    target = tmp_path / "mutated.bin"
    target.write_bytes(signed(mutated(header, path, value), payload, version))
    try:
        model = pipeline.load(target)
    except ModelIOError:
        return
    assert isinstance(model, pipeline.MlmklModel)
