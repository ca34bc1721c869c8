"""Acceptance gate: one test per advertised guarantee, at its stated
tolerance and budget.  Each test prints a single ACCEPTANCE line so a
plain ``pytest -v -s`` run doubles as the checklist.

The desk-scale benchmark experiment needs the background-random digit
files on disk; point MLMKL_DATA_DIR at a directory containing
mnist_background_random_{train,test}.amat (nested directories are
searched) to enable it.  Everything else is self-contained.
"""
import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    brute_force_svm_dual,
    digits_like,
    direction_blobs,
    simplex_grid,
    svm_dual_value,
    write_amat,
)
from mlmkl import cli, data, kpca, pipeline, svm
from mlmkl.kernels import evaluate, gram, parse_kernel
from mlmkl.pipeline import LayerConfig
from mlmkl.umkl import assemble_qp, minimize_qp, problem_from_features
from oracle import objective_scalar


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d %s FAIL" % (number, name))
        raise
    print("ACCEPTANCE %d %s PASS" % (number, name))


def test_criterion_1_kernel_identities():
    with criterion(1, "kernel identities"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        k0, k1 = parse_kernel("arccos(n=0,L=1)"), parse_kernel("arccos(n=1,L=1)")
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert evaluate(k0, e1, e2) == pytest.approx(0.5, abs=1e-12)
        for _ in range(1000):
            x = rng.uniform(-1.0, 1.0, size=rng.integers(2, 24))
            while not np.any(x):
                x = rng.uniform(-1.0, 1.0, size=x.size)
            assert evaluate(k0, x, x) == pytest.approx(1.0, abs=1e-12)
            n2 = float(x @ x)
            assert evaluate(k1, x, x) == pytest.approx(n2, rel=1e-12)
            y = rng.uniform(-1.0, 1.0, size=x.size)
            while not np.any(y):
                y = rng.uniform(-1.0, 1.0, size=y.size)
            a, b = rng.uniform(0.1, 10.0, size=2)
            assert evaluate(k0, a * x, b * y) == pytest.approx(
                evaluate(k0, x, y), abs=1e-12
            )
        assert time.perf_counter() - start < 1.0


def test_criterion_2_qp_assembly_matches_brute_force():
    with criterion(2, "QP assembly"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        pool = [
            parse_kernel("linear"),
            parse_kernel("rbf(gamma=0.5)"),
            parse_kernel("rbf(gamma=2)"),
            parse_kernel("arccos(n=0,L=1)"),
            parse_kernel("arccos(n=1,L=2)"),
        ]
        for _ in range(200):
            n = int(rng.integers(4, 21))
            m = int(rng.integers(1, 6))
            basis = int(rng.integers(1, min(5, n - 1) + 1))
            x = rng.uniform(0.05, 1.0, size=(n, int(rng.integers(2, 7))))
            gamma = float(rng.uniform(0.0, 0.5))
            prob = problem_from_features(x, pool[:m], basis_size=basis)
            qp = assemble_qp(prob, gamma)
            eig = np.linalg.eigvalsh(qp.w)
            assert eig[0] >= -1e-8 * max(eig[-1], 1e-30)
            for _ in range(100):
                mu = rng.dirichlet(np.ones(m))
                assert qp.value(mu) == pytest.approx(
                    objective_scalar(x, prob, gamma, mu), rel=1e-8, abs=1e-12
                )
            h = 1e-5
            for _ in range(2):
                mu = rng.dirichlet(np.ones(m))
                g = qp.gradient(mu)
                for t in range(m):
                    e = np.zeros(m)
                    e[t] = h
                    fd = (
                        objective_scalar(x, prob, gamma, mu + e)
                        - objective_scalar(x, prob, gamma, mu - e)
                    ) / (2 * h)
                    # 1e-6 absolute floor covers central-difference noise
                    assert g[t] == pytest.approx(fd, rel=1e-4, abs=1e-6)
        assert time.perf_counter() - start < 30.0


def test_criterion_3_solver_beats_grid_oracle():
    with criterion(3, "solver optimality"):
        rng = np.random.default_rng(2)
        grid = simplex_grid(3, 0.01)
        pool = [
            parse_kernel("linear"),
            parse_kernel("rbf(gamma=1)"),
            parse_kernel("arccos(n=1,L=1)"),
        ]
        for _ in range(50):
            n = int(rng.integers(6, 16))
            x = rng.uniform(0.05, 1.0, size=(n, 4))
            gamma = float(rng.uniform(0.0, 0.3))
            prob = problem_from_features(x, pool, basis_size=int(rng.integers(1, 5)))
            qp = assemble_qp(prob, gamma)
            mu, objs = minimize_qp(qp)
            assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))
            grid_vals = (grid @ qp.w * grid).sum(axis=1) + grid @ qp.z + qp.constant
            assert objs[-1] <= float(grid_vals.min()) + 1e-6


def test_criterion_4_kpca_matches_covariance_pca():
    with criterion(4, "KPCA against PCA"):
        rng = np.random.default_rng(3)
        linear = parse_kernel("linear")
        for _ in range(50):
            n = int(rng.integers(8, 40))
            dim = int(rng.integers(2, 8))
            x = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0, size=dim)
            p = min(dim, 4)
            model = kpca.fit(gram(x, linear), p)
            proj = model.training_projections()
            xc = x - x.mean(axis=0)
            _, vecs = np.linalg.eigh(xc.T @ xc)
            ref = xc @ vecs[:, ::-1][:, :p]
            for j in range(p):
                sign = np.sign(proj[:, j] @ ref[:, j]) or 1.0
                np.testing.assert_allclose(proj[:, j], sign * ref[:, j], atol=1e-6)


def test_criterion_5_smo_against_brute_force():
    with criterion(5, "SMO optimality"):
        rng = np.random.default_rng(4)
        linear = parse_kernel("linear")
        for _ in range(10):
            n = int(rng.integers(8, 21))
            x = rng.normal(size=(n, 3))
            y = np.where(rng.random(n) < 0.5, -1, 1)
            if len(np.unique(y)) < 2:
                y[0] = -y[0]
            k = gram(x, linear)
            c = float(rng.choice([0.5, 1.0, 10.0]))
            machine = svm.train_binary(k, y, c=c, tol=1e-3)
            assert svm.kkt_violation(k, y, machine.alpha, c) <= 1e-3
            ref = brute_force_svm_dual(k.values, y, c)
            ours = svm.dual_objective(k, y, machine.alpha)
            theirs = svm_dual_value(k.values, y, ref)
            assert abs(ours - theirs) <= 1e-3 * max(1.0, abs(theirs))

        x, y = direction_blobs(40, 50, [(0, 15), (25, 40)], seed=5)
        k = gram(x, parse_kernel("rbf(gamma=0.1)"))
        model = svm.train_multiclass(k, y, c=10.0)
        pred = svm.predict(model, k.values[:, model.support])
        assert np.mean(pred == y) == 1.0


def test_criterion_6_weights_table_structure(tmp_path, capsys):
    with criterion(6, "weights table structure"):
        x, y = digits_like(15, n_classes=2, seed=6)
        configs = [
            LayerConfig(
                kernels=(parse_kernel("rbf(gamma=0.05)"), parse_kernel("linear")),
                width=5, basis_size=5,
            ),
            LayerConfig(
                kernels=(parse_kernel("arccos(n=1,L=1)"), parse_kernel("linear")),
                width=3, kpca_components=5, basis_size=5,
            ),
        ]
        model = pipeline.fit(x, y, configs, subsample=0, seed=0)
        for layer in model.layers:
            assert np.all(layer.weights.mu >= 0.0)
            assert abs(layer.weights.mu.sum() - 1.0) <= 1e-10
        path = tmp_path / "model.bin"
        pipeline.save(model, path)
        assert cli.main(["weights", "--model", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["layers"]) == model.n_layers
        for row in payload["layers"]:
            mu = np.array(row["mu"])
            assert np.all(mu >= 0.0)
            assert abs(mu.sum() - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# desk-scale benchmark experiment


def _find_benchmark_file(root, role):
    want = "mnist_background_random_%s.amat" % role
    loose = []
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name == want:
                return os.path.join(dirpath, name)
            low = name.lower()
            if low.endswith(".amat") and "back" in low and "rand" in low and role in low:
                loose.append(os.path.join(dirpath, name))
    return loose[0] if loose else None


def _benchmark_paths():
    root = os.environ.get("MLMKL_DATA_DIR")
    if not root or not os.path.isdir(root):
        return None
    train = _find_benchmark_file(root, "train")
    test = _find_benchmark_file(root, "test")
    if train is None or test is None:
        return None
    return train, test


def _sweep_test_error(train_ds, valid_ds, test_ds, configs, seed):
    """Fit, pick C on the validation split, report the test error."""
    model = pipeline.fit(
        train_ds.features, train_ds.labels, configs, subsample=1000, seed=seed
    )
    rep_train = pipeline.transform(model, train_ds.features)
    rep_valid = pipeline.transform(model, valid_ds.features)
    rep_test = pipeline.transform(model, test_ds.features)
    kernel = parse_kernel("arccos(n=1,L=1)")
    best = None
    for c in (0.1, 1.0, 10.0, 100.0):
        machine = pipeline.train_classifier(rep_train, train_ds.labels, kernel, c=c)
        err = 100.0 * float(np.mean(
            pipeline.classifier_predict(machine, rep_valid) != valid_ds.labels
        ))
        if best is None or err < best[0]:
            best = (err, c, machine)
    _, chosen_c, machine = best
    test_err = 100.0 * float(np.mean(
        pipeline.classifier_predict(machine, rep_test) != test_ds.labels
    ))
    return test_err, chosen_c


def test_criterion_7_background_random_benchmark():
    paths = _benchmark_paths()
    if paths is None:
        pytest.skip("MLMKL_DATA_DIR does not point at the background-random files")
    with criterion(7, "desk-scale benchmark"):
        train_all = data.load_amat(paths[0])
        test_all = data.load_amat(paths[1])
        train_ds, valid_ds = data.split(train_all, 2000, 500, seed=0)
        test_ds = data.Dataset(
            test_all.features[:2000], test_all.labels[:2000], name=test_all.name
        )

        arc = parse_kernel("arccos(n=1,L=2)")
        multi = [
            LayerConfig(
                kernels=(arc, parse_kernel("rbf(gamma=0.005)"),
                         parse_kernel("rbf(gamma=0.02)")),
                width=60,
            ),
            LayerConfig(
                kernels=(arc, parse_kernel("rbf(gamma=1)"),
                         parse_kernel("rbf(gamma=10)")),
                width=60,
            ),
        ]
        single = [replace(cfg, kernels=(arc,)) for cfg in multi]

        start = time.perf_counter()
        ml_err, ml_c = _sweep_test_error(train_ds, valid_ds, test_ds, multi, seed=0)
        elapsed = time.perf_counter() - start
        mkm_err, _ = _sweep_test_error(train_ds, valid_ds, test_ds, single, seed=0)
        again, _ = _sweep_test_error(train_ds, valid_ds, test_ds, multi, seed=0)

        print(
            "benchmark: multi-kernel %.2f%% (C=%g, %.0fs) vs single-kernel %.2f%%"
            % (ml_err, ml_c, elapsed, mkm_err)
        )
        assert ml_err <= mkm_err + 1.0
        assert ml_err <= 30.0
        assert elapsed <= 900.0
        assert again == ml_err


def test_criterion_8_cli_determinism(tmp_path, capsys):
    with criterion(8, "CLI determinism"):
        x, y = digits_like(20, n_classes=2, seed=7)
        train = tmp_path / "train.amat"
        write_amat(train, x, y)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "layers": [
                {"kernels": ["rbf(gamma=0.05)", "linear"], "width": 4, "basis_size": 5}
            ],
            "subsample": 30,
        }))
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        for path in (a, b):
            rc = cli.main([
                "train", "--config", str(cfg), "--train", str(train),
                "--out", str(path), "--seed", "13",
            ])
            assert rc == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
