import hashlib
import json
import logging
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import positive_poisson_instance, reference_haar_frame

from sigma_opt import (
    Dataset,
    LabelSpec,
    RngState,
    SvdGapSpec,
    load_csv,
    load_libsvm,
    make_objective,
    standardize,
    svd_gap_matrix,
    synth_labels,
    write_libsvm,
)
from sigma_opt import data, objectives
from sigma_opt.core import haar_frame
from sigma_opt.data import singular_value_bands
from sigma_opt.errors import (
    DomainError,
    InfeasibleSynthesis,
    InvalidDimensions,
    NonAscendingIndexError,
    ParseError,
    RaggedRows,
)


class TestLibsvm:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:0.5 3:-2\n")
        ds = load_libsvm(p)
        assert ds.N == 3
        assert np.allclose(ds.A, [[0.5, 0.0, -2.0]])
        assert ds.b.tolist() == [1.0]

    def test_zero_one_labels_kept_as_written(self, tmp_path):
        # as load_csv keeps them; only make_objective interprets labels
        p, q = tmp_path / "d.libsvm", tmp_path / "d.csv"
        p.write_text("1 1:1\n0 1:1\n1 1:1\n")
        q.write_text("1,1\n1,0\n1,1\n")
        from_libsvm, from_csv = load_libsvm(p), load_csv(q)
        assert from_libsvm.b.tolist() == from_csv.b.tolist() == [1.0, 0.0, 1.0]
        assert np.array_equal(from_libsvm.A, from_csv.A)
        f0 = [make_objective("gaussian", ds).evaluate(np.zeros(1)) for ds in (from_libsvm, from_csv)]
        assert f0[0] == f0[1] == pytest.approx(1.0 / 3.0)
        assert make_objective("logistic", from_libsvm).dataset.b.tolist() == [1.0, -1.0, 1.0]

    def test_empty_feature_list(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("0\n1 2:3\n")
        ds = load_libsvm(p)
        assert np.allclose(ds.A[0], 0.0)
        assert ds.b.tolist() == [0.0, 1.0]

    def test_malformed_token(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 a:b\n")
        with pytest.raises(ParseError) as err:
            load_libsvm(p)
        assert err.value.line == 1

    def test_non_ascending_indices(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 2:1 1:1\n")
        with pytest.raises(NonAscendingIndexError):
            load_libsvm(p)

    @pytest.mark.parametrize("token", ["0:2.0", "-3:2.0", "2:1 0:2.0"])
    def test_index_below_one_is_not_one_based(self, tmp_path, token):
        p = tmp_path / "d.libsvm"
        p.write_text(f"1 1:1\n-1 {token}\n")
        with pytest.raises(ParseError, match="1-based") as err:
            load_libsvm(p)
        assert not isinstance(err.value, NonAscendingIndexError)
        assert err.value.line == 2

    @pytest.mark.parametrize("line", ["1 1:nan 2:1", "1 1:1 2:inf", "1 2:-inf", "nan 1:1"])
    def test_non_finite_rejected(self, tmp_path, line):
        p = tmp_path / "d.libsvm"
        p.write_text(f"{line}\n-1 1:0.5\n")
        with pytest.raises(DomainError):
            load_libsvm(p)

    def test_column_major(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:0.5 3:-2\n-1 2:1\n")
        assert load_libsvm(p).A.flags.f_contiguous

    def test_n_features_override(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("2.5 1:1\n")
        ds = load_libsvm(p, n_features=4)
        assert ds.N == 4
        assert ds.b.tolist() == [2.5]  # regression labels untouched

    def test_round_trip(self, tmp_path, gen):
        A = gen.standard_normal((7, 5))
        b = gen.standard_normal(7)
        ds = Dataset(A, b)
        p = tmp_path / "rt.libsvm"
        write_libsvm(ds, p)
        back = load_libsvm(p, n_features=5)
        assert np.array_equal(back.A, ds.A)
        assert np.array_equal(back.b, ds.b)

    def test_writes_the_per_entry_format(self, tmp_path, gen):
        A = gen.standard_normal((30, 8))
        A[gen.random(A.shape) < 0.4] = 0.0
        A[0, :3] = [1e-300, 1e300, -1e300]
        A[1] = 0.0
        b = np.round(5 * gen.standard_normal(30))
        p = tmp_path / "w.libsvm"
        write_libsvm(Dataset(A, b), p)
        lines = []
        for i in range(30):
            parts = [repr(float(b[i]))]
            parts += [f"{j + 1}:{float(A[i, j])!r}" for j in np.nonzero(A[i])[0]]
            lines.append(" ".join(parts) + "\n")
        assert p.read_text() == "".join(lines)

    def test_round_trip_counts(self, tmp_path, gen):
        A = np.abs(gen.standard_normal((6, 3))) + 0.5
        b = np.array([1.0, 2, 3, 1, 5, 2])
        p = tmp_path / "rt.libsvm"
        write_libsvm(Dataset(A, b), p)
        back = load_libsvm(p)
        assert np.array_equal(back.b, b)


class TestCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,-2,1\n")
        ds = load_csv(p, label_column="last")
        assert np.allclose(ds.A, [[0.5, -2.0]])
        assert ds.b.tolist() == [1.0]

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,y\n0.5,-2,1\n1,2,0\n")
        ds = load_csv(p)
        assert ds.m == 2

    def test_label_column_index(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("9,1,2\n8,3,4\n")
        ds = load_csv(p, label_column=0)
        assert ds.b.tolist() == [9.0, 8.0]
        assert np.allclose(ds.A, [[1, 2], [3, 4]])

    def test_column_major(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("9,1,2,5\n8,3,4,6\n")
        ds = load_csv(p, label_column=1)
        assert ds.A.flags.f_contiguous
        assert np.array_equal(ds.A, [[9, 2, 5], [8, 4, 6]])
        assert ds.b.tolist() == [1.0, 3.0]

    def test_ragged(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n1,2\n")
        with pytest.raises(RaggedRows):
            load_csv(p)

    def test_non_numeric_data_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n1,x,3\n")
        with pytest.raises(ParseError):
            load_csv(p)

    @pytest.mark.parametrize("row", ["nan,2,1", "1,inf,0", "1,2,-inf", "NaN,2,1"])
    def test_non_finite_rejected(self, tmp_path, row):
        p = tmp_path / "d.csv"
        p.write_text(f"x1,x2,y\n{row}\n0.5,-2,1\n")
        with pytest.raises(DomainError):
            load_csv(p)

    def test_error_lines_are_file_lines(self, tmp_path):
        # blank lines count: a line number is the file's, header included
        p = tmp_path / "d.csv"
        p.write_text("x,y,z\n1,2,3\n\n\n1,2\n")
        with pytest.raises(RaggedRows, match="expected 3 fields, got 2") as err:
            load_csv(p)
        assert err.value.line == 5
        p.write_text("1,2,3\n\n1,x,3\n1,2\n")
        with pytest.raises(ParseError, match="non-numeric value in") as err:
            load_csv(p)
        assert err.value.line == 3

    def test_label_column_checked_before_the_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2,3\n\n1,x,3\n1,2\n")
        with pytest.raises(InvalidDimensions, match="label column 7 out of range"):
            load_csv(p, label_column=7)
        p.write_text("1,2,3\n")
        with pytest.raises(InvalidDimensions, match="label column -1 out of range"):
            load_csv(p, label_column=-1)

    @pytest.mark.parametrize("text", ["1\n2\n3\n", "y\n1\n2\n"])
    def test_featureless_rejected(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with pytest.raises(InvalidDimensions, match="no features"):
            load_csv(p)

    def test_peak_memory_is_a_few_matrices(self, tmp_path, gen):
        X = gen.standard_normal((1000, 301))
        p = tmp_path / "d.csv"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"x{j}" for j in range(301)) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in X.tolist())
        tracemalloc.start()
        try:
            ds = load_csv(p, label_column=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.A, np.delete(X, 5, axis=1)) and ds.A.flags.f_contiguous
        assert np.array_equal(ds.b, X[:, 5])
        assert peak <= 3 * ds.A.nbytes


# svd_gap_matrix writes A into U in row blocks when m >= N >= 256 and m is a
# multiple of 8: 1200 joins its 176-row remainder to the last block, 1032 its
# 8 rows; 1296 and 2040 end in a block of their own; 504 rows are one block;
# 1296 x 1000 ends in a block with fewer rows than N. The rest form the
# product whole: m is not a multiple of 8, N < 256 or m < N.
_IN_PLACE_SHAPES = [(1200, 300), (1032, 256), (1296, 300), (2040, 257), (504, 300), (1296, 1000),
                    (1300, 300), (513, 300), (300, 300), (1030, 256), (2047, 257), (600, 60),
                    (50, 400)]

_REFERENCE_PROBE = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from helpers import reference_haar_frame
from sigma_opt import RngState, SvdGapSpec, svd_gap_matrix
from sigma_opt.data import singular_value_bands
differ = []
for m, N in json.loads(sys.argv[2]):
    spec = SvdGapSpec(m=m, N=N, p=5, gap=30.0, seed=10)
    sv = singular_value_bands(spec)
    rng = RngState(10)
    U = reference_haar_frame(m, sv.shape[0], rng.child())
    V = reference_haar_frame(N, sv.shape[0], rng.child())
    reference = (V @ (U * sv).T).T
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # the frames overlap
    if not np.array_equal(svd_gap_matrix(spec, RngState(10)), reference):
        differ.append([m, N, "pinned"])
    del os.environ["OPENBLAS_NUM_THREADS"]  # one after the other; BLAS keeps one thread
    if not np.array_equal(svd_gap_matrix(spec, RngState(10)), reference):
        differ.append([m, N, "unpinned"])
print(json.dumps(differ))
"""


class TestSvdGap:
    def test_prescribed_values_small(self):
        spec = SvdGapSpec(m=6, N=4, p=2, gap=100.0, seed=0)
        assert singular_value_bands(spec).tolist() == [200.0, 100.0, 1.0, 0.1]

    def test_p_equals_N(self):
        spec = SvdGapSpec(m=6, N=4, p=4, gap=50.0, seed=0)
        sv = singular_value_bands(spec)
        assert sv.min() >= 50.0 and sv.max() <= 100.0

    def test_realized_singular_values(self):
        spec = SvdGapSpec(m=30, N=10, p=3, gap=100.0, seed=1)
        A = svd_gap_matrix(spec, RngState(1))
        realized = np.linalg.svd(A, compute_uv=False)
        prescribed = singular_value_bands(spec)
        assert np.max(np.abs(realized - prescribed) / prescribed) <= 1e-6

    def test_gram_eigenvalues_are_squares(self):
        spec = SvdGapSpec(m=20, N=6, p=2, gap=10.0, seed=2)
        A = svd_gap_matrix(spec, RngState(2))
        eig = np.sort(np.linalg.eigvalsh(A.T @ A))[::-1]
        sv2 = singular_value_bands(spec) ** 2
        assert np.max(np.abs(eig - sv2) / sv2) <= 1e-6

    def test_wide_matrix_allowed(self):
        spec = SvdGapSpec(m=5, N=12, p=3, gap=10.0, seed=3)
        A = svd_gap_matrix(spec, RngState(3))
        assert A.shape == (5, 12)
        realized = np.linalg.svd(A, compute_uv=False)
        assert realized.shape[0] == 5

    def test_orthogonal_factors(self):
        # recovered factors of A must be orthonormal: check via A^T A spectrum
        spec = SvdGapSpec(m=25, N=8, p=2, gap=100.0, seed=4)
        from sigma_opt.core import haar_frame

        rng = RngState(4)
        U = haar_frame(spec.m, 8, rng.child())
        V = haar_frame(spec.N, 8, rng.child())
        assert np.max(np.abs(U.T @ U - np.eye(8))) <= 1e-10
        assert np.max(np.abs(V.T @ V - np.eye(8))) <= 1e-10

    @pytest.mark.parametrize(("m", "N"), [(30, 10), (5, 12)])
    def test_column_major(self, m, N):
        A = svd_gap_matrix(SvdGapSpec(m=m, N=N, p=3, gap=10.0, seed=6), RngState(6))
        assert A.flags.f_contiguous

    @pytest.mark.parametrize(("m", "N"), [(120, 40), (60, 60), (20, 300)])
    def test_bits_match_reference_product(self, m, N):
        spec = SvdGapSpec(m=m, N=N, p=5, gap=30.0, seed=8)
        rng = RngState(8)
        sv = singular_value_bands(spec)
        U = reference_haar_frame(m, sv.shape[0], rng.child())
        V = reference_haar_frame(N, sv.shape[0], rng.child())
        assert np.array_equal(svd_gap_matrix(spec, RngState(8)), (V @ (U * sv).T).T)

    def test_peak_memory_is_frames_plus_matrix(self):
        # no full-size temporary: the frames U (m x k) and V (N x k) and A
        # itself, plus 1 MiB for the draw block and the LAPACK workspace
        m, N = 2000, 1000
        k = min(m, N)
        tracemalloc.start()
        try:
            svd_gap_matrix(SvdGapSpec(m=m, N=N, p=100), RngState(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (m * k + N * k + m * N) + (1 << 20)

    def test_determinism(self):
        spec = SvdGapSpec(m=10, N=5, p=2, gap=10.0, seed=5)
        assert np.array_equal(svd_gap_matrix(spec, RngState(5)), svd_gap_matrix(spec, RngState(5)))

    def test_acceptance_instance_bits(self):
        # the c09 Poisson instance and every benchmark instance are drawn
        # through RngState.child(); this digest pins their bits, with the
        # frames' QR in scipy 1.17's bundled OpenBLAS (0.3.30) and the
        # product in numpy 2.4's (0.3.31)
        A = svd_gap_matrix(SvdGapSpec(m=400, N=200, p=40, gap=100.0, seed=2), RngState(2))
        b, x_true = synth_labels(A, LabelSpec("poisson", seed=3), RngState(3))
        digest = hashlib.sha256()
        for arr in (A, b, x_true):
            digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == (
            "1ffc77577e9f0166e254639cad7d0e5025f822de606dbc0c5a66109fb33d86bc")

    @pytest.mark.parametrize(("m", "N"), [(1200, 300), (250, 600), (50, 400)])
    def test_overlapped_frames_keep_bits(self, m, N, monkeypatch):
        # at one BLAS thread and k >= 200, U is factored on a helper thread
        # while V is factored here; U of the tall spec spans three 1 MiB draw
        # blocks; k = 50 stays serial
        spec = SvdGapSpec(m=m, N=N, p=5, gap=30.0, seed=9)
        arrays = []
        for pinned in (True, False):
            if pinned:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
            else:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            rng, threads = RngState(9), threading.active_count()
            arrays.append(svd_gap_matrix(spec, rng))
            assert rng.stream == 2
            assert threading.active_count() == threads
        assert np.array_equal(arrays[0], arrays[1])

    def test_pinned_blas_overlaps_the_frames(self, monkeypatch):
        # U's factorization is still running when V's starts
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        v_started, u_saw_v = threading.Event(), []

        def frame(nrows, ncols, gen):
            if nrows == 300:  # U
                u_saw_v.append(v_started.wait(timeout=30))
            else:
                v_started.set()
            return haar_frame(nrows, ncols, gen)

        monkeypatch.setattr(data, "haar_frame", frame)
        svd_gap_matrix(SvdGapSpec(m=300, N=200, p=5), RngState(0))
        assert u_saw_v == [True]

    def test_overlapped_peak_memory_is_frames_plus_matrix(self, monkeypatch):
        # the bound of test_peak_memory_is_frames_plus_matrix holds with both
        # frames' draw blocks and workspaces live at once
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        m, N = 2000, 1000
        k = min(m, N)
        tracemalloc.start()
        try:
            svd_gap_matrix(SvdGapSpec(m=m, N=N, p=100), RngState(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (m * k + N * k + m * N) + (1 << 20)

    @pytest.mark.parametrize(("m", "N"), _IN_PLACE_SHAPES)
    def test_in_place_product_keeps_bits(self, m, N, monkeypatch):
        # the row blocks give the bits of the whole product of the same
        # frames, at this process's BLAS thread count, on both sides of the
        # frames' overlap switch
        spec = SvdGapSpec(m=m, N=N, p=5, gap=30.0, seed=10)
        sv = singular_value_bands(spec)
        rng = RngState(10)
        U = haar_frame(m, sv.shape[0], rng.child())
        V = haar_frame(N, sv.shape[0], rng.child())
        U *= sv
        whole = (V @ U.T).T
        for pinned in (True, False):
            if pinned:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
            else:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            A = svd_gap_matrix(spec, RngState(10))
            assert A.flags.f_contiguous
            assert np.array_equal(A, whole)

    def test_in_place_product_matches_reference_frames(self):
        # at one BLAS thread the frames are numpy's QR of the same draws (at
        # two threads the QR's own bits differ), so A is the reference product
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        res = subprocess.run([sys.executable, "-c", _REFERENCE_PROBE, str(Path(__file__).parent),
                              json.dumps(_IN_PLACE_SHAPES)], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == []

    def test_row_blocks(self):
        assert list(data._row_blocks(1200)) == [(0, 512), (512, 1200)]
        assert list(data._row_blocks(1296)) == [(0, 512), (512, 1024), (1024, 1296)]
        assert list(data._row_blocks(1032)) == [(0, 512), (512, 1032)]
        assert list(data._row_blocks(504)) == [(0, 504)]

    @pytest.mark.parametrize("pinned", [True, False])
    def test_peak_memory_is_frames_plus_one_block(self, pinned, monkeypatch):
        # A is written into U: the frames U (m x k) and V (N x k), one block
        # of at most 767 rows of the product and 1 MiB for the draw block and
        # the LAPACK workspace
        if pinned:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        else:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        m, N = 2000, 1000
        k = min(m, N)
        tracemalloc.start()
        try:
            svd_gap_matrix(SvdGapSpec(m=m, N=N, p=100), RngState(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (m * k + N * k) + 8 * N * 767 + (1 << 20)

    def test_validation(self):
        with pytest.raises(InvalidDimensions):
            SvdGapSpec(m=5, N=5, p=6)
        with pytest.raises(DomainError):
            SvdGapSpec(m=5, N=5, p=2, gap=1.0)


class TestSynthLabels:
    def test_gaussian_noiseless_recovery(self, gen):
        A = gen.standard_normal((30, 8))
        b, x_true = synth_labels(A, LabelSpec("gaussian", sigma_noise=0.0, seed=1), RngState(1))
        assert np.allclose(b, A @ x_true)
        x_hat = np.linalg.solve(A.T @ A, A.T @ b)
        assert np.allclose(x_hat, x_true, atol=1e-8)

    def test_poisson_counts_valid(self, gen):
        A = np.abs(gen.standard_normal((25, 6))) + 0.1
        b, x_true = synth_labels(A, LabelSpec("poisson", seed=2), RngState(2))
        assert np.all(b >= 1)
        assert np.all(b == np.floor(b))
        assert (A @ x_true).min() > 0

    def test_poisson_infeasible_raises(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])  # margins cannot both be positive
        with pytest.raises(InfeasibleSynthesis):
            synth_labels(A, LabelSpec("poisson", seed=3), RngState(3))

    def test_logistic_signs(self, gen):
        A = gen.standard_normal((40, 5))
        b, x_true = synth_labels(A, LabelSpec("logistic", sigma_noise=0.1, seed=4), RngState(4))
        assert set(np.unique(b)) <= {-1.0, 1.0}

    def test_determinism(self, gen):
        A = gen.standard_normal((15, 4))
        b1, x1 = synth_labels(A, LabelSpec("gaussian", sigma_noise=0.5, seed=6), RngState(6))
        b2, x2 = synth_labels(A, LabelSpec("gaussian", sigma_noise=0.5, seed=6), RngState(6))
        assert np.array_equal(b1, b2) and np.array_equal(x1, x2)


def _one_lstsq_per_try(A, gen, tries):
    """The search with an exact least-squares solve on every try: the
    reference for the screened search in ``objectives._positive_margin_vector``,
    rescaled as it rescales."""
    m = A.shape[0]
    u = np.ones(m)
    for _ in range(tries):
        x, *_ = np.linalg.lstsq(A, u, rcond=None)
        if float((A @ x).min()) > 0:
            break
        u = 1.0 + np.abs(gen.standard_normal(m))
    else:
        x = objectives._max_min_margin(A)
        if x is None:
            return None
    return x * (objectives._MEAN_MARGIN / float((A @ x).mean()))


def _gap_draw(m, N, p, seed):
    """A spectral-gap matrix and the generator ``synth_labels`` draws its
    Poisson targets from, with label seed = data seed + 1."""
    A = svd_gap_matrix(SvdGapSpec(m=m, N=N, p=p, gap=100.0, seed=seed), RngState(seed))
    return A, lambda: RngState(seed + 1).child()


def _duplicated_columns():
    B = np.random.default_rng(9).standard_normal((60, 10))
    return np.hstack([B, B[:, :3]]), lambda: RngState(1).child()


def _ambiguous_rank():
    # the smallest singular value is 1.5x gelsd's cutoff 40 eps, so rounding
    # could put it on either side: no try is screened
    Q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((40, 5)))
    A = Q * np.array([1.0, 1.0, 1.0, 1.0, 60 * np.finfo(np.float64).eps])
    return A, lambda: RngState(1).child()


def _positive_poisson_features():
    model, _ = positive_poisson_instance()
    return model.dataset.A, lambda: RngState(78).child()


MARGIN_CASES = {
    "c09": lambda: _gap_draw(400, 200, 40, 2),  # every try fails; the LP decides
    "gap-seed-8": lambda: _gap_draw(400, 200, 40, 8),
    "gap-seed-11": lambda: _gap_draw(400, 200, 40, 11),
    "normal-24x20": lambda: (np.random.default_rng(4).standard_normal((24, 20)),
                             lambda: RngState(5).child()),  # accepted on try 14
    "normal-13x10": lambda: (np.random.default_rng(4).standard_normal((13, 10)),
                             lambda: RngState(5).child()),  # accepted on try 26
    "wide-30x60": lambda: _gap_draw(30, 60, 5, 3),  # accepted on try 0
    "positive-features": _positive_poisson_features,
    "duplicated-columns": _duplicated_columns,  # rank-deficient
    "infeasible": lambda: (np.array([[1.0, 0.0], [-1.0, 0.0]]), lambda: RngState(3).child()),
    "zero-matrix": lambda: (np.zeros((5, 3)), lambda: RngState(3).child()),  # rank 0
    "ambiguous-rank": _ambiguous_rank,
}


class TestPositiveMarginSearch:
    @pytest.mark.parametrize("case", MARGIN_CASES)
    def test_same_bits_and_generator_state_as_one_lstsq_per_try(self, case):
        A, make_gen = MARGIN_CASES[case]()
        gen_ref, gen = make_gen(), make_gen()
        want = _one_lstsq_per_try(A, gen_ref, 100)
        got = objectives._positive_margin_vector(A, gen, 100)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.tobytes() == want.tobytes()
        assert gen.bit_generator.state == gen_ref.bit_generator.state

    def test_acceptance_draw_factors_a_once(self, monkeypatch):
        calls = []

        def counted(*args, _orig=np.linalg.lstsq, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        A, _ = _gap_draw(400, 200, 40, 2)
        synth_labels(A, LabelSpec("poisson", seed=3), RngState(3))
        assert len(calls) <= 2


class TestStandardize:
    def test_hand_column(self):
        ds = Dataset(np.array([[0.0], [2.0]]), np.zeros(2))
        out = standardize(ds)
        assert np.allclose(out.A, [[-1.0], [1.0]])  # population std (divisor m)

    def test_idempotent(self, gen):
        ds = Dataset(gen.standard_normal((50, 4)), np.zeros(50))
        once = standardize(ds)
        twice = standardize(once)
        assert np.max(np.abs(once.A - twice.A)) <= 1e-12

    def test_constant_column_centered_only(self):
        A = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
        out = standardize(Dataset(A, np.zeros(3)))
        assert np.array_equal(out.A[:, 0], np.zeros(3))  # (3 - 3) / 1, not / ~0

    def test_column_moments_labels_and_input_kept(self, gen):
        A = 3.0 + 2.0 * gen.standard_normal((20, 3))
        ds = Dataset(A, gen.standard_normal(20))
        before = ds.A.copy()
        out = standardize(ds)
        assert np.allclose(out.A.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.A.std(axis=0), 1.0, atol=1e-12)
        assert np.array_equal(out.b, ds.b)
        assert np.array_equal(ds.A, before)

    def test_needs_two_rows(self):
        with pytest.raises(InvalidDimensions):
            standardize(Dataset(np.ones((1, 2)), np.zeros(1)))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bits_match_reference_expression(self, order, gen):
        A = np.asarray(3.0 + 2.0 * gen.standard_normal((40, 5)), order=order)
        A[:, 2] = 7.25  # std < 1e-12: centred, not scaled
        ds = Dataset(A, np.zeros(40))
        mean, std = A.mean(axis=0), A.std(axis=0)
        out = standardize(ds).A
        assert np.array_equal(out, (A - mean) / np.where(std < 1e-12, 1.0, std))
        assert out.flags.c_contiguous if order == "C" else out.flags.f_contiguous

    def test_peak_memory_is_one_matrix(self, gen):
        ds = Dataset(np.asfortranarray(gen.standard_normal((2000, 300))), np.zeros(2000))
        tracemalloc.start()
        try:
            standardize(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ds.A.nbytes + (1 << 20)


def test_synthetic_poisson_pipeline_builds_model(gen):
    # m must not be much larger than N or the Haar column span misses the
    # positive orthant entirely and synthesis (correctly) fails
    spec = SvdGapSpec(m=12, N=8, p=2, gap=10.0, seed=7)
    A = svd_gap_matrix(spec, RngState(7))
    b, x_true = synth_labels(A, LabelSpec("poisson", seed=8), RngState(8))
    model = make_objective("poisson", Dataset(A, b))
    assert model.predict(x_true).min() > 0


def _load_outcome(path, n_features=None):
    """A loaded file's exact bits, or the exception's type, message and line."""
    try:
        ds = load_libsvm(path, n_features)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return ds.A.tobytes(), ds.b.tobytes(), ds.A.shape, ds.A.flags.f_contiguous


def _assert_same_as_token_path(path, n_features=None):
    """``load_libsvm`` decides the file as the token parser on its own does."""
    both = _load_outcome(path, n_features)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_libsvm_fast", lambda _path: 1)
        assert both == _load_outcome(path, n_features)


class TestLibsvmPaths:
    """The canonical fast path against the reference token parser."""

    @pytest.mark.parametrize("text", [
        b"1 1:2\t3:4\n", b"1 1:2\x0b3:4\n", b"1 1:2\x0c3:4\n", b"1 1:2\r3:4\n",
        b"1 1:2\t3 :5\n",  # a tab is a separator too: three tokens, one without ':'
        b"1 1:2\t3:4\n1 1:2\t3 :5\n",  # a line that is not canonical after another
        b"1  1:2\n", b"1 1:2  3:4\n", b"1 1.0:2\n", b"1 1e2:2\n", b"1 +1:2\n", b"1 01:2\n",
        b"1 1_0:2\n", b"1 1:1_0\n", b"1_0 1:2\n", b"+1 1:2\n-1 2:3\n", b"1 1:2:3 4\n",
        b"1 :2\n", b"1 1 :2\n", b"1 1:\n", b"1 1: 2:3\n", b"1 1::2\n", b"1 1:nan(1)\n",
        b"1 inf:1\n", b"inf 1:1\n", b"1 1:1e400\n", b"1 1:1e-400\n", b"1 1:4.9e-324\n",
        b"-0 1:-0.0\n", b"1 1:.5 2:5.\n", b"1 0x1:2\n", b"1 1:0x10\n",
        "1 ١:3\n".encode(), "1 1:١\n".encode(), b"1 1:2\xff\n",
        b"1 1:2\r\n-1 2:3\r\n", b"1 1:1\r\r\n", b"\r1 1:1\n", b"# c\n1 1:2\n\n\n-1 2:1\n",
        b"#a\rb\n1 1:2\n", b"#\xff\n1 1:2\n", b"#\t\n1 1:2\n", b"1 1:2 # c\n", b"  1 1:2 \n",
        b"1 1:2\x00\n", b"1 1:2\x1c\n", b"1 1:2\x1f3:4\n", b"1 1:2\x7f\n", b"\xef\xbb\xbf1 1:2\n",
        b"1 2:1 1:1\n", b"1 1:1 1:2\n", b"1 0:1\n",
        b"1 1:2 3\n", b"1 a:b\n", b"1\n0\n", b"1\n", b"", b"\n\n", b"# only\n",
    ])
    def test_corpus(self, tmp_path, text):
        p = tmp_path / "d.libsvm"
        p.write_bytes(text)
        _assert_same_as_token_path(p)

    @pytest.mark.parametrize("index", [2**31 - 1, 2**31, 2**53 + 1])
    def test_large_index(self, tmp_path, index):
        # n_features keeps N small; a float index above 2^53 would read as 2^53
        p = tmp_path / "d.libsvm"
        p.write_text(f"1 1:2 {index}:3\n")
        _assert_same_as_token_path(p, n_features=3)

    @pytest.mark.parametrize("sep", [" ", "\t"])  # a canonical line, and one that is not
    def test_index_beyond_int64_is_a_parse_error(self, tmp_path, sep):
        p = tmp_path / "d.libsvm"
        p.write_text(f"1 1:2\n-1 1:2{sep}{2**63}:3\n")
        with pytest.raises(ParseError, match="int64") as err:
            load_libsvm(p, n_features=3)
        assert err.value.line == 2
        _assert_same_as_token_path(p, n_features=3)
        p.write_text(f"1 1:2\n-1 1:2{sep}{2**63 - 1}:3\n")
        with pytest.raises(InvalidDimensions, match="n_features=3"):
            load_libsvm(p, n_features=3)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["1", "-1", "0", "2.5", "3"]),
                              st.lists(st.integers(1, 12), max_size=5, unique=True),
                              st.lists(st.sampled_from(["1", "-2.5", "0.125", "1e-3", "7"]),
                                       min_size=5, max_size=5)),
                    min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 200), st.integers(0, 2),
                              st.sampled_from(list(" \t\x0b\x0c\r\n\x1c\x00:.eE+-_#0129anfx")
                                              + ["١", "\u0085", "  ", "::", "inf"])),
                    max_size=3),
           st.sampled_from(["\n", "\r\n"]))
    def test_mutated_canonical_lines(self, rows, edits, end):
        lines = [" ".join([label] + [f"{j}:{v}" for j, v in zip(sorted(idx), vals)])
                 for label, idx, vals in rows]
        for k, pos, op, s in edits:
            line = lines[k % len(lines)]
            pos %= len(line) + 1
            cut = pos + 1 if op else pos  # insert, or replace / delete one character
            lines[k % len(lines)] = line[:pos] + ("" if op == 2 else s) + line[cut:]
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "d.libsvm"
            p.write_bytes((end.join(lines) + end).encode())
            _assert_same_as_token_path(p)

    def test_written_file_takes_the_fast_path(self, tmp_path, gen, monkeypatch):
        A = gen.standard_normal((40, 9)) * 10.0 ** gen.integers(-300, 300, (40, 9))
        A[gen.random((40, 9)) < 0.3] = 0.0
        A[3] = 0.0  # a row without features
        ds = Dataset(A, gen.integers(0, 2, 40).astype(float))
        p = tmp_path / "w.libsvm"
        write_libsvm(ds, p)

        def fail(path):
            raise AssertionError("the token parser ran")

        monkeypatch.setattr(data, "_libsvm_tokens", fail)
        back = load_libsvm(p, n_features=9)
        assert np.array_equal(back.A, ds.A)
        assert np.array_equal(back.b, ds.b)

    def test_fallback_logs_the_line(self, tmp_path, caplog):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:1\n# c\n1\t2:1\n")
        with caplog.at_level(logging.DEBUG, logger="sigma_opt.data"):
            ds = load_libsvm(p)
        assert ds.A.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert "line 3 is not canonical" in caplog.text

    @pytest.mark.parametrize("text, n_features", [
        ("1\n0\n", None), ("1\n", 0), ("1\n", -2), ("1 1:1\n", 0), ("# c\n2.5\n", None),
    ])
    def test_featureless_rejected(self, tmp_path, text, n_features):
        p = tmp_path / "d.libsvm"
        p.write_text(text)
        with pytest.raises(InvalidDimensions, match="no features"):
            load_libsvm(p, n_features=n_features)


class TestLibsvmPathsInChunks(TestLibsvmPaths):
    """The same cases with every line its own chunk, and with chunks of a few lines."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 16])
    def chunk_bytes(self, request):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_PARSE_CHUNK_BYTES", request.param)
            yield request.param


class TestLibsvmChunks:
    """Chunked parsing: the first line that is not canonical, and the memory bound."""

    @pytest.mark.parametrize("bad, later, error, line", [
        ("1 1:0.5\t2:1.5", "1 2:1 1:1", NonAscendingIndexError, 23),  # its bytes
        ("1 2:1.5 1:0.5", "1 1:0.5\t2:1.5", NonAscendingIndexError, 21),  # a falling index
        ("1 1:0.5 2:1.5.5", "1 2:1 1:1", ParseError, 21),  # a field numpy cannot read
    ])
    def test_first_bad_line_in_a_later_chunk(self, tmp_path, monkeypatch, caplog, bad, later,
                                             error, line):
        lines = ["1 1:0.5 2:1.5"] * 30
        lines[2], lines[6] = "# c", ""
        lines[20], lines[22] = bad, later  # lines 21 and 23, in a later chunk
        p = tmp_path / "d.libsvm"
        p.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(data, "_PARSE_CHUNK_BYTES", 64)
        with caplog.at_level(logging.DEBUG, logger="sigma_opt.data"):
            with pytest.raises(error) as err:
                load_libsvm(p)
        assert "line 21 is not canonical" in caplog.text
        assert err.value.line == line
        _assert_same_as_token_path(p)

    @pytest.mark.parametrize("bad", ["1 1:0.5 2:x", "1 1: 2:1.5", "1 2:0.5 2:1.5", "1 0:0.5"])
    @pytest.mark.parametrize("where", [0, 1, 98, 198, 199])
    def test_first_bad_line_within_a_chunk(self, tmp_path, caplog, bad, where):
        # one chunk of 200 lines; the failing line is found by bisecting it
        lines = ["1 1:0.5 2:1.5"] * 200
        lines[where] = bad
        lines[-1] = "1 1:0.5 2:x"
        p = tmp_path / "d.libsvm"
        p.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.DEBUG, logger="sigma_opt.data"):
            _load_outcome(p)
        assert f"line {where + 1} is not canonical" in caplog.text
        _assert_same_as_token_path(p)

    def test_only_the_failing_chunk_is_read_token_by_token(self, tmp_path, monkeypatch):
        lines = ["1 1:0.5 2:1.5"] * 30
        lines[14] = "-1 1:0.25\t3:2"  # line 15, the only line that is not canonical
        p = tmp_path / "d.libsvm"
        p.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(data, "_PARSE_CHUNK_BYTES", 64)
        seen = []

        def tokens(chunk, _orig=data._libsvm_tokens):
            seen.append(list(chunk[1]))
            return _orig(chunk)

        monkeypatch.setattr(data, "_libsvm_tokens", tokens)
        ds = load_libsvm(p)
        # a chunk ends before the line, which heads the next chunk of 64 bytes
        assert seen == [[15, 16, 17, 18, 19]]
        assert ds.A.shape == (30, 3) and ds.A[14].tolist() == [0.25, 0.0, 2.0]
        _assert_same_as_token_path(p)

    def test_parse_error_before_a_later_undecodable_byte(self, tmp_path):
        # text-mode reading decodes ahead of the parser: the bad line 2 still comes first
        p = tmp_path / "d.libsvm"
        body = b"1 1:0.5 2:1.5\n" * 2000 + b"1 1:\xff\n"
        p.write_bytes(b"1 1:1\n1 1:x\n" + body)
        with pytest.raises(ParseError, match="bad feature token") as err:
            load_libsvm(p)
        assert err.value.line == 2
        _assert_same_as_token_path(p)
        p.write_bytes(b"1 1:1\n" + body)
        with pytest.raises(UnicodeDecodeError):
            load_libsvm(p)

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_bytes(b"1 1:1\r\r\n1 1:x\n")
        with pytest.raises(ParseError) as err:
            load_libsvm(p)
        assert err.value.line == 3

    def test_peak_memory_is_a_few_matrices(self, tmp_path, gen):
        A = np.asfortranarray(gen.standard_normal((1000, 300)))
        b = gen.integers(0, 2, 1000).astype(float)
        p = tmp_path / "d.libsvm"
        write_libsvm(Dataset(A, b), p)
        tracemalloc.start()
        try:
            ds = load_libsvm(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.A, A) and np.array_equal(ds.b, b)
        assert peak <= 3.5 * A.nbytes

    def test_token_parser_peak_memory_is_a_few_matrices(self, tmp_path, gen):
        A = np.asfortranarray(gen.standard_normal((1000, 300)))
        b = gen.integers(0, 2, 1000).astype(float)
        p = tmp_path / "d.libsvm"
        write_libsvm(Dataset(A, b), p)
        lines = p.read_text().splitlines(keepends=True)
        lines[-1] = lines[-1].replace(" ", "\t", 1)  # not canonical: the token parser reads it
        p.write_text("".join(lines))
        tracemalloc.start()
        try:
            ds = load_libsvm(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.A, A) and np.array_equal(ds.b, b)
        assert peak <= 3.5 * A.nbytes
