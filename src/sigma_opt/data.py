"""Dataset ingestion (libsvm, CSV), standardization, and synthetic generation.

Every loader and the generator return ``A`` column-major (Fortran order): the
solver gathers sampled columns ``A[:, S]`` every iteration, which is then a
copy of contiguous columns.

The synthetic generator builds ``A = U S V^T`` from Haar-orthogonal factors
with evenly spaced singular values split in two bands around a configurable
gap, so the position ``p`` of the spectral gap is a single knob. Labels are
synthesized per model family from a hidden ground-truth weight vector.
"""

import csv as _csv
import logging
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import haar_frame
from .errors import (
    DomainError,
    InfeasibleSynthesis,
    InvalidDimensions,
    NoFeasibleStart,
    NonAscendingIndexError,
    ParseError,
    RaggedRows,
)
from .objectives import GAUSSIAN, KINDS, POISSON, Dataset
from .rng import RngState

logger = logging.getLogger(__name__)
_MEAN_MARGIN = 5.0  # positive-margin points are rescaled to this mean margin
_OVERLAP_MIN_K = 200  # svd_gap_matrix factors its frames concurrently from this k on


@dataclass(frozen=True)
class SvdGapSpec:
    """Shape and spectrum of the synthetic matrix.

    The top ``p`` singular values are evenly spaced in ``[gap, 2 gap]`` and the
    remaining ones in ``[0.1, 1]``, both descending, so the ``p``-th/-(p+1)-th
    ratio is about ``gap``. ``m < N`` is allowed (the spectrum then has
    ``min(m, N)`` values).
    """

    m: int
    N: int
    p: int
    gap: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.N < 1:
            raise InvalidDimensions(f"m and N must be positive, got {self.m}, {self.N}")
        if not 1 <= self.p <= self.N:
            raise InvalidDimensions(f"p must be in [1, N], got {self.p}")
        if not self.gap > 1:
            raise DomainError(f"gap must exceed 1, got {self.gap}")


@dataclass(frozen=True)
class LabelSpec:
    """How to synthesize responses from a hidden weight vector."""

    kind: str
    sigma_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"label kind must be one of {KINDS}")
        if self.sigma_noise < 0:
            raise DomainError("sigma_noise must be nonnegative")


def singular_value_bands(spec: SvdGapSpec) -> np.ndarray:
    k = min(spec.m, spec.N)
    top = min(spec.p, k)
    upper = np.linspace(2.0 * spec.gap, spec.gap, top)
    lower = np.linspace(1.0, 0.1, k - top) if k > top else np.empty(0)
    return np.concatenate([upper, lower])


def svd_gap_matrix(spec: SvdGapSpec, rng: RngState) -> np.ndarray:
    """Draw ``A = U S V^T`` with Haar-orthogonal thin frames ``U`` and ``V``.

    Only the first ``k = min(m, N)`` columns of the orthogonal factors are
    generated; the distribution of ``A`` is unchanged and the cost drops from
    O(m^3) to O(m k^2). The frames are built in place (:func:`haar_frame`),
    ``U`` is scaled by ``S`` in place, and ``A`` is returned column-major
    (Fortran order), the transpose of the row-major product ``V (U S)^T``, so
    no full-size temporary is made: the peak is about ``U + V + A``, i.e.
    ``8 (m k + N k + m N)`` bytes.

    When ``OPENBLAS_NUM_THREADS`` is ``"1"`` (read at call time) and ``k`` is
    at least 200, ``U`` is factored on one helper thread while this thread
    factors ``V``. Otherwise the two run one after the other: two callers of
    a multi-threaded BLAS contend for its thread pool, and for smaller ``k``
    starting the thread costs more than the overlap saves (at 1 BLAS thread,
    about 0.2-0.5 ms lost at 300 x 150 and 50 x 2000, 0.5 ms gained at
    400 x 200). Both generators are drawn here, in the same order, before
    the helper starts (:class:`RngState` is not thread-safe), and each frame
    is still one QR of its own stream, so the overlap does not change the
    bits of ``A``.
    """
    sv = singular_value_bands(spec)
    k = sv.shape[0]
    gen_u, gen_v = rng.child(), rng.child()
    if k < _OVERLAP_MIN_K or os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        U = haar_frame(spec.m, k, gen_u)
        V = haar_frame(spec.N, k, gen_v)
    else:
        with ThreadPoolExecutor(1) as pool:
            u_job = pool.submit(haar_frame, spec.m, k, gen_u)
            V = haar_frame(spec.N, k, gen_v)
            U = u_job.result()
    U *= sv
    return (V @ U.T).T


def synth_labels(A: np.ndarray, spec: LabelSpec, rng: RngState) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize responses; returns ``(b, x_true)``.

    * gaussian: ``b = A x_true + sigma_noise * eps``.
    * poisson: ``x_true`` is searched (least squares against positive targets,
      up to 100 tries sharing one factorization of ``A``, then an LP) so all
      margins are positive, then ``b_i = max(1, Poisson(a_i^T x_true))``.
    * logistic: ``b_i = sign(a_i^T x_true + sigma_noise * eps)`` in {-1, +1}.
    """
    A = np.asarray(A, dtype=np.float64)
    m, N = A.shape
    gen = rng.child()
    if spec.kind != POISSON:
        x_true = gen.standard_normal(N)
        s = A @ x_true
        if spec.sigma_noise > 0:
            s = s + spec.sigma_noise * gen.standard_normal(m)
        return (s if spec.kind == GAUSSIAN else np.where(s >= 0, 1.0, -1.0)), x_true
    # poisson counts: need strictly positive margins for the rate vector
    x_true = _positive_margin_vector(A, gen, tries=100)
    if x_true is None:
        raise InfeasibleSynthesis("no ground-truth vector with positive margins found")
    x_true = x_true * (_MEAN_MARGIN / float((A @ x_true).mean()))
    rates = A @ x_true
    b = np.maximum(1, gen.poisson(rates)).astype(np.float64)
    return b, x_true


def positive_margin_start(dataset: Dataset) -> np.ndarray:
    """Search for ``x`` with ``A x`` entrywise positive, rescaled so the margins
    average 5 (``_MEAN_MARGIN``).

    Tries least squares against up to 20 positive targets (all ones, then
    draws from seed 0), then decides the feasibility cone exactly with an LP.
    Complements :func:`~sigma_opt.objectives.feasible_start` when the
    all-ones heuristic fails, e.g. for Haar-random matrices whose row sums
    have mixed signs.
    """
    x = _positive_margin_vector(dataset.A, np.random.default_rng(0), tries=20)
    if x is None:
        raise NoFeasibleStart("the domain {x : A x > 0} is empty or numerically so")
    return x * (_MEAN_MARGIN / float((dataset.A @ x).mean()))


def _max_min_margin(A: np.ndarray) -> np.ndarray | None:
    """LP for the most-interior ray of the cone {x : A x > 0}.

    Maximizes the smallest margin subject to a fixed margin sum, which keeps
    the synthesized Poisson rates on one scale instead of spanning orders of
    magnitude.
    """
    import scipy.optimize

    m, N = A.shape
    # variables (x, s): max s  s.t.  A x >= s, sum(A x) = m
    c = np.zeros(N + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-A, np.ones((m, 1))])
    A_eq = np.hstack([A.sum(axis=0, keepdims=True), np.zeros((1, 1))])
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=np.zeros(m), A_eq=A_eq, b_eq=np.array([float(m)]),
        bounds=[(None, None)] * N + [(0.0, None)], method="highs",
    )
    if res.status != 0 or res.x is None:
        return None
    x = res.x[:-1]
    return x if float((A @ x).min()) > 0 else None


def _positive_margin_vector(A: np.ndarray, gen: np.random.Generator, tries: int) -> np.ndarray | None:
    """Search for ``x`` with ``A x`` entrywise positive.

    Least squares against positive targets works when the column span is wide
    (m <= N); otherwise the feasibility cone is thin and an exact LP decides
    it, returning the most-interior direction so the margins stay comparable.

    The first target is all ones. If it fails, one thin SVD of ``A`` gives the
    range ``lstsq`` projects onto, and a later target ``u`` whose projection
    ``P u`` has a clearly negative entry skips its exact solve, which could
    not succeed. Every try still draws its target, so the result and ``gen``'s
    state are those of one ``lstsq`` per try.
    """
    m = A.shape[0]
    u = np.ones(m)
    basis = None  # of the range lstsq fits A x in, once the first try has failed
    for k in range(tries):
        if k == 1:
            basis, tol = _lstsq_range(A)
        if basis is None or (basis @ (basis.T @ u)).min() >= -tol * np.linalg.norm(u):
            x, *_ = np.linalg.lstsq(A, u, rcond=None)
            if float((A @ x).min()) > 0:
                return x
        u = 1.0 + np.abs(gen.standard_normal(m))
    return _max_min_margin(A)


def _lstsq_range(A: np.ndarray) -> tuple[np.ndarray | None, float]:
    """``(U_r, tol)``: the left singular vectors of ``A`` above gelsd's cutoff
    ``eps * max(m, N) * s_max``, which span the range ``lstsq(A, u,
    rcond=None)`` fits ``A x`` in, and a bound on ``|A x - U_r U_r^T u| /
    ||u||``, 1e4 times its rounding scale ``eps * s_max / s_r`` (on 400x200
    draws the gap is about 4e-14, ``tol`` 4e-9). ``U_r`` is None when a
    singular value lies within 2x of the cutoff, on either side of which
    rounding could put it."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    eps = np.finfo(np.float64).eps
    cutoff = eps * max(A.shape) * s[0]
    r = int(np.count_nonzero(s > cutoff))
    if r == 0 or np.any((s > cutoff / 2) & (s < 2 * cutoff)):
        return None, 0.0
    return U[:, :r], 1e4 * eps * s[0] / s[r - 1]


def standardize(ds: Dataset) -> Dataset:
    """Shift/scale each feature column to mean 0 and population std 1.

    Columns with std below 1e-12 are centered but not scaled.
    """
    if ds.m < 2:
        raise InvalidDimensions("standardize needs at least 2 rows")
    mean = ds.A.mean(axis=0)
    std = ds.A.std(axis=0)  # population convention (divisor m)
    scale = np.where(std < 1e-12, 1.0, std)
    return Dataset((ds.A - mean) / scale, ds.b)


# ---------------------------------------------------------------------------
# file formats


def load_libsvm(path, n_features: int | None = None) -> Dataset:
    """Parse the libsvm text format (``label idx:val ...``, 1-based ascending
    indices) into a dense, column-major dataset.

    The feature count is inferred from the largest index unless overridden;
    it must be positive. Labels are kept as written: only
    :func:`~sigma_opt.objectives.make_objective` interprets them.
    """
    parsed = _libsvm_fast(path)
    if isinstance(parsed, int):
        logger.debug("%s: line %d is not canonical; parsing token by token", path, parsed)
    labels, rows, idx, vals = _libsvm_tokens(path) if isinstance(parsed, int) else parsed
    if not labels.size:
        raise ParseError(f"{path}: no data lines")
    max_idx = int(idx.max(initial=0))
    N = n_features if n_features is not None else max_idx
    if N < 1:
        raise InvalidDimensions(f"{path}: no features (N = {N})")
    if max_idx > N:
        raise InvalidDimensions(f"file has index {max_idx} but n_features={N}")
    A = np.zeros((labels.size, N), order="F")
    A[rows, idx - 1] = vals
    return Dataset(A, labels)


def _libsvm_fast(path):
    """``(labels, rows, idx, vals)`` by one ``np.fromstring`` per canonical line
    (README, "libsvm input"), or the number of the first line that is not."""
    entries = {}  # line number -> its numbers
    to_nul = bytes.maketrans(bytes(range(32)) + b"\x7f(", bytes(34))  # controls, "(" of nan(...)
    with open(path, "rb") as fh, warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2.3: else a short array
        for lineno, line in enumerate(map(bytes.strip, fh), start=1):
            if line[:1] in (b"", b"#") and line.isascii() and b"\r" not in line:
                continue
            rest, nnz = line.translate(to_nul, b"0123456789"), line.count(b":")
            try:
                nums = np.fromstring(line.replace(b":", b" "), sep=" ")
            except (ValueError, DeprecationWarning):
                return lineno
            if (not line.isascii() or b"\0" in rest or rest.count(b" ") != nnz
                    or rest.count(b" :") != nnz or nums.size != 1 + 2 * nnz):
                return lineno
            entries[lineno] = nums
    labels = np.array([e[0] for e in entries.values()], dtype=np.float64)
    rows = np.repeat(np.arange(labels.size), [e.size // 2 for e in entries.values()])
    idx, vals = np.concatenate([np.empty(0), *(e[1:] for e in entries.values())]).reshape(-1, 2).T
    bad = (idx < 1) | (idx >= 2**31)  # in range, so exact, and rising within each row
    bad[1:] |= (idx[1:] <= idx[:-1]) & (rows[1:] == rows[:-1])
    if bad.any():
        return list(entries)[rows[bad.argmax()]]
    return labels, rows, idx.astype(np.int64), vals


def _libsvm_tokens(path):
    """The reference parser, token by token, raising each parse error with its line."""
    labels, entries = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            try:
                labels.append(float(tokens[0]))
            except ValueError as exc:
                raise ParseError(f"bad label {tokens[0]!r}", line=lineno) from exc
            prev = 0
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise ParseError(f"bad feature token {tok!r}", line=lineno) from exc
                if idx < 1:
                    raise ParseError(f"indices are 1-based, got {idx}", line=lineno)
                if idx >= 2**63:
                    raise ParseError(f"index {idx} does not fit in int64", line=lineno)
                if idx <= prev:
                    raise NonAscendingIndexError(f"index {idx} not ascending (previous {prev})",
                                                 line=lineno)
                prev = idx
                entries.append((len(labels) - 1, idx, val))
    e = np.array(entries, dtype=[("row", np.int64), ("idx", np.int64), ("val", np.float64)])
    return np.array(labels, dtype=np.float64), e["row"], e["idx"], e["val"]


def write_libsvm(ds: Dataset, path) -> None:
    """Write a dataset in libsvm format (zero entries are omitted)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(ds.m):
            parts = [_fmt(ds.b[i])]
            row = ds.A[i]
            for j in np.nonzero(row)[0]:
                parts.append(f"{j + 1}:{_fmt(row[j])}")
            fh.write(" ".join(parts) + "\n")


def _fmt(v: float) -> str:
    return repr(float(v))


def load_csv(path, label_column="last") -> Dataset:
    """Rectangular numeric CSV with an optional header row.

    ``label_column`` is a 0-based column index or ``"last"``. The header is
    auto-detected: a first row with any non-numeric cell is skipped. ``A`` is
    column-major.
    """
    raw: list[list[str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for rec in _csv.reader(fh):
            if rec:
                raw.append(rec)
    if not raw:
        raise ParseError(f"{path}: empty file")
    start = 0
    if any(not _is_number(tok) for tok in raw[0]):
        start = 1
        if len(raw) == 1:
            raise ParseError(f"{path}: header only, no data rows")
    width = len(raw[start])
    data = np.empty((len(raw) - start, width), order="F")
    for i, rec in enumerate(raw[start:], start=start):
        if len(rec) != width:
            raise RaggedRows(f"expected {width} fields, got {len(rec)}", line=i + 1)
        try:
            data[i - start] = [float(tok) for tok in rec]
        except ValueError as exc:
            raise ParseError(f"non-numeric value in {rec}", line=i + 1) from exc
    col = width - 1 if label_column == "last" else int(label_column)
    if not 0 <= col < width:
        raise InvalidDimensions(f"label column {col} out of range for width {width}")
    # a copy, so the dataset does not keep all of ``data`` alive through b
    b = data[:, col].copy()
    A = np.delete(data, col, axis=1)  # column-major, like data
    return Dataset(A, b)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def dataset_meta(A: np.ndarray, spec: SvdGapSpec) -> dict:
    """Generation record written next to synthetic datasets."""
    realized = np.linalg.svd(A, compute_uv=False)
    return {
        "m": spec.m,
        "N": spec.N,
        "p": spec.p,
        "gap": spec.gap,
        "seed": spec.seed,
        "prescribed_singular_values": singular_value_bands(spec).tolist(),
        "realized_singular_values": realized.tolist(),
    }
