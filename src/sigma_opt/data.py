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
import itertools
import logging
import os
import warnings
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import haar_frame
from .errors import (
    DomainError,
    InfeasibleSynthesis,
    InvalidDimensions,
    NonAscendingIndexError,
    ParseError,
    RaggedRows,
)
from .objectives import GAUSSIAN, KINDS, POISSON, Dataset, _positive_margin_vector
from .rng import RngState

logger = logging.getLogger(__name__)
_OVERLAP_MIN_K = 200  # svd_gap_matrix factors its frames concurrently from this k on
_PARSE_CHUNK_BYTES = 1 << 20  # load_libsvm reads canonical lines in chunks of about this much text


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
      up to 100 tries sharing one factorization of ``A``, then an LP, as
      :func:`~sigma_opt.objectives.feasible_start` searches) so all margins
      are positive and average 5, then ``b_i = max(1, Poisson(a_i^T x_true))``.
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
    rates = A @ x_true
    b = np.maximum(1, gen.poisson(rates)).astype(np.float64)
    return b, x_true


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
    chunks = _libsvm_fast(path)
    if isinstance(chunks, int):
        logger.debug("%s: line %d is not canonical; parsing token by token", path, chunks)
        chunks = _libsvm_tokens(path)
    m = sum(chunk[0].size for chunk in chunks)
    if not m:
        raise ParseError(f"{path}: no data lines")
    max_idx = max(int(cols.max(initial=-1)) + 1 for _, _, cols, _ in chunks)
    N = n_features if n_features is not None else max_idx
    if N < 1:
        raise InvalidDimensions(f"{path}: no features (N = {N})")
    if max_idx > N:
        raise InvalidDimensions(f"file has index {max_idx} but n_features={N}")
    A, b, top = np.zeros((m, N), order="F"), np.empty(m), 0
    while chunks:  # each chunk is freed once it is scattered
        labels, counts, cols, vals = chunks.pop(0)
        A[np.repeat(np.arange(top, top + labels.size), counts), cols] = vals
        b[top:top + labels.size] = labels
        top += labels.size
    return Dataset(A, b)


def _libsvm_fast(path):
    """The file's numbers as a list of ``(labels, counts, cols, vals)`` chunks,
    or the number of its first line that is not canonical (README, "libsvm
    input").

    A chunk holds about ``_PARSE_CHUNK_BYTES`` of canonical lines, read with one
    ``np.fromstring``: their labels, each line's entry count, and each entry's
    0-based column (int32) and value.
    """
    chunks = []
    with open(path, "rb") as fh, warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy < 2.3: else a short array
        for pending in _canonical_lines(fh):
            chunk = pending if isinstance(pending, int) else _parse_chunk(*pending)
            if isinstance(chunk, int):
                return chunk
            chunks.append(chunk)
    return chunks


def _canonical_lines(fh):
    """Yield ``(text, linenos, counts)`` for each run of about
    ``_PARSE_CHUNK_BYTES`` of lines that pass the byte checks, one line of
    ``text`` each, then the number of the first line that fails them, if any."""
    to_nul = bytes.maketrans(bytes(range(32)) + b"\x7f(", bytes(34))  # controls, "(" of nan(...)
    text, linenos, counts, bad = bytearray(), array("q"), array("q"), None
    for lineno, line in enumerate(map(bytes.strip, fh), start=1):
        if line[:1] in (b"", b"#") and line.isascii() and b"\r" not in line:
            continue
        rest, nnz = line.translate(to_nul, b"0123456789"), line.count(b":")
        if (not line.isascii() or b"\0" in rest or rest.count(b" ") != nnz
                or rest.count(b" :") != nnz):
            bad = lineno
            break
        text += line
        text += b"\n"
        linenos.append(lineno)
        counts.append(nnz)
        if len(text) >= _PARSE_CHUNK_BYTES:
            yield bytes(text), linenos, counts
            text, linenos, counts = bytearray(), array("q"), array("q")
    if linenos:
        yield bytes(text), linenos, counts
    if bad is not None:
        yield bad


def _parse_chunk(text, linenos, counts):
    """``(labels, counts, cols, vals)`` of newline-separated lines by one
    ``np.fromstring``, or the number of the first line that is not canonical."""
    counts = np.array(counts, dtype=np.int64)
    try:
        nums = np.fromstring(text.replace(b":", b" "), sep=" ")
    except (ValueError, DeprecationWarning):
        nums = None
    # a field reads one number, none when it is empty, or fails: a chunk that
    # reads as many numbers as it has fields reads one from each of them
    if nums is None or nums.size != counts.size + 2 * counts.sum():
        if len(linenos) == 1:
            return linenos[0]
        # bisect: the first failing line is in the first half if that fails
        half = len(linenos) // 2
        cut = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))[half - 1] + 1
        first = _parse_chunk(text[:cut], linenos[:half], counts[:half])
        if not isinstance(first, int):
            first = _parse_chunk(text[cut:], linenos[half:], counts[half:])
        return first if isinstance(first, int) else linenos[0]
    heads = np.cumsum(1 + 2 * counts) - (1 + 2 * counts)  # each line's label
    is_label = np.zeros(nums.size, dtype=bool)
    is_label[heads] = True
    idx, vals = nums[~is_label].reshape(-1, 2).T
    rows = np.repeat(np.arange(counts.size), counts)
    bad = (idx < 1) | (idx >= 2**31)  # in range, so exact, and rising within each line
    bad[1:] |= (idx[1:] <= idx[:-1]) & (rows[1:] == rows[:-1])
    if bad.any():
        return linenos[rows[bad.argmax()]]
    return nums[heads], counts, (idx - 1).astype(np.int32), vals.copy()


def _libsvm_tokens(path):
    """The reference parser, token by token, raising each parse error with its
    line. Returns the file's numbers as :func:`_libsvm_fast` does, in chunks
    of about ``_PARSE_CHUNK_BYTES`` of lines, with int64 columns: each line's
    numbers are appended to typed arrays, not kept as Python objects.
    """
    chunks, size = [], 0
    labels, counts, cols, vals = array("d"), array("q"), array("q"), array("d")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            size += len(line)
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
                cols.append(idx - 1)
                vals.append(val)
            counts.append(len(tokens) - 1)
            if size >= _PARSE_CHUNK_BYTES:
                chunks.append((labels, counts, cols, vals))
                labels, counts, cols, vals, size = array("d"), array("q"), array("q"), array("d"), 0
    if labels:
        chunks.append((labels, counts, cols, vals))
    return [tuple(np.frombuffer(a, dtype=a.typecode) for a in chunk) for chunk in chunks]


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
    column-major. A first pass counts the rows; the second converts each row
    as it reads it, straight into ``A`` and ``b``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = filter(None, _csv.reader(fh))
        head = list(itertools.islice(records, 2))
        m = len(head) + sum(1 for _ in records)
    if not head:
        raise ParseError(f"{path}: empty file")
    start = 0 if all(_is_number(tok) for tok in head[0]) else 1
    if start == m:
        raise ParseError(f"{path}: header only, no data rows")
    width = len(head[start])
    col = width - 1 if label_column == "last" else int(label_column)
    A, b = np.empty((m - start, width - 1), order="F"), np.empty(m - start)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line, rec in enumerate(filter(None, _csv.reader(fh)), start=1):
            if line <= start:
                continue
            if len(rec) != width:
                raise RaggedRows(f"expected {width} fields, got {len(rec)}", line=line)
            try:
                row = [float(tok) for tok in rec]
            except ValueError as exc:
                raise ParseError(f"non-numeric value in {rec}", line=line) from exc
            if 0 <= col < width:
                b[line - start - 1] = row.pop(col)
                A[line - start - 1] = row
    if not 0 <= col < width:
        raise InvalidDimensions(f"label column {col} out of range for width {width}")
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
