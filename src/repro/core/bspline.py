"""B-spline basis functions and per-gene weight matrices.

TINGe estimates mutual information with the B-spline smoothed histogram of
Daub et al. (*BMC Bioinformatics* 2004): instead of assigning each sample to
one bin, a sample is spread over up to ``order`` adjacent bins with weights
given by B-spline basis functions of that order.  ``order = 1`` recovers the
plain histogram; ``order = 3`` (quadratic splines) is the TINGe default.

The basis is defined on the open-uniform knot vector

    t_i = 0                 for i < k
    t_i = i - k + 1         for k <= i < b
    t_i = b - k + 1         for i >= b

for ``b`` bins and order ``k``, so the domain is ``[0, b - k + 1]`` and the
basis satisfies *partition of unity*: the ``b`` weights of every sample sum
to exactly 1, which in turn makes every weight-matrix column-sum a proper
probability and makes joint distributions marginalize exactly.

Performance notes (the paper's vector-level story, translated to numpy):
the Cox–de Boor recursion is evaluated for *all points at once* per order
level — the numpy analog of the 512-bit SIMD evaluation in the paper — and
the resulting ``(m, b)`` weight matrix is the operand of the GEMM-formulated
MI kernel in :mod:`repro.core.mi`.  :func:`weight_tensor` evaluates it only
once per *distinct* scaled value and gathers rows from that table: after
the rank transform every gene without ties lands on the same ``m``-point
grid (ties add a few values per gene), so the whole tensor costs one small
evaluation plus a gather, and because the recursion works point by point
the result is bitwise the direct evaluation.  Each sample has at most
``k`` non-zero weights; :func:`packed_weights` exposes that sparse
"struct of arrays" layout, which is what the paper lays out for aligned
vector loads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BsplineBasis",
    "knot_vector",
    "basis_matrix",
    "weight_matrix",
    "weight_codebook",
    "weight_tensor",
    "packed_weights",
    "unpack_weights",
]


def knot_vector(bins: int, order: int) -> np.ndarray:
    """Open-uniform knot vector for ``bins`` basis functions of ``order``.

    Length is ``bins + order``; the first ``order`` knots are clamped to 0
    and the last ``order`` to ``bins - order + 1``.
    """
    _check_params(bins, order)
    b, k = bins, order
    i = np.arange(b + k, dtype=np.float64)
    t = np.clip(i - k + 1, 0.0, b - k + 1)
    return t


def _check_params(bins: int, order: int) -> None:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if bins < order:
        raise ValueError(f"bins must be >= order ({order}), got {bins}")


def basis_matrix(z: np.ndarray, bins: int, order: int) -> np.ndarray:
    """Evaluate all ``bins`` basis functions at points ``z``.

    Parameters
    ----------
    z:
        Points inside the domain ``[0, bins - order + 1]``; the right
        endpoint is handled by the closed-edge convention (it receives
        weight 1 on the last basis function).
    bins, order:
        Number of basis functions and spline order ``k`` (degree ``k-1``).

    Returns
    -------
    numpy.ndarray
        ``(len(z), bins)`` matrix; each row sums to 1 (partition of unity).

    Notes
    -----
    Implements the Cox–de Boor recursion vectorized over samples: order-1
    indicators first, then ``k - 1`` lifting steps, each a fused multiply-add
    over the whole sample vector — mirroring how the paper's kernel keeps
    the VPU busy across samples rather than across bins.
    """
    _check_params(bins, order)
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected 1-D points, got shape {z.shape}")
    b, k = bins, order
    t = knot_vector(b, k)
    domain_hi = float(b - k + 1)
    if z.size and (z.min() < -1e-12 or z.max() > domain_hi + 1e-12):
        raise ValueError(
            f"points outside basis domain [0, {domain_hi}]: "
            f"range [{z.min()}, {z.max()}]"
        )
    z = np.clip(z, 0.0, domain_hi)
    m = z.shape[0]

    # Order-1: indicator of [t_i, t_{i+1}); closed at the domain maximum.
    w = np.zeros((m, b + k - 1), dtype=np.float64)
    # Active knot spans are indices k-1 .. b-1 (the non-degenerate ones).
    span = np.clip(np.floor(z).astype(np.intp) + (k - 1), k - 1, b - 1)
    w[np.arange(m), span] = 1.0

    for d in range(2, k + 1):
        # Lift order d-1 -> d. New support of B_{i,d} is [t_i, t_{i+d}).
        n_funcs = b + k - d
        left = np.zeros((m, n_funcs), dtype=np.float64)
        right = np.zeros((m, n_funcs), dtype=np.float64)
        ti = t[:n_funcs]
        tid1 = t[d - 1 : d - 1 + n_funcs]
        denom_l = tid1 - ti
        valid_l = denom_l > 0
        if valid_l.any():
            left[:, valid_l] = (
                (z[:, None] - ti[valid_l]) / denom_l[valid_l] * w[:, :n_funcs][:, valid_l]
            )
        ti1 = t[1 : 1 + n_funcs]
        tid = t[d : d + n_funcs]
        denom_r = tid - ti1
        valid_r = denom_r > 0
        if valid_r.any():
            right[:, valid_r] = (
                (tid[valid_r] - z[:, None]) / denom_r[valid_r] * w[:, 1 : 1 + n_funcs][:, valid_r]
            )
        w = left + right
    return w[:, :b] if w.shape[1] != b else w


@dataclass(frozen=True)
class BsplineBasis:
    """A concrete B-spline basis: ``bins`` functions of ``order``.

    The basis object is the single place where raw expression values are
    mapped onto the spline domain; both the dense and packed weight layouts
    come from here, so every estimator downstream agrees on the domain
    convention.

    Attributes
    ----------
    bins:
        Number of basis functions ``b`` (TINGe default 10).
    order:
        Spline order ``k`` (1 = histogram; TINGe default 3).
    """

    bins: int = 10
    order: int = 3

    def __post_init__(self) -> None:
        _check_params(self.bins, self.order)

    @property
    def domain(self) -> tuple[float, float]:
        """The spline domain ``[0, bins - order + 1]``."""
        return (0.0, float(self.bins - self.order + 1))

    def scale(self, x: np.ndarray, lo: float | None = None, hi: float | None = None) -> np.ndarray:
        """Affinely map samples from ``[lo, hi]`` onto the spline domain.

        Defaults to the data range.  A constant vector maps to domain 0
        (all mass in the first bins) — MI against a constant gene is then
        exactly 0, as it should be.
        """
        x = np.asarray(x, dtype=np.float64)
        lo = float(np.min(x)) if lo is None else float(lo)
        hi = float(np.max(x)) if hi is None else float(hi)
        if hi < lo:
            raise ValueError(f"invalid data range [{lo}, {hi}]")
        if hi == lo:
            return np.zeros_like(x)
        return (x - lo) / (hi - lo) * self.domain[1]

    def weights(self, x: np.ndarray) -> np.ndarray:
        """Dense ``(m, bins)`` weight matrix of one gene's samples."""
        return basis_matrix(self.scale(x), self.bins, self.order)


def weight_matrix(x: np.ndarray, bins: int = 10, order: int = 3) -> np.ndarray:
    """Convenience wrapper: dense B-spline weight matrix of one gene."""
    return BsplineBasis(bins, order).weights(x)


def weight_codebook(data: np.ndarray, bins: int = 10, order: int = 3,
                    dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """The weight tensor of ``data`` as a table plus an index.

    Returns ``(table, index)``: ``table`` is the ``(u, bins)`` basis matrix
    of the ``u`` distinct scaled sample values and ``index`` the
    ``(n_genes, m_samples)`` intp row of each sample, so
    ``table[index]`` is :func:`weight_tensor`'s output, bit for bit.
    After the rank transform every gene lands on one grid of at most
    ``2m - 1`` values, so the table is tiny against the dense tensor.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected (genes, samples) matrix, got shape {data.shape}")
    basis = BsplineBasis(bins, order)
    n, m = data.shape
    # Scale each gene to the spline domain, then evaluate the basis for the
    # distinct points of ALL genes in one call (the same batching the paper
    # applies across the sample axis).
    lo = data.min(axis=1, keepdims=True)
    hi = data.max(axis=1, keepdims=True)
    span = hi - lo
    scaled = np.where(span > 0, (data - lo) / np.where(span > 0, span, 1.0), 0.0)
    scaled *= basis.domain[1]
    # basis_matrix works point by point, so evaluating it once per distinct
    # scaled value and gathering rows is bitwise the direct evaluation.
    values, index = np.unique(scaled, return_inverse=True)
    table = basis_matrix(values, bins, order).astype(dtype, copy=False)
    return table, index.reshape(n, m)


def weight_tensor(data: np.ndarray, bins: int = 10, order: int = 3, dtype=np.float64) -> np.ndarray:
    """Weight matrices for a whole expression matrix.

    Parameters
    ----------
    data:
        ``(n_genes, m_samples)`` expression matrix (already preprocessed —
        see :mod:`repro.core.discretize`).
    bins, order:
        Basis parameters.
    dtype:
        Output dtype; ``float32`` halves memory traffic exactly as the
        paper's single-precision kernels do.

    Returns
    -------
    numpy.ndarray
        ``(n_genes, m_samples, bins)`` C-contiguous tensor, the package's
        canonical "SoA" layout: gene-major so a tile of genes is a
        contiguous slab (the layout the paper aligns for the VPU).  It is
        one gather of :func:`weight_codebook`'s table.
    """
    table, index = weight_codebook(data, bins, order, dtype)
    return table[index]


def packed_weights(w: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack a dense weight matrix into the sparse per-sample layout.

    Every sample has at most ``order`` consecutive non-zero weights; the
    packed form stores ``(values, first_index)`` where ``values`` is
    ``(m, order)`` and ``first_index`` is ``(m,)``.  This is the
    memory layout the paper vectorizes (fixed-width rows, aligned loads)
    and it reduces weight storage from ``m*b`` to ``m*(k+1)`` words.

    The round trip through :func:`unpack_weights` is lossless for every
    valid spline row, including all-zero rows (packed at index 0 with zero
    values) and boundary samples whose support lands in the last knot span
    (``first`` is clamped to ``bins - order`` so the window never runs off
    the edge).  A row whose nonzero support does not fit one ``order``-wide
    window — longer runs or disjoint nonzeros, which no valid basis
    produces — would silently lose mass, so it raises instead.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"expected (m, bins) weights, got shape {w.shape}")
    m, b = w.shape
    if order < 1 or order > b:
        raise ValueError(f"order {order} incompatible with {b} bins")
    nz = w != 0.0
    # First nonzero column per row; rows of all zeros (constant genes map
    # every sample to the same window) pack at index 0 with zero values.
    first = np.where(nz.any(axis=1), nz.argmax(axis=1), 0).astype(np.intp)
    # Boundary samples: a support run ending at the last bin starts past
    # b - order only when it is shorter than order; clamping keeps the
    # fixed-width window inside the matrix without dropping that run.
    first = np.minimum(first, b - order)
    cols = first[:, None] + np.arange(order)[None, :]
    values = np.take_along_axis(w, cols, axis=1)
    # Lossless-pack guard: any nonzero outside the selected window cannot
    # be represented and would vanish in the round trip.
    outside = nz
    np.put_along_axis(outside, cols, False, axis=1)
    if outside.any():
        bad = int(np.nonzero(outside.any(axis=1))[0][0])
        raise ValueError(
            f"row {bad} has nonzero weights outside its {order}-wide packed "
            f"window (support longer than order, or non-consecutive); "
            f"not a valid order-{order} spline row"
        )
    return values, first


def unpack_weights(values: np.ndarray, first: np.ndarray, bins: int) -> np.ndarray:
    """Inverse of :func:`packed_weights`: reconstruct the dense matrix."""
    values = np.asarray(values)
    first = np.asarray(first, dtype=np.intp)
    if values.ndim != 2 or first.ndim != 1 or values.shape[0] != first.shape[0]:
        raise ValueError("inconsistent packed representation")
    m, k = values.shape
    if k > bins:
        raise ValueError(f"packed width {k} exceeds {bins} bins")
    if values.size and (first.min() < 0 or first.max() + k > bins):
        raise ValueError("first indices out of range for given bins")
    w = np.zeros((m, bins), dtype=values.dtype)
    cols = first[:, None] + np.arange(k)[None, :]
    np.put_along_axis(w, cols, values, axis=1)
    return w
