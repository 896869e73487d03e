"""Vector quantization, quotient compression, and the sigma2 certificate.

The certificate pipeline bounds the second singular value of a symmetric
matrix by a multiple of its discrepancy, constructively: center the
matrix, grab the top singular direction, quantize it to few values (one
level per greedy bucket, the buckets kept as stop indices), compress over
the level sets (a Partition keeps each index's class label), and read the
bound off the small matrix C. A disc that is not exact meets the witness
pool read off |C|: the first class pair in row-major order whose |c_ij|
is within TIE_RTOL max(1, max|C|) of max|C|, so the witness cannot flip
with the summation order. Every inequality used on the way is recorded
with its numeric slack.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .discrepancy import DiscResult, _tie_floor, disc_exact, evaluate_pair
from .errors import (
    BadEpsilonError,
    CertificateLinkViolatedError,
    ImproperPartitionError,
    InvariantError,
    NotNormalizedError,
)
from .graphs import _vertex_indices
from .linalg import SymmetricMatrix, _top_eigenpair, eig_symmetric, rho_prime

CERT_EPSILON = 1.0 / 3.0
LINK_TOL = 1e-8


def nonneg_value_ceiling(n: int, epsilon: float) -> int:
    """Distinct-value budget for a nonnegative real unit vector."""
    return math.ceil((2.0 / epsilon) * math.log(2.0 * n / epsilon))


def _phase_slots(epsilon: float) -> int:
    """Phase grid of the complex case: ceil(8 pi / eps) slots."""
    return math.ceil(8.0 * math.pi / epsilon)


def _moduli_cap(n: int, epsilon: float) -> int:
    """Modulus budget of the signed and complex cases: ceil((4/eps) ln(4n/eps))."""
    return math.ceil((4.0 / epsilon) * math.log(4.0 * n / epsilon))


def complex_value_ceiling(n: int, epsilon: float) -> int:
    """Distinct-value budget for an arbitrary complex unit vector."""
    return _phase_slots(epsilon) * _moduli_cap(n, epsilon)


def _closed_form_constants(epsilon: float) -> tuple[float, float, float]:
    """(slope, offset, headline) of the chain's budget at this epsilon.

    The chain bounds sigma2 by 4.5 m disc with m at most
    complex_value_ceiling(n, eps) = P ceil(r ln(4n/eps)), P = _phase_slots(eps),
    r = 4/eps.  Since ceil(z) < z + 1, 4.5 m < slope ln n + offset with
    slope = 4.5 P r and offset = 4.5 P (r ln r + 1).  From n >= 2 on,
    offset <= offset ln n / ln 2, so slope + offset / ln 2 is a constant
    of the headline form headline * disc * ln n.  At eps = 1/3, P = 76
    and r = 12: slope 4104, offset 10540.06..., headline 19310.09...
    """
    budget = 4.5 * _phase_slots(epsilon)
    rate = 4.0 / epsilon  # _moduli_cap's coefficient of ln n
    slope = budget * rate
    offset = budget * (rate * math.log(rate) + 1.0)
    return slope, offset, slope + offset / math.log(2.0)


#: closed form (slope ln n + offset) of the certificate chain, and the
#: constant of its headline form
CLOSED_FORM_SLOPE, CLOSED_FORM_OFFSET, HEADLINE_CONSTANT = (
    _closed_form_constants(CERT_EPSILON))


@dataclass(frozen=True, eq=False)
class QuantizedVector:
    """Few-valued approximation y of a unit vector x.

    case is one of 'nonnegative', 'signed', 'complex'; value_ceiling is
    the budget the distinct count is guaranteed not to exceed; error is
    the measured ||x - y||_p; repairs counts bottom-bucket adjustments
    that were needed to stay within the budget.
    """

    y: np.ndarray
    distinct_values: tuple
    epsilon: float
    p_norm: float
    case: str
    value_ceiling: int
    error: float
    repairs: int

    @property
    def distinct_count(self) -> int:
        return len(self.distinct_values)

    def to_json_dict(self) -> dict:
        if np.iscomplexobj(self.y):
            y = {"real": self.y.real.tolist(), "imag": self.y.imag.tolist()}
            values = [[v.real, v.imag] for v in self.distinct_values]
        else:
            y = self.y.tolist()
            values = list(self.distinct_values)
        return {
            "y": y,
            "distinct_values": values,
            "epsilon": self.epsilon,
            "p_norm": self.p_norm,
            "case": self.case,
            "value_ceiling": self.value_ceiling,
            "error": self.error,
            "repairs": self.repairs,
        }


def _p_norm(mag: np.ndarray, p: float) -> float:
    """The p-norm of a vector from the magnitudes of its entries (the
    reduction of ndarray.sum, without its wrapper)."""
    return float(np.add.reduce(mag ** p) ** (1.0 / p))


def _quantize_nonneg(v: np.ndarray, stage_epsilon: float, cap: int, p: float):
    """Quantize a nonnegative array; returns (values array, repairs used).

    Greedy geometric buckets over the entries in descending order, kept
    as stop indices: each bucket holds every entry >= 1 - stage_epsilon/2
    times its largest, at most cap buckets form, and the rest is the zero
    tail. Each bucket takes one level, its minimum; the tail takes 0.
    The distinct count (zero included when it appears) must stay within
    cap. The greedy bucketing can land exactly one value over budget when
    it truncates; then level k takes level k + 1's value, for k from the
    last bucket (zeroing it) down to the first, at the first k that keeps
    the measured p-norm error within stage_epsilon.
    """
    order = (-v).argsort(kind="stable")
    sorted_desc = v[order]
    neg = -sorted_desc
    # nxt[i]: where a bucket starting at entry i stops; entries before
    # the bucket's first are >= it, so >= its threshold
    nxt = neg.searchsorted((1.0 - stage_epsilon / 2.0) * neg,
                           side="right").tolist()
    stops = [0]
    for _ in range(cap):  # at most cap buckets
        if stops[-1] >= v.size:
            break
        stops.append(nxt[stops[-1]])
    values = sorted_desc.tolist()
    levels = [values[stop - 1] for stop in stops[1:]] + [0.0]
    widths = [b - a for a, b in zip(stops, stops[1:] + [v.size])]

    def distinct(lv: list) -> int:  # np.unique's count of repeat(lv, widths)
        return len({level for level, width in zip(lv, widths) if width})

    repairs = int(distinct(levels) > cap)
    quantized = np.array(levels).repeat(widths)
    if repairs:
        for k in range(len(stops) - 2, -1, -1):
            edited = levels.copy()
            edited[k] = levels[k + 1]
            cand = np.array(edited).repeat(widths)
            if distinct(edited) <= cap and (
                _p_norm(np.abs(sorted_desc - cand), p) <= stage_epsilon
            ):
                break
        else:
            raise InvariantError("bucket repair failed to reach the value budget")
        quantized = cand
    out = np.empty_like(v)
    out[order] = quantized
    return out, repairs


def quantize(x, p: float, epsilon: float) -> QuantizedVector:
    """Replace a unit vector by one taking few distinct values.

    Nonnegative real input stays within ceil((2/eps) ln(2n/eps)) values;
    signed real and complex input within ceil(8 pi/eps) times
    ceil((4/eps) ln(4n/eps)). Moduli never increase, so ||y|| <= ||x||.

    Every zero of y is +0.0, in each part of a complex entry, so that
    no two values of y compare equal with different bits, and
    distinct_values is np.unique(y): y's values in ascending order.
    """
    if not 0.0 < epsilon < 1.0:
        raise BadEpsilonError(f"epsilon must lie in (0, 1), got {epsilon}")
    if p < 1.0:
        raise ValueError(f"norm order must be >= 1, got {p}")
    xv = np.asarray(x)
    is_complex = np.iscomplexobj(xv)
    xv = xv.astype(np.complex128 if is_complex else np.float64,
                   copy=False).reshape(-1)
    n = xv.shape[0]
    if n < 1:
        raise ValueError("vector must be nonempty")
    mag = np.abs(xv)
    norm = _p_norm(mag, p)
    if not abs(norm - 1.0) <= 1e-12:  # a nan norm fails too
        raise NotNormalizedError(f"input must be a unit vector in p-norm, got {norm}")

    # the norm is finite, so xv holds no nan
    if not is_complex and np.minimum.reduce(xv) >= 0.0:
        case = "nonnegative"
        ceiling = nonneg_value_ceiling(n, epsilon)
        y, repairs = _quantize_nonneg(xv, epsilon, ceiling, p)
    else:
        ceiling = complex_value_ceiling(n, epsilon)
        q, repairs = _quantize_nonneg(mag, epsilon / 2.0, _moduli_cap(n, epsilon), p)
        if not is_complex:
            case = "signed"
            y = np.where(xv < 0.0, -q, q)
        else:
            case = "complex"
            phase_slots = _phase_slots(epsilon)
            theta = np.angle(xv) / (2.0 * math.pi)
            theta = np.where(theta < 0.0, theta + 1.0, theta)
            theta[mag == 0.0] = 0.0
            grid = np.floor(phase_slots * theta) / phase_slots
            y = q * np.exp(2.0j * math.pi * grid)

    y += 0.0  # -0.0 + 0.0 is +0.0; no other bit changes
    distinct = tuple(np.unique(y).tolist())
    if len(distinct) > ceiling:
        raise InvariantError(
            f"quantizer exceeded its value budget: {len(distinct)} > {ceiling}"
        )
    error = _p_norm(np.abs(xv - y), p)
    y.setflags(write=False)  # a fresh array on every path
    return QuantizedVector(
        y=y,
        distinct_values=distinct,
        epsilon=epsilon,
        p_norm=p,
        case=case,
        value_ceiling=ceiling,
        error=error,
        repairs=repairs,
    )


@dataclass(frozen=True, eq=False)
class Partition:
    """Proper partition of [n]: disjoint nonempty 1-based classes covering it."""

    classes: tuple
    n: int
    #: derived, read-only: labels[i] is the position in classes of index i + 1
    labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sizes = [len(cls) for cls in self.classes]
        if 0 in sizes:
            raise ImproperPartitionError("partition classes must be nonempty")
        try:  # the label rule of Graph and the disc evaluators
            idx = _vertex_indices([v for cls in self.classes for v in cls], self.n)
        except ValueError as exc:
            raise ImproperPartitionError(str(exc)) from None
        counts = np.bincount(idx, minlength=self.n)
        if np.any(counts > 1):
            raise ImproperPartitionError(
                f"index {int(np.argmax(counts > 1)) + 1} appears twice")
        if not np.all(counts):
            raise ImproperPartitionError("classes do not cover the index range")
        labels = np.empty(self.n, dtype=np.intp)
        labels[idx] = np.repeat(np.arange(len(sizes)), sizes)
        labels.setflags(write=False)
        # grouped by class, ascending within each: a stable sort of labels
        order = (np.argsort(labels, kind="stable") + 1).tolist()
        stops = np.cumsum([0] + sizes).tolist()
        object.__setattr__(self, "classes", tuple(
            tuple(order[a:b]) for a, b in zip(stops, stops[1:])))
        object.__setattr__(self, "labels", labels)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def to_json_dict(self) -> dict:
        return {"classes": [list(c) for c in self.classes], "n": self.n}


def level_partition(y) -> Partition:
    """Level sets of a vector, one class per distinct value, values ascending."""
    yv = np.asarray(y).reshape(-1)
    values, labels = np.unique(yv, return_inverse=True)
    classes = [[] for _ in values]
    for i, k in enumerate(labels.tolist(), start=1):
        classes[k].append(i)
    return Partition(classes=tuple(map(tuple, classes)), n=yv.shape[0])


def quotient_compress(B: SymmetricMatrix, partition: Partition) -> SymmetricMatrix:
    """Compress B over a partition: scaled class-pair block sums."""
    if partition.n != B.n:
        raise ImproperPartitionError(
            f"partition covers {partition.n} indices, matrix has {B.n}"
        )
    labels = partition.labels
    sel = np.zeros((partition.class_count, B.n), dtype=B.a.dtype)
    sel[labels, np.arange(B.n)] = 1.0 / np.sqrt(np.bincount(labels))[labels]
    C = sel @ B.a @ sel.conj().T
    C = (C + C.conj().T) / 2.0
    return SymmetricMatrix(C)


@dataclass(frozen=True, eq=False)
class CertificateLink:
    """One verified inequality of the chain; slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
        }


@dataclass(frozen=True, eq=False)
class Sigma2Certificate:
    """Constructive witness chain bounding sigma2 by the discrepancy.

    Links, in order: sigma2(A) <= sigma1(B); sigma1(B) <= (9/2)|<By,y>|;
    |<By,y>| <= sigma1(C); sigma1(C) <= m max|c_ij|; max|c_ij| <= disc.
    m is the realized class count; the ceiling that the chain's closed
    form uses is recorded separately.
    """

    n: int
    sigma2: float
    sigma1_b: float
    byy: float
    sigma1_c: float
    max_c: float
    m_realized: int
    m_ceiling: int
    x: np.ndarray
    y: QuantizedVector
    partition: Partition
    C: SymmetricMatrix
    disc: DiscResult
    links: tuple
    closed_form_bound: float
    headline_bound: float
    headline_holds: bool
    disc_is_exact: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "sigma2": self.sigma2,
            "sigma1_B": self.sigma1_b,
            "byy": self.byy,
            "sigma1_C": self.sigma1_c,
            "max_c": self.max_c,
            "m_realized": self.m_realized,
            "m_ceiling": self.m_ceiling,
            "x": self.x.tolist(),
            "y": self.y.to_json_dict(),
            "partition": self.partition.to_json_dict(),
            "C": [list(row) for row in self.C.a.tolist()],
            "disc": self.disc.to_json_dict(),
            "links": [link.to_json_dict() for link in self.links],
            "closed_form_bound": self.closed_form_bound,
            "headline_bound": self.headline_bound,
            "headline_holds": self.headline_holds,
            "disc_is_exact": self.disc_is_exact,
        }


def certificate_m_ceiling(n: int) -> int:
    """Distinct-value budget the chain's closed form is stated with."""
    return complex_value_ceiling(n, CERT_EPSILON)


def closed_form_bound(n: int, disc_value: float) -> float:
    """(CLOSED_FORM_SLOPE ln n + CLOSED_FORM_OFFSET) times the discrepancy."""
    return (CLOSED_FORM_SLOPE * math.log(n) + CLOSED_FORM_OFFSET) * disc_value


def certify_sigma2(
    A: SymmetricMatrix,
    disc: DiscResult | None = None,
    timing: dict | None = None,
) -> Sigma2Certificate:
    """Run the constructive sigma2 <= const * disc * ln n pipeline.

    disc, the discrepancy the chain ends in, defaults to disc_exact(A).
    A disc that is not exact, such as a disc_heuristic lower bound, is
    replaced by the class pair of the quantized partition that the pool
    picks off |C| when that pair's value is larger, so the last link
    max|c_ij| <= disc holds for it too.
    Every link is checked numerically; a violation beyond LINK_TOL
    raises CertificateLinkViolatedError, which signals a bug rather
    than a property of the input.
    The top singular direction x of B = A - rho_prime(A) J is the unit
    eigenvector of an eigenvalue of B of largest modulus, from
    linalg._top_eigenpair, which checks its residual.
    A timing dict, when given, receives the seconds of each stage:
    disc (only when the search runs here), eig_A, eig_B (with the top
    singular direction), quantize, compress (the level partition, C and
    <By, y>), eig_C, and pool (|C|, its maximum and the pool's pair, near 0 for an
    exact disc). The certificate does not depend on it.
    """
    if A.is_complex:
        raise ValueError("the certificate pipeline supports real matrices only")
    n = A.n
    if n < 2:
        raise ValueError("certificate needs n >= 2")
    last = time.perf_counter()

    def lap(stage: str) -> None:
        """Charge the seconds since the previous lap to `stage`."""
        nonlocal last
        now = time.perf_counter()
        if timing is not None:
            timing[stage] = now - last
        last = now

    if disc is None:
        disc = disc_exact(A)
        lap("disc")

    spectrum_a = eig_symmetric(A)
    sigma2 = spectrum_a.sigma2
    lap("eig_A")
    B = SymmetricMatrix(A.a - rho_prime(A))
    spectrum_b, x = _top_eigenpair(B)
    sigma1_b = spectrum_b.sigma1
    lap("eig_B")

    qy = quantize(x, p=2.0, epsilon=CERT_EPSILON)
    lap("quantize")
    partition = level_partition(qy.y)
    C = quotient_compress(B, partition)
    byy = float(qy.y @ B.a @ qy.y)
    lap("compress")
    sigma1_c = eig_symmetric(C).sigma1
    lap("eig_C")
    abs_c = np.abs(C.a)
    max_c = float(abs_c.max())
    m_realized = partition.class_count
    m_ceiling = certificate_m_ceiling(n)

    if disc.mode != "exact":
        # |C| holds every class-pair value; its first tie for the maximum
        # in row-major order is the pool's pair
        i, j = divmod(int(np.argmax(abs_c >= _tie_floor(max_c))), m_realized)
        ci, cj = partition.classes[i], partition.classes[j]
        value = evaluate_pair(B.a, ci, cj)
        if value > disc.value:
            disc = DiscResult(
                value=value,
                witness_X=ci,
                witness_Y=cj,
                mode=disc.mode,
                evaluations=disc.evaluations + m_realized * m_realized,
            )
    lap("pool")

    links = (
        CertificateLink("sigma2_le_sigma1_B", sigma2, sigma1_b),
        CertificateLink("sigma1_B_le_4.5_byy", sigma1_b, 4.5 * abs(byy)),
        CertificateLink("byy_le_sigma1_C", abs(byy), sigma1_c),
        CertificateLink("sigma1_C_le_m_max_c", sigma1_c, m_realized * max_c),
        CertificateLink("max_c_le_disc", max_c, disc.value),
    )
    for link in links:
        if link.lhs > link.rhs + LINK_TOL:
            raise CertificateLinkViolatedError(
                f"certificate link {link.name} violated: "
                f"{link.lhs!r} > {link.rhs!r} + {LINK_TOL}"
            )

    bound = closed_form_bound(n, disc.value)
    headline = HEADLINE_CONSTANT * disc.value * math.log(n)
    return Sigma2Certificate(
        n=n,
        sigma2=sigma2,
        sigma1_b=sigma1_b,
        byy=byy,
        sigma1_c=sigma1_c,
        max_c=max_c,
        m_realized=m_realized,
        m_ceiling=m_ceiling,
        x=x,
        y=qy,
        partition=partition,
        C=C,
        disc=disc,
        links=links,
        closed_form_bound=bound,
        headline_bound=headline,
        headline_holds=bool(sigma2 <= headline + LINK_TOL),
        disc_is_exact=disc.mode == "exact",
    )
