"""Simple undirected graphs with 1-based vertex labels.

A Graph is one read-only boolean n x n adjacency, validated on every
construction; `m`, `degrees`, `density()` and the float `adjacency` are
derived from it, and the sorted `edges` tuple is built only when read.
Graphs are dense, so no graph may exceed MAX_VERTICES vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, NotBinaryError, TooManyVerticesError
from .linalg import MAX_VERTICES, SymmetricMatrix, _read_text


def _require_order(n: int) -> None:
    """Check a vertex count before an n x n matrix is allocated for it."""
    if n > MAX_VERTICES:
        raise TooManyVerticesError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


def _vertex_indices(labels, n: int) -> np.ndarray:
    """0-based indices of 1-based vertex labels, which must be integers in 1..n."""
    a = np.asarray(labels)
    kind = a.dtype.kind
    if kind == "f" and a.dtype.itemsize < 8:
        a = a.astype(np.float64)  # where n is exact: it may not be in float32
    # nan fails the range test; inf fails it too, where floor would pass it
    if kind not in "iuf" or not (
            ((a >= 1) & (a <= n)).all()
            and (kind != "f" or np.array_equal(a, np.floor(a)))):
        raise ValueError(f"vertex labels must be integers in 1..{n}")
    return a.astype(np.intp) - 1


def _vertex_set(labels, n: int) -> np.ndarray:
    """Sorted 0-based indices of a collection of vertex labels, each once.

    Read off the label counts: np.unique would import numpy.ma on its
    first call, about 30 ms of a CLI run that needs no other np.unique.
    """
    return np.flatnonzero(np.bincount(_vertex_indices(list(labels), n), minlength=n))


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Simple graph on vertices 1..n from a sequence or array of (u, v)
    vertex pairs in any order and orientation; code that already holds a
    boolean adjacency uses Graph._from_mask. Both end in __post_init__.
    """

    _mask: np.ndarray

    def __init__(self, n: int, edges):
        _require_order(n)
        pairs = np.asarray(edges)
        if pairs.shape[1:] != (2,) and pairs.shape != (0,):  # (0,): no edges
            raise ValueError("edges must be (u, v) pairs")
        u, v = _vertex_indices(pairs, n).reshape(-1, 2).T
        mask = np.zeros((n, n), dtype=bool)
        mask[u, v] = mask[v, u] = True
        object.__setattr__(self, "_mask", mask)
        self.__post_init__()  # rejects loops: the scatter put them on the diagonal
        if self.m != len(pairs):
            raise ValueError("an edge is given twice (in either orientation)")

    @classmethod
    def _from_mask(cls, mask: np.ndarray) -> Graph:
        """Graph whose adjacency is `mask`, a new boolean matrix it keeps."""
        graph = cls.__new__(cls)
        object.__setattr__(graph, "_mask", mask)
        graph.__post_init__()
        return graph

    def __post_init__(self):
        mask = self._mask
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1] or mask.size == 0:
            raise ValueError(f"adjacency of shape {mask.shape} is not n x n, n >= 1")
        if mask.diagonal().any():
            raise ValueError("loops are not allowed")
        if not np.array_equal(mask, mask.T):
            raise ValueError("adjacency must be symmetric")
        mask.setflags(write=False)

    @property
    def n(self) -> int:
        return self._mask.shape[0]

    @cached_property
    def m(self) -> int:
        """Number of edges."""
        return int(np.count_nonzero(self._mask)) // 2

    @cached_property
    def edges(self) -> tuple:
        """Pairs (u, v) with u < v, sorted."""
        rows, cols = np.nonzero(np.triu(self._mask, k=1))
        return tuple(zip((rows + 1).tolist(), (cols + 1).tolist()))

    @cached_property
    def adjacency(self) -> SymmetricMatrix:
        return SymmetricMatrix(self._mask)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of vertex i+1 at index i."""
        d = np.count_nonzero(self._mask, axis=1).astype(np.int64)
        d.setflags(write=False)
        return d

    def is_regular(self) -> bool:
        d = self.degrees
        return bool(np.all(d == d[0]))

    def density(self) -> float:
        """2m / (n (n-1)); zero for the one-vertex graph."""
        if self.n < 2:
            return 0.0
        return 2.0 * self.m / (self.n * (self.n - 1))


def from_adjacency(A: SymmetricMatrix) -> Graph:
    """Graph whose adjacency matrix is the given 0/1 matrix."""
    if not A.is_binary():
        raise NotBinaryError("adjacency entries must be exactly 0 or 1")
    return Graph._from_mask(A.a == 1.0)


def complete_graph(n: int) -> Graph:
    _require_order(n)
    return Graph._from_mask(~np.eye(n, dtype=bool))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    v = np.arange(1, n + 1)
    return Graph(n, np.stack([v, np.roll(v, -1)], axis=1))


def star_graph(leaves: int) -> Graph:
    """Center vertex 1 joined to vertices 2..leaves+1."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    v = np.arange(2, leaves + 2)
    return Graph(leaves + 1, np.stack([np.ones_like(v), v], axis=1))


def gnp_random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Binomial random graph: each pair u < v, in row-major order, is an
    edge when its own uniform draw falls below p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    _require_order(n)
    rows, cols = np.triu_indices(n, k=1)
    hit = rng.random(rows.size) < p
    return Graph(n, np.stack([rows[hit], cols[hit]], axis=1) + 1)


def e_xy(G: Graph, X, Y) -> int:
    """Ordered-pair edge count: #{(x, y) in X x Y : xy is an edge}.

    Edges with both ends in X and Y contribute twice, once per
    orientation, matching the bilinear form 1_X^T A 1_Y.
    """
    x, y = (_vertex_set(S, G.n) for S in (X, Y))
    return int(np.count_nonzero(G._mask[np.ix_(x, y)]))


def vol(G: Graph, X) -> int:
    """Sum of degrees over X."""
    return int(G.degrees[_vertex_set(X, G.n)].sum())


def write_graph(G: Graph, path) -> None:
    """Write the text format: 'graph <n> <m>' then one 'u v' line per edge."""
    pairs = np.argwhere(np.triu(G._mask, k=1)) + 1
    with open(path, "w") as fh:
        fh.write(f"graph {G.n} {G.m}\n"
                 + ("%d %d\n" * len(pairs)) % tuple(pairs.ravel().tolist()))


def read_graph(path) -> Graph:
    """Parse the 'graph' text format (see linalg._read_text for the
    layout), rejecting loops and repeats; labels must be decimal integers."""
    (n, m), labels = _read_text(path, "graph", ("n", "m"), np.int64)
    if labels.size != 2 * m:
        raise FormatError(f"expected {m} edges, found {labels.size // 2} lines of data")
    try:
        return Graph(n, labels.reshape(m, 2))
    except ValueError as exc:
        raise FormatError(f"bad edge list: {exc}") from exc
