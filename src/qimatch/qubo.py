"""QUBO instances: the MIS encoding of a conflict graph, energy evaluation,
and a qbsolv-style text format."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conflict import ConflictGraph
from .errors import ParseError, require_ints


class QuboFormatError(ParseError):
    pass


@dataclass(frozen=True)
class QuboInstance:
    """Upper-triangular coefficient map over n binary variables.

    Absent pairs are zero; explicit zeros are dropped at construction.  Terms
    are kept in file order, diagonal by i then couplers by (i, j).
    """

    n: int
    terms: dict[tuple[int, int], float]

    def __post_init__(self):
        require_ints(self, "n")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        diagonal, couplers = {}, {}
        for (i, j), v in self.terms.items():
            if not (0 <= i <= j < self.n):
                raise ValueError(f"term ({i}, {j}) out of range for n={self.n}")
            key = int(i), int(j)
            if key != (i, j):
                raise ValueError(f"term ({i}, {j}) has a non-integer index")
            if not math.isfinite(v):
                raise ValueError(f"term ({i}, {j}) has non-finite value {v!r}")
            if v != 0.0:
                (diagonal if i == j else couplers)[key] = float(v)
        object.__setattr__(self, "terms", {k: t[k] for t in (diagonal, couplers) for k in sorted(t)})


@dataclass(frozen=True)
class Assignment:
    """Binary variable assignment."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(self.bits)
        for k, b in enumerate(bits):
            if b not in (0, 1):  # checked before int(), which would truncate 0.5 to 0
                raise ValueError(f"assignment bit {k} is {b!r}, not 0 or 1")
        object.__setattr__(self, "bits", tuple(map(int, bits)))

    def __len__(self) -> int:
        return len(self.bits)


def mis_to_qubo(gc: ConflictGraph) -> QuboInstance:
    """Encode maximum-independent-set on gc as a QUBO.

    Diagonal -1 per vertex, penalty n on every conflict edge: any violated
    edge costs more than the whole diagonal can repay, so minima are exactly
    the maximum independent sets.  An empty graph gives the 0-variable QUBO.
    """
    n = gc.n
    penalty = float(n)
    terms: dict[tuple[int, int], float] = {(k, k): -1.0 for k in range(n)}
    u, v = np.nonzero(np.triu(gc.adjacency, 1))
    terms.update(dict.fromkeys(zip(u.tolist(), v.tolist()), penalty))
    return QuboInstance(n=n, terms=terms)


def energy(q: QuboInstance, x: Assignment) -> float:
    """Evaluate sum of Q_ij * x_i * x_j over i <= j."""
    if len(x) != q.n:
        raise ValueError(f"assignment length {len(x)} does not match n={q.n}")
    bits = x.bits
    return sum((v for (i, j), v in q.terms.items() if bits[i] and bits[j]), 0.0)


def _format_value(v: float) -> str:
    """Shortest decimal that reads back to the same float; integers without '.0'."""
    if v == int(v):
        return str(int(v))
    return repr(v)


def write_qubo(q: QuboInstance) -> str:
    """Serialize to qbsolv-style text: 'p qubo 0 maxNodes nNodes nCouplers',
    then one line 'i j value' per term, in the instance's file order."""
    n_diag = sum(i == j for i, j in q.terms)
    lines = [f"p qubo 0 {q.n} {n_diag} {len(q.terms) - n_diag}"]
    text = {v: _format_value(v) for v in set(q.terms.values())}
    lines += [f"{i} {j} {text[v]}" for (i, j), v in q.terms.items()]
    return "\n".join(lines) + "\n"


def read_qubo(text: str) -> QuboInstance:
    """Parse the text format written by write_qubo; 'c' lines are comments."""
    numbered = enumerate(text.splitlines(), start=1)
    for lineno, raw in numbered:  # the first line that is not blank or a comment
        fields = raw.split()
        if fields and not fields[0].startswith("c"):
            break
    else:
        raise QuboFormatError("missing 'p qubo' header")
    if len(fields) != 6 or fields[0] != "p" or fields[1] != "qubo":
        raise QuboFormatError(f"line {lineno}: expected 'p qubo 0 ...' header")
    try:
        zero, n, n_nodes, n_couplers = (int(f) for f in fields[2:])
    except ValueError:
        raise QuboFormatError(f"line {lineno}: non-integer header field") from None
    if zero != 0:
        raise QuboFormatError(f"line {lineno}: header must read 'p qubo 0 ...'")
    if n < 0 or n_nodes < 0 or n_couplers < 0:
        raise QuboFormatError(f"line {lineno}: negative header count")
    terms: dict[tuple[int, int], float] = {}
    for lineno, raw in numbered:  # the lines after the header
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise QuboFormatError(f"line {lineno}: expected 'i j value'")
        try:
            i, j = int(fields[0]), int(fields[1])
            v = float(fields[2])
        except ValueError:
            raise QuboFormatError(f"line {lineno}: malformed term {line!r}") from None
        if not math.isfinite(v):
            raise QuboFormatError(f"line {lineno}: non-finite value {fields[2]!r}")
        if not 0 <= i <= j < n:
            raise QuboFormatError(f"line {lineno}: index pair ({i}, {j}) out of range")
        if (i, j) in terms:
            raise QuboFormatError(f"line {lineno}: duplicate pair ({i}, {j})")
        terms[(i, j)] = v
    n_diag = sum(i == j for i, j in terms)
    if n_diag != n_nodes or len(terms) - n_diag != n_couplers:
        raise QuboFormatError(
            f"header announced {n_nodes} nodes / {n_couplers} couplers, "
            f"found {n_diag} / {len(terms) - n_diag}"
        )
    return QuboInstance(n=n, terms=terms)
