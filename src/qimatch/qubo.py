"""QUBO instances: the MIS encoding of a conflict graph, energy evaluation,
and a qbsolv-style text format."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conflict import ConflictGraph
from .errors import ParseError


class QuboFormatError(ParseError):
    pass


@dataclass(frozen=True)
class QuboInstance:
    """Upper-triangular coefficient map over n binary variables.

    Absent pairs are zero; explicit zeros are dropped at construction.
    """

    n: int
    terms: dict[tuple[int, int], float]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        clean = {}
        for (i, j), v in self.terms.items():
            if not (0 <= i <= j < self.n):
                raise ValueError(f"term ({i}, {j}) out of range for n={self.n}")
            if not math.isfinite(v):
                raise ValueError(f"term ({i}, {j}) has non-finite value {v!r}")
            if v != 0.0:
                clean[(int(i), int(j))] = float(v)
        object.__setattr__(self, "terms", clean)


@dataclass(frozen=True)
class Assignment:
    """Binary variable assignment."""

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("assignment bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)


def mis_to_qubo(gc: ConflictGraph) -> QuboInstance:
    """Encode maximum-independent-set on gc as a QUBO.

    Diagonal -1 per vertex, penalty n on every conflict edge: any violated
    edge costs more than the whole diagonal can repay, so minima are exactly
    the maximum independent sets.
    """
    n = gc.n
    if n == 0:
        raise ValueError("empty conflict graph has no variables to optimize")
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
    return sum(v for (i, j), v in q.terms.items() if bits[i] and bits[j])


def _format_value(v: float) -> str:
    """Shortest decimal that reads back to the same float; integers without '.0'."""
    if v == int(v):
        return str(int(v))
    return repr(v)


def write_qubo(q: QuboInstance) -> str:
    """Serialize to qbsolv-style text: 'p qubo 0 maxNodes nNodes nCouplers',
    then sorted diagonal lines 'i i value' and coupler lines 'i j value'."""
    diag = sorted((i, v) for (i, j), v in q.terms.items() if i == j)
    coup = sorted(((i, j), v) for (i, j), v in q.terms.items() if i != j)
    lines = [f"p qubo 0 {q.n} {len(diag)} {len(coup)}"]
    lines += [f"{i} {i} {_format_value(v)}" for i, v in diag]
    lines += [f"{i} {j} {_format_value(v)}" for (i, j), v in coup]
    return "\n".join(lines) + "\n"


def read_qubo(text: str) -> QuboInstance:
    """Parse the text format written by write_qubo; 'c' lines are comments."""
    n = None
    n_nodes = n_couplers = 0
    seen_diag = seen_coup = 0
    terms: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if n is None:
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
            continue
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
        if i == j:
            seen_diag += 1
        else:
            seen_coup += 1
    if n is None:
        raise QuboFormatError("missing 'p qubo' header")
    if seen_diag != n_nodes or seen_coup != n_couplers:
        raise QuboFormatError(
            f"header announced {n_nodes} nodes / {n_couplers} couplers, "
            f"found {seen_diag} / {seen_coup}"
        )
    return QuboInstance(n=n, terms=terms)
