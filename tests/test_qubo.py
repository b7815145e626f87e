import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_mis,
    make_gc,
    min_energy_masks,
    random_conflict_graph,
    randrange,
)
from qimatch.qubo import (
    Assignment,
    QuboFormatError,
    QuboInstance,
    energy,
    mis_to_qubo,
    read_qubo,
    write_qubo,
)
from qimatch.rng import Xorshift64Star
from qimatch.solvers import AnnealSchedule, solve_exact, solve_sa


@st.composite
def qubo_terms(draw):
    """n in 1..12 and a map of real or small-integer terms, in index order."""
    n = draw(st.integers(1, 12))
    value = st.one_of(
        st.floats(-10, 10, allow_nan=False), st.integers(-3, 3).map(float)
    )
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, {k: draw(value) for k, kept in zip(pairs, keep) if kept}


class TestMisToQubo:
    def test_single_vertex(self):
        q = mis_to_qubo(make_gc(1, []))
        assert q.n == 1
        assert q.terms == {(0, 0): -1.0}
        assert energy(q, Assignment((1,))) == -1.0

    def test_two_vertices_one_edge(self):
        q = mis_to_qubo(make_gc(2, [(0, 1)]))
        assert q.terms == {(0, 0): -1.0, (1, 1): -1.0, (0, 1): 2.0}
        energies = {
            bits: energy(q, Assignment(bits))
            for bits in itertools.product((0, 1), repeat=2)
        }
        assert energies == {(0, 0): 0.0, (1, 0): -1.0, (0, 1): -1.0, (1, 1): 0.0}

    def test_triangle(self):
        q = mis_to_qubo(make_gc(3, [(0, 1), (0, 2), (1, 2)]))
        energies = {
            bits: energy(q, Assignment(bits))
            for bits in itertools.product((0, 1), repeat=3)
        }
        minima = [b for b, e in energies.items() if e == min(energies.values())]
        assert min(energies.values()) == -1.0
        assert sorted(minima) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_empty_graph_is_the_zero_variable_qubo(self):
        q = mis_to_qubo(make_gc(0, []))
        assert q == QuboInstance(0, {})
        text = write_qubo(q)
        assert text == "p qubo 0 0 0 0\n"
        assert read_qubo(text) == q
        for res in (solve_exact(q), solve_sa(q)):
            assert res.best == Assignment(())
            assert res.best_energy == 0.0 and type(res.best_energy) is float

    def test_exactness_on_random_graphs(self):
        rng = Xorshift64Star(2024)
        for _ in range(20):
            n = 5 + randrange(rng, 8)
            gc = random_conflict_graph(rng, n, 0.2 + 0.6 * rng.uniform())
            q = mis_to_qubo(gc)
            emin, argmins = min_energy_masks(q.n, q.terms)
            mis_size, mis_masks = brute_force_mis(n, gc.edges)
            assert emin == -mis_size
            assert argmins == mis_masks

    def test_penalty_sufficiency(self):
        rng = Xorshift64Star(55)
        for _ in range(20):
            n = 6 + randrange(rng, 8)
            gc = random_conflict_graph(rng, n, 0.4)
            if not gc.edges:
                continue
            q = mis_to_qubo(gc)
            # random assignment forced to contain one edge
            u, v = sorted(gc.edges)[randrange(rng, len(gc.edges))]
            bits = [1 if rng.uniform() < 0.5 else 0 for _ in range(n)]
            bits[u] = bits[v] = 1
            e = energy(q, Assignment(tuple(bits)))
            cleared = list(bits)
            cleared[u] = 0
            assert energy(q, Assignment(tuple(cleared))) < e


class TestEnergy:
    def test_all_zero(self):
        q = QuboInstance(n=3, terms={(0, 0): -1.0, (0, 2): 5.0})
        assert energy(q, Assignment((0, 0, 0))) == 0.0

    def test_float_when_no_term_is_active(self):
        q = QuboInstance(n=2, terms={(0, 0): 1.0, (1, 1): 2.0})
        for e in (energy(q, Assignment((0, 0))), energy(QuboInstance(0, {}), Assignment(()))):
            assert e == 0.0 and type(e) is float
        # the all-zero assignment is the optimum of an all-positive QUBO
        for res in (solve_exact(q), solve_sa(q)):
            assert res.best == Assignment((0, 0))
            assert type(res.best_energy) is float

    def test_independent_set_energy(self):
        gc = make_gc(4, [(0, 1), (2, 3)])
        q = mis_to_qubo(gc)
        assert energy(q, Assignment((1, 0, 1, 0))) == -2.0

    def test_violated_edge(self):
        q = mis_to_qubo(make_gc(2, [(0, 1)]))
        assert energy(q, Assignment((1, 1))) == 0.0

    def test_length_mismatch(self):
        q = QuboInstance(n=2, terms={(0, 0): 1.0})
        with pytest.raises(ValueError):
            energy(q, Assignment((1,)))

    def test_linear_in_coefficients(self):
        rng = Xorshift64Star(7)
        n = 6
        t1 = {(i, j): rng.normal() for i in range(n) for j in range(i, n) if rng.uniform() < 0.5}
        t2 = {(i, j): rng.normal() for i in range(n) for j in range(i, n) if rng.uniform() < 0.5}
        merged = dict(t1)
        for k, v in t2.items():
            merged[k] = merged.get(k, 0.0) + v
        q1, q2 = QuboInstance(n, t1), QuboInstance(n, t2)
        qm = QuboInstance(n, merged)
        for _ in range(20):
            x = Assignment(tuple(1 if rng.uniform() < 0.5 else 0 for _ in range(n)))
            assert energy(qm, x) == pytest.approx(energy(q1, x) + energy(q2, x), abs=1e-9)


class TestQuboInstance:
    def test_zero_terms_dropped(self):
        q = QuboInstance(n=2, terms={(0, 0): 0.0, (0, 1): 3.0})
        assert q.terms == {(0, 1): 3.0}

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            QuboInstance(n=-1, terms={})

    def test_non_integer_n_rejected(self):
        # n is written into the 'p qubo' header, which must read back as an integer
        with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
            QuboInstance(2.5, {(0, 0): -1.0})

    @pytest.mark.parametrize(
        "terms", [{(0.5, 1): 1.0, (0, 1): 2.0}, {(0, 1.9): 1.0}, {(1, 1.5): 1.0}]
    )
    def test_non_integer_index_rejected(self, terms):
        with pytest.raises(ValueError, match=r"term \(.*\) has a non-integer index"):
            QuboInstance(n=2, terms=terms)

    @given(qubo_terms(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_insertion_order_does_not_matter(self, case, data):
        n, terms = case
        shuffled = data.draw(st.permutations(list(terms.items())))
        q1, q2 = QuboInstance(n, terms), QuboInstance(n, dict(shuffled))
        assert list(q1.terms.items()) == list(q2.terms.items())
        assert write_qubo(q1) == write_qubo(q2)
        x = Assignment(tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))))
        assert energy(q1, x) == energy(q2, x)
        assert solve_exact(q1) == solve_exact(q2)  # bits, best_energy and evaluations
        schedule = AnnealSchedule(sweeps=10, restarts=2, seed=data.draw(st.integers(0, 99)))
        assert solve_sa(q1, schedule) == solve_sa(q2, schedule)

    def test_bad_index_order(self):
        with pytest.raises(ValueError):
            QuboInstance(n=3, terms={(2, 1): 1.0})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            QuboInstance(n=2, terms={(0, 2): 1.0})

    @pytest.mark.parametrize(
        "terms",
        [
            {(0, 0): math.inf},
            {(0, 0): -math.inf},
            {(0, 0): math.nan},
            {(0, 0): -1.0, (1, 1): -1.0, (0, 1): math.inf},
        ],
    )
    def test_non_finite_rejected(self, terms):
        with pytest.raises(ValueError, match="non-finite"):
            QuboInstance(n=2, terms=terms)


class TestAssignment:
    def test_non_binary_bit_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Assignment((0, 2))
        # non-integer bits are refused, not truncated
        with pytest.raises(ValueError, match="bit 0 is 0.5, not 0 or 1"):
            Assignment((0.5, 1))
        with pytest.raises(ValueError, match="bit 1 is 1.7, not 0 or 1"):
            Assignment((0, 1.7))
        with pytest.raises(ValueError, match="bit 0 is '1'"):
            Assignment(("1",))
        bits = Assignment((True, np.int64(1), np.uint8(0), 0)).bits
        assert bits == (1, 1, 0, 0) and all(type(b) is int for b in bits)


class TestFormat:
    def test_single_vertex_text(self):
        q = mis_to_qubo(make_gc(1, []))
        assert write_qubo(q) == "p qubo 0 1 1 0\n0 0 -1\n"

    def test_two_vertex_text(self):
        q = mis_to_qubo(make_gc(2, [(0, 1)]))
        assert write_qubo(q) == "p qubo 0 2 2 1\n0 0 -1\n1 1 -1\n0 1 2\n"

    def test_comments_ignored(self):
        text = "c a comment\np qubo 0 2 1 0\nc another\n0 0 -1\n"
        q = read_qubo(text)
        assert q.n == 2 and q.terms == {(0, 0): -1.0}

    @given(st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, seed):
        rng = Xorshift64Star(seed)
        n = 20
        terms = {}
        for i in range(n):
            for j in range(i, n):
                u = rng.uniform()
                if u < 0.3:
                    terms[(i, j)] = rng.normal() * 10
        q = QuboInstance(n=n, terms=terms)
        text = write_qubo(q)
        q2 = read_qubo(text)
        assert q2.n == q.n and q2.terms == q.terms
        assert write_qubo(q2) == text  # byte fixpoint

    def test_write_ignores_insertion_order(self):
        q = QuboInstance(n=3, terms={(1, 2): 3.0, (2, 2): 1.0, (0, 1): -0.5, (0, 0): -1.0})
        assert write_qubo(q) == "p qubo 0 3 2 2\n0 0 -1\n2 2 1\n0 1 -0.5\n1 2 3\n"
        rng = Xorshift64Star(11)
        n = 20
        ordered = {
            (i, j): rng.normal() * 10
            for i in range(n) for j in range(i, n) if rng.uniform() < 0.3
        }
        couplers = [k for k in ordered if k[0] != k[1]]
        diagonal = [k for k in ordered if k[0] == k[1]]
        for keys in (couplers, diagonal):  # Fisher-Yates
            for a in range(len(keys) - 1, 0, -1):
                b = randrange(rng, a + 1)
                keys[a], keys[b] = keys[b], keys[a]
        shuffled = QuboInstance(n=n, terms={k: ordered[k] for k in couplers + diagonal})
        in_order = QuboInstance(n=n, terms=ordered)
        assert list(shuffled.terms) == list(in_order.terms)
        assert write_qubo(shuffled) == write_qubo(in_order)

    def test_bad_header(self):
        with pytest.raises(QuboFormatError, match="line 1"):
            read_qubo("q hello\n")

    def test_missing_header(self):
        with pytest.raises(QuboFormatError, match="header"):
            read_qubo("c only comments\n")

    def test_index_out_of_range(self):
        with pytest.raises(QuboFormatError, match="line 2"):
            read_qubo("p qubo 0 2 1 0\n0 5 -1\n")

    def test_duplicate_pair(self):
        with pytest.raises(QuboFormatError, match="duplicate"):
            read_qubo("p qubo 0 2 2 0\n0 0 -1\n0 0 -2\n")

    def test_count_mismatch(self):
        with pytest.raises(QuboFormatError, match="announced"):
            read_qubo("p qubo 0 2 2 0\n0 0 -1\n")

    def test_malformed_term(self):
        with pytest.raises(QuboFormatError, match="line 2"):
            read_qubo("p qubo 0 2 1 0\n0 0 xyz\n")

    def test_numerals_only_python_reads(self):
        with pytest.raises(QuboFormatError, match="^line 1: non-integer header field$"):
            read_qubo("p qubo 0 1_0 1 0\n0 0 -1\n")
        for term in ("0 0 1_0", "\u0661 \u0661 -1", "1 1 \u0661", "0\u20031 -1"):
            with pytest.raises(QuboFormatError, match="^line 3: malformed term"):
                read_qubo(f"p qubo 0 2 1 0\nc any text: 1_0 \u0661\n{term}\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value(self, value):
        with pytest.raises(QuboFormatError, match="line 4: non-finite"):
            read_qubo(f"p qubo 0 2 2 1\n0 0 -1\n1 1 -1\n0 1 {value}\n")
