import inspect
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    adjacency,
    brute_force_mis,
    first_fit_clique_count,
    local_field,
    make_gc,
    max_degree_vertex,
    random_conflict_graph,
    randrange,
    reference_sa,
)
from qimatch.qubo import Assignment, QuboInstance, energy, mis_to_qubo
from qimatch.rng import Xorshift64Star, derive_seed
from qimatch.solvers import (
    AnnealSchedule,
    _cover_and_branch,
    solve_exact,
    solve_mis_bnb,
    solve_sa,
)


class TestRng:
    def test_deterministic(self):
        a = Xorshift64Star(42)
        b = Xorshift64Star(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_uniform_range(self):
        rng = Xorshift64Star(1)
        for _ in range(1000):
            u = rng.uniform()
            assert 0.0 <= u < 1.0

    def test_derived_streams_differ(self):
        s0 = Xorshift64Star(derive_seed(7, 0))
        s1 = Xorshift64Star(derive_seed(7, 1))
        assert [s0.next_u64() for _ in range(5)] != [s1.next_u64() for _ in range(5)]

    def test_zero_seed_ok(self):
        assert Xorshift64Star(0).next_u64() != 0

    @pytest.mark.parametrize("count", [0, 1, 5, 300])
    @pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
    def test_uniforms_are_uniform_calls(self, seed, count):
        batch, single = Xorshift64Star(seed), Xorshift64Star(seed)
        assert batch.uniforms(count) == [single.uniform() for _ in range(count)]
        assert batch.uniform() == single.uniform()  # the same state after


class TestSolveExact:
    def test_single_vertex(self):
        res = solve_exact(mis_to_qubo(make_gc(1, [])))
        assert res.best.bits == (1,)
        assert res.best_energy == -1.0
        assert res.proven_optimal

    def test_tie_break_little_endian(self):
        res = solve_exact(mis_to_qubo(make_gc(2, [(0, 1)])))
        assert res.best.bits == (1, 0)
        assert res.best_energy == -1.0

    def test_four_cycle(self):
        res = solve_exact(mis_to_qubo(make_gc(4, [(0, 1), (1, 2), (2, 3), (0, 3)])))
        assert res.best_energy == -2.0
        assert res.best.bits in ((1, 0, 1, 0), (0, 1, 0, 1))

    def test_size_guard(self):
        q = QuboInstance(n=26, terms={(0, 0): -1.0})
        with pytest.raises(ValueError):
            solve_exact(q)

    def test_result_energy_reevaluates(self):
        rng = Xorshift64Star(5)
        terms = {(i, j): rng.normal() for i in range(8) for j in range(i, 8) if rng.uniform() < 0.5}
        q = QuboInstance(n=8, terms=terms)
        res = solve_exact(q)
        assert res.best_energy == energy(q, res.best)
        # cross-check against direct enumeration
        best = min(
            energy(q, Assignment(bits)) for bits in itertools.product((0, 1), repeat=8)
        )
        assert res.best_energy == pytest.approx(best, abs=1e-12)


class TestSolveMisBnb:
    def test_edgeless(self):
        mis, proven = solve_mis_bnb(make_gc(5, []))
        assert mis == {0, 1, 2, 3, 4} and proven

    def test_complete_graph(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        mis, proven = solve_mis_bnb(make_gc(4, edges))
        assert mis == {0} and proven

    def test_empty_graph(self):
        assert solve_mis_bnb(make_gc(0, [])) == (set(), True)

    def test_depth_not_bound_by_recursion_limit(self):
        gc = make_gc(120, [])  # edgeless: the search goes 120 levels deep
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            mis, proven = solve_mis_bnb(gc)
        finally:
            sys.setrecursionlimit(limit)
        assert mis == set(range(120)) and proven

    def test_matches_brute_force_100(self):
        rng = Xorshift64Star(303)
        for _ in range(100):
            gc = random_conflict_graph(rng, 18, 0.1 + 0.8 * rng.uniform())
            mis, proven = solve_mis_bnb(gc)
            size, _ = brute_force_mis(gc.n, gc.edges)
            assert proven and len(mis) == size
            adj = adjacency(gc)
            assert all(v not in adj[u] for u in mis for v in mis)

    def test_deterministic(self):
        rng = Xorshift64Star(9)
        gc = random_conflict_graph(rng, 15, 0.4)
        assert solve_mis_bnb(gc) == solve_mis_bnb(gc)

    def test_cover_and_branch_is_first_fit_and_max_degree(self):
        rng = Xorshift64Star(515)
        cases = []
        for _ in range(300):
            n = 1 + randrange(rng, 40)
            gc = random_conflict_graph(rng, n, rng.uniform())
            cases += [(gc, rng.next_u64() & ((1 << n) - 1)) for _ in range(5)]
        # walked 0, 3, 1, 2: vertex 3 is reached before vertex 1, of the same degree
        cases.append((make_gc(4, [(0, 3), (1, 2), (1, 3)]), 0b1111))
        for gc, p_mask in cases:
            adj = [sum(1 << v for v in nbrs) for nbrs in adjacency(gc)]
            assert _cover_and_branch(p_mask, adj) == (
                first_fit_clique_count(p_mask, adj),
                max_degree_vertex(p_mask, adj),
            )


class TestLocalField:
    def test_matches_full_reevaluation(self):
        rng = Xorshift64Star(88)
        for _ in range(30):
            n = 4 + randrange(rng, 10)
            terms = {
                (i, j): rng.normal()
                for i in range(n)
                for j in range(i, n)
                if rng.uniform() < 0.5
            }
            q = QuboInstance(n=n, terms=terms)
            bits = [1 if rng.uniform() < 0.5 else 0 for _ in range(n)]
            k = randrange(rng, n)
            x = Assignment(tuple(bits))
            flipped = list(bits)
            flipped[k] ^= 1
            full_delta = energy(q, Assignment(tuple(flipped))) - energy(q, x)
            f = local_field(q, x, k)
            inc_delta = f if bits[k] == 0 else -f
            assert inc_delta == pytest.approx(full_delta, abs=1e-9)


class TestSolveSa:
    def test_all_diagonal_turns_everything_on(self):
        q = QuboInstance(n=10, terms={(k, k): -1.0 for k in range(10)})
        res = solve_sa(q, AnnealSchedule(sweeps=50, beta_final=5.0, restarts=2, seed=1))
        assert res.best.bits == (1,) * 10
        assert res.best_energy == -10.0
        assert not res.proven_optimal

    def test_two_vertex_instance(self):
        res = solve_sa(mis_to_qubo(make_gc(2, [(0, 1)])), AnnealSchedule(seed=3))
        assert res.best_energy == -1.0

    def test_seed_determinism(self):
        rng = Xorshift64Star(12)
        gc = random_conflict_graph(rng, 12, 0.4)
        q = mis_to_qubo(gc)
        s = AnnealSchedule(sweeps=200, restarts=4, seed=99)
        r1 = solve_sa(q, s)
        r2 = solve_sa(q, s)
        assert r1.best.bits == r2.best.bits
        assert r1.best_energy == r2.best_energy

    def test_never_worse_than_empty_set(self):
        rng = Xorshift64Star(71)
        for _ in range(10):
            gc = random_conflict_graph(rng, 10, 0.6)
            q = mis_to_qubo(gc)
            res = solve_sa(q, AnnealSchedule(sweeps=20, restarts=2, seed=int(rng.next_u64())))
            assert res.best_energy <= 0.0

    def test_matches_exact_on_smoke_set(self):
        rng = Xorshift64Star(404)
        hits = 0
        for _ in range(10):
            gc = random_conflict_graph(rng, 14, 0.3 + 0.4 * rng.uniform())
            q = mis_to_qubo(gc)
            exact = solve_exact(q)
            sa = solve_sa(q, AnnealSchedule(seed=int(rng.next_u64())))
            if sa.best_energy == exact.best_energy:
                hits += 1
        assert hits >= 9


@st.composite
def anneal_cases(draw):
    """A QUBO of 1-30 variables and a schedule to anneal it with.  Terms are
    real, small integers (ties and zero fields), or an MIS encoding."""
    n = draw(st.integers(1, 30))
    density = draw(st.floats(0.0, 1.0))
    rng = Xorshift64Star(draw(st.integers(0, 2**64 - 1)))
    kind = draw(st.sampled_from(["real", "integer", "mis"]))
    if kind == "mis":
        q = mis_to_qubo(random_conflict_graph(rng, n, density))
    else:
        draw_term = rng.normal if kind == "real" else lambda: float(randrange(rng, 7) - 3)
        terms = {
            (i, j): draw_term()
            for i in range(n)
            for j in range(i, n)
            if rng.uniform() < density
        }
        q = QuboInstance(n=n, terms=terms)
    beta_initial = draw(st.floats(0.01, 5.0))
    s = AnnealSchedule(
        sweeps=draw(st.integers(1, 40)),
        beta_initial=beta_initial,
        beta_final=beta_initial * draw(st.floats(1.0, 1000.0)),
        restarts=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return q, s


class TestSaKernel:
    @given(anneal_cases())
    @settings(max_examples=150, deadline=None)
    def test_same_result_as_one_step_at_a_time(self, case):
        q, s = case
        assert solve_sa(q, s) == reference_sa(q, s)


class TestAnnealSchedule:
    def test_betas_geometric(self):
        s = AnnealSchedule(sweeps=3, beta_initial=1.0, beta_final=4.0)
        assert s.betas() == pytest.approx([1.0, 2.0, 4.0])

    def test_single_sweep(self):
        assert AnnealSchedule(sweeps=1).betas() == [0.1]

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=0)
        with pytest.raises(ValueError):
            AnnealSchedule(beta_initial=0.0)
        with pytest.raises(ValueError):
            AnnealSchedule(beta_initial=2.0, beta_final=1.0)
        with pytest.raises(ValueError):
            AnnealSchedule(beta_final=float("nan"))
