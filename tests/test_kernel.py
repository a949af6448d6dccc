import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

import rcmlab.kernel
from rcmlab.environment import ConductanceField, EnvironmentSpec, sample_environment, shift
from rcmlab.green import _head_integral
from rcmlab.kernel import (_DENSE_LIMIT, _colour_classes, _series, heat_kernel, heat_slices,
                           jump_kernel, point_mass, propagate, simulate_walk, spectral_oracle)
from rcmlab.lattice import TorusGeometry
from rcmlab.poisson import poisson_weights

GEO = TorusGeometry(2, 8)
ELLIPTIC = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})
CONSTANT = EnvironmentSpec("constant", {"level": 1.0})


def neighbor_weights(field):
    """The neighbor table and w(x, y) in its order, read from the field's
    values: columns a and d + a hold the edges to x + e_a and x - e_a."""
    table = field.geometry.neighbor_table()
    d = field.geometry.d
    return table, np.hstack([field.values, field.values[table[:, d:], np.arange(d)]])


def _by_table(field, data):
    table = field.geometry.neighbor_table()
    n, width = table.shape
    return sp.csr_matrix((data.reshape(-1), table.reshape(-1), np.arange(0, n * width + 1, width)),
                         shape=(n, n))


def reference_s(field):
    """S(x, y) = w(x, y) / (sqrt(mu(x)) sqrt(mu(y))) built from the field
    alone, each row listing its neighbors in ascending vertex order: the
    reference the kernel's block must equal bit for bit."""
    table, w = neighbor_weights(field)
    root = np.sqrt(field.mu_vector())
    return _by_table(field, w / (root[:, None] * root[table])).sorted_indices()


def reference_p(field):
    """The jump matrix P(x, y) = w(x, y) / mu(x), built from the field alone."""
    _, w = neighbor_weights(field)
    return _by_table(field, w / field.mu_vector()[:, None])


def kernel_s(kern):
    """The kernel's S as a dense matrix, assembled from its block (the rows
    at the even vertices) and the block's transpose (those at the odd ones)."""
    geo = kern.geometry
    even, odd = _colour_classes(geo.d, geo.L)
    dense = np.zeros((geo.n_vertices, geo.n_vertices))
    dense[np.ix_(even, odd)] = kern.block.toarray()
    dense[np.ix_(odd, even)] = kern.block.T.toarray()
    return dense


def kernel_p(kern):
    """The kernel's jump probabilities S(x, y) sqrt(mu(y)) / sqrt(mu(x)), dense."""
    root = np.sqrt(kern.mu)
    return kernel_s(kern) * root / root[:, None]


def test_jump_kernel_constant_field():
    field = sample_environment(CONSTANT, GEO, 0)
    kern = jump_kernel(field)
    row = kernel_p(kern)[0]
    assert np.count_nonzero(row) == 4
    assert np.allclose(row[row > 0], 0.25)


def test_jump_kernel_rows_and_detailed_balance():
    field = sample_environment(ELLIPTIC, GEO, 3)
    kern = jump_kernel(field)
    assert np.array_equal(kernel_s(kern), reference_s(field).toarray())
    for dense in (kernel_p(kern), reference_p(field).toarray()):
        assert np.max(np.abs(dense.sum(axis=1) - 1.0)) <= 1e-12
        flux = dense * kern.mu[:, None]
        assert np.max(np.abs(flux - flux.T)) <= 1e-12


def test_kernel_stores_s_once_on_a_shared_sorted_pattern():
    kernels = [jump_kernel(sample_environment(ELLIPTIC, GEO, seed)) for seed in (1, 2)]
    first, second = (kern.block for kern in kernels)
    # one float64 value per edge: n d entries, half of S's 2 n d
    assert list(vars(kernels[0])) == ["geometry", "mu", "block"]
    assert first.data.dtype == np.float64 and first.data.shape == (GEO.n_vertices * GEO.d,)
    # the odd rows are a view of the same arrays, not a copy
    assert np.shares_memory(first.T.data, first.data)
    # the column indices and row pointers depend on the geometry alone
    assert not np.array_equal(first.data, second.data)
    for arrays in ((first.indices, second.indices), (first.indptr, second.indptr)):
        assert np.shares_memory(*arrays)
        assert not arrays[0].flags.writeable
    assert first.has_sorted_indices and second.has_sorted_indices


FAMILIES = [
    EnvironmentSpec("constant", {"level": 1.5}),
    EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0}),
    EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": 1.0}),
    EnvironmentSpec("finite-range", {"range": 3, "link": "exp"}),
    EnvironmentSpec("gaussian-fkg", {"mass": 0.5, "scale": 0.7}),
    EnvironmentSpec("na-permutation", {"block": 2}),
]


@pytest.mark.parametrize("d, L", [(2, 8), (3, 6)])
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_jump_kernel_invariants(spec, d, L, seed):
    field = sample_environment(spec, TorusGeometry(d, L), seed)
    kern = jump_kernel(field)
    for dense in (kernel_p(kern), reference_p(field).toarray()):
        assert np.max(np.abs(dense.sum(axis=1) - 1.0)) <= 1e-12
        flux = dense * kern.mu[:, None]
        assert np.max(np.abs(flux - flux.T)) <= 1e-12
    s = kernel_s(kern)
    assert np.array_equal(s, reference_s(field).toarray())
    assert np.array_equal(s, s.T)
    root = np.sqrt(kern.mu)
    assert np.max(np.abs(s @ root - root)) <= 1e-12


@pytest.mark.parametrize("d, L", [(2, 8), (3, 6)])
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), t=st.floats(0.0, 16.0), data=st.data())
def test_heat_kernel_shift_covariance(spec, d, L, seed, t, data):
    # p_{shift(w, z)}(t, x, y) = p_w(t, x + z, y + z) for every y
    field = sample_environment(spec, TorusGeometry(d, L), seed)
    geo = field.geometry
    coord = st.integers(-L, L)
    x = tuple(data.draw(st.tuples(*[coord] * d)))
    z = tuple(data.draw(st.tuples(*[coord] * d)))
    moved = heat_kernel(shift(field, z), t, x, tol=1e-12)
    plain = heat_kernel(field, t, tuple(a + b for a, b in zip(x, z)), tol=1e-12)
    perm = [geo.index(tuple(a + b for a, b in zip(geo.coords(i), z)))
            for i in range(geo.n_vertices)]
    bound = moved.trunc_error + plain.trunc_error + 1e-14
    assert np.max(np.abs(moved.prob - plain.prob[perm])) <= bound


def test_jump_probabilities_proportional_to_weights():
    values = np.ones((GEO.n_vertices, 2))
    values[GEO.index((0, 0)), 0] = 1.0
    values[GEO.index((0, 0)), 1] = 3.0
    values[GEO.index((7, 0)), 0] = 2.0
    values[GEO.index((0, 7)), 1] = 2.0
    field = ConductanceField(GEO, values, CONSTANT, 0)
    kern = jump_kernel(field)
    row = kernel_p(kern)[GEO.index((0, 0))]
    assert row[GEO.index((1, 0))] == pytest.approx(1.0 / 8.0)
    assert row[GEO.index((0, 1))] == pytest.approx(3.0 / 8.0)
    assert row[GEO.index((7, 0))] == pytest.approx(2.0 / 8.0)


def test_heat_kernel_time_zero():
    field = sample_environment(ELLIPTIC, GEO, 1)
    s = heat_kernel(field, 0.0, (2, 3))
    expected = np.zeros(GEO.n_vertices)
    expected[GEO.index((2, 3))] = 1.0
    assert np.array_equal(s.prob, expected)
    assert s.hk[GEO.index((2, 3))] == pytest.approx(1.0 / field.mu_vector()[GEO.index((2, 3))])


@pytest.mark.parametrize("spec", [CONSTANT, ELLIPTIC])
@pytest.mark.parametrize("t", [0.5, 2.0, 8.0])
def test_uniformization_matches_spectral_oracle(spec, t):
    geo = TorusGeometry(2, 8)
    field = sample_environment(spec, geo, 5)
    a = heat_kernel(field, t, (1, 2), tol=1e-12)
    b = spectral_oracle(field, t, (1, 2))
    assert np.max(np.abs(a.prob - b.prob)) <= 1e-10
    assert np.max(np.abs(a.hk - b.hk)) <= 1e-10


def test_heat_kernel_conservation_and_reversibility():
    field = sample_environment(ELLIPTIC, TorusGeometry(2, 16), 7)
    geo = field.geometry
    kern = jump_kernel(field)
    t = 4.0
    sources = [(0, 0), (3, 9), (12, 5)]
    slices = {x: heat_kernel(field, t, x, tol=1e-12, kernel=kern) for x in sources}
    for s in slices.values():
        total = s.prob.sum()
        assert 1.0 - s.trunc_error - 1e-13 <= total <= 1.0 + 1e-12
        assert np.all(s.prob >= 0)
    mu_vec = kern.mu
    for x in sources:
        for y in sources:
            # reversibility: mu(x) P_x[X_t = y] = mu(y) P_y[X_t = x],
            # equivalently the density hk is symmetric in (x, y)
            lhs = mu_vec[geo.index(x)] * slices[x].prob[geo.index(y)]
            rhs = mu_vec[geo.index(y)] * slices[y].prob[geo.index(x)]
            assert abs(lhs - rhs) <= 1e-9
            assert abs(slices[x].hk[geo.index(y)] - slices[y].hk[geo.index(x)]) <= 1e-9


def test_truncated_series_is_clipped_at_zero():
    # at this loose tolerance the degree-4 series dips below zero at some vertices
    field = sample_environment(EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": 1.0}),
                               TorusGeometry(2, 4), 0)
    x = field.geometry.coords(15)
    s = heat_kernel(field, 10.0, x, tol=0.9)
    assert s.prob.min() == 0.0
    assert np.max(np.abs(s.prob - spectral_oracle(field, 10.0, x).prob)) <= s.trunc_error


def test_semigroup_property():
    field = sample_environment(ELLIPTIC, TorusGeometry(2, 16), 9)
    kern = jump_kernel(field)
    tol = 1e-10
    half = heat_kernel(field, 4.0, (0, 0), tol=tol, kernel=kern)
    (composed,), _ = propagate(kern, half.prob, [4.0], tol)
    direct = heat_kernel(field, 8.0, (0, 0), tol=tol, kernel=kern)
    assert np.max(np.abs(composed - direct.prob)) <= 3 * tol


def test_truncation_monotone_and_consistent():
    field = sample_environment(ELLIPTIC, GEO, 2)
    loose = heat_kernel(field, 3.0, (0, 0), tol=1e-8)
    tight = heat_kernel(field, 3.0, (0, 0), tol=1e-12)
    assert tight.trunc_error < loose.trunc_error <= 1e-8
    assert np.max(np.abs(loose.prob - tight.prob)) <= 1e-8


def test_on_diagonal_decay():
    field = sample_environment(ELLIPTIC, TorusGeometry(2, 16), 4)
    kern = jump_kernel(field)
    x = (5, 5)
    values = [heat_kernel(field, t, x, tol=1e-12, kernel=kern).hk[field.geometry.index(x)]
              for t in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_spectral_oracle_guards():
    field = sample_environment(CONSTANT, TorusGeometry(2, 128), 0)
    with pytest.raises(ValueError, match="too large"):
        spectral_oracle(field, 1.0, (0, 0))


def test_walk_time_zero_and_parity():
    field = sample_environment(ELLIPTIC, GEO, 6)
    rng = np.random.default_rng(0)
    assert simulate_walk(field, (3, 3), 0.0, rng) == (3, 3)
    for _ in range(50):
        end, jumps = simulate_walk(field, (0, 0), 3.0, rng, with_jumps=True)
        disp = min(end[0], 8 - end[0]) + min(end[1], 8 - end[1])
        assert (disp - jumps) % 2 == 0


def test_walk_matches_uniformization():
    field = sample_environment(CONSTANT, GEO, 0)
    kern = jump_kernel(field)
    t = 2.0
    slice_ = heat_kernel(field, t, (0, 0), tol=1e-12, kernel=kern)
    target = slice_.prob[GEO.index((0, 0))]
    rng = np.random.default_rng(42)
    n = 20_000
    hits = sum(1 for _ in range(n)
               if simulate_walk(field, (0, 0), t, rng, kernel=kern) == (0, 0))
    phat = hits / n
    stderr = math.sqrt(target * (1 - target) / n)
    assert abs(phat - target) <= 4 * stderr


def test_transition_profile_matches_slices():
    field = sample_environment(ELLIPTIC, GEO, 15)
    kern = jump_kernel(field)
    targets = [(0, 0), (1, 0), (3, 4)]
    profile = propagate(kern, point_mass(GEO, (0, 0)), [8.0], 1e-12,
                        targets=[GEO.index(y) for y in targets])
    for t in (0.5, 3.0, 8.0):
        s = heat_kernel(field, t, (0, 0), tol=1e-12, kernel=kern)
        for j, y in enumerate(targets):
            assert profile.hk(t)[j] == pytest.approx(s.hk[GEO.index(y)], abs=1e-12)


@functools.cache
def sweep_setup(d):
    field = sample_environment(ELLIPTIC, TorusGeometry(d, 6 if d == 2 else 4), 30 + d)
    return field, jump_kernel(field)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]),
       times=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=4),
       data=st.data())
def test_propagate_block_matches_lone_slices(d, times, data):
    field, kern = sweep_setup(d)
    geo = field.geometry
    sources = data.draw(st.lists(st.integers(0, geo.n_vertices - 1), min_size=1, max_size=4))
    points = [geo.coords(i) for i in sources]
    block = np.column_stack([point_mass(geo, x) for x in points])
    laws, tails = propagate(kern, block, times, 1e-12)
    assert len(laws) == len(tails) == len(times)
    for t, law, tail in zip(times, laws, tails):
        for j, x in enumerate(points):
            lone = heat_kernel(field, t, x, tol=1e-12, kernel=kern)
            assert np.array_equal(law[:, j], lone.prob)
            assert tail == lone.trunc_error
            # conservation up to the truncated tail, plus summation rounding
            assert abs(law[:, j].sum() - 1.0) <= tail + 1e-14
        for jx, x in enumerate(sources):
            for jy, y in enumerate(sources):
                lhs = kern.mu[x] * law[y, jx]
                rhs = kern.mu[y] * law[x, jy]
                assert abs(lhs - rhs) <= 1e-9


def full_s_terms(field, start, degree):
    """u_0 = D^-1/2 start, ..., u_degree by u_{k+1} = 2 S u_k - u_{k-1} on
    full-length vectors through all of :func:`reference_s`: the reference for
    the one-block sweep."""
    mu = field.mu_vector()
    root = np.sqrt(mu) if start.ndim == 1 else np.sqrt(mu)[:, None]
    s = reference_s(field)
    u0 = start / root
    terms = [u0, s @ u0]
    while len(terms) <= degree:
        nxt = s @ terms[-1]
        nxt *= 2.0
        nxt -= terms[-2]
        terms.append(nxt)
    return terms


def full_s_laws(field, start, times, tol):
    """Laws at ``times`` summed from :func:`full_s_terms`."""
    mu = field.mu_vector()
    root = np.sqrt(mu) if start.ndim == 1 else np.sqrt(mu)[:, None]
    scale = math.sqrt(mu.sum() / mu.min())
    series = [_series(t, tol, scale)[0] for t in times]
    terms = full_s_terms(field, start, max(len(c) for c in series) - 1)
    laws = []
    for c in series:
        acc = np.zeros_like(start)
        for k in range(1, len(c)):
            acc += c[k] * terms[k]
        laws.append(np.maximum(c[0] * start + root * acc, 0.0))
    return laws


def parity(geo, i):
    return sum(geo.coords(i)) % 2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), L=st.sampled_from([4, 6, 8]), seed=st.integers(0, 2**31 - 1),
       times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3), data=st.data())
def test_one_block_sweep_matches_full_s_bit_for_bit(d, L, seed, times, data):
    geo = TorusGeometry(d, L)
    field = sample_environment(ELLIPTIC, geo, seed)
    kern = jump_kernel(field)
    vertex = st.integers(0, geo.n_vertices - 1)
    even = data.draw(vertex.filter(lambda i: parity(geo, i) == 0))
    odd = data.draw(vertex.filter(lambda i: parity(geo, i) == 1))
    general = np.random.default_rng(seed).random(geo.n_vertices)
    general /= general.sum()
    # an even source, an odd source, and a start on both classes
    for start in (point_mass(geo, geo.coords(even)), point_mass(geo, geo.coords(odd)), general):
        laws, _ = propagate(kern, start, times, 1e-12)
        for law, ref in zip(laws, full_s_laws(field, start, times, 1e-12)):
            assert np.array_equal(law, ref)
    # a mixed-parity heat_slices request: each slice's bits equal the full
    # sweep of the whole block, whatever block the source was swept in
    sources = [geo.coords(i) for i in (even, odd)]
    table = heat_slices(kern, [(t, x) for x in sources for t in times], 1e-12)
    block = np.column_stack([point_mass(geo, x) for x in sources])
    for t, ref in zip(times, full_s_laws(field, block, times, 1e-12)):
        for j, x in enumerate(sources):
            assert np.array_equal(table[float(t), x].prob, ref[:, j])
    # targets mode: the terms T_k(P^T) start at the targets
    targets = np.array(data.draw(st.lists(vertex, min_size=1, max_size=6)))
    for start in (point_mass(geo, geo.coords(odd)), general):
        profile = propagate(kern, start, [max(times)], 1e-12, targets=targets)
        root_t = np.sqrt(kern.mu[targets])
        terms = full_s_terms(field, start, len(profile.coeff) - 1)
        ref = np.array([start[targets]] + [root_t * u[targets] for u in terms[1:len(profile.coeff)]])
        assert np.array_equal(profile.coeff, ref)


@pytest.mark.parametrize("d, L", [(2, 32), (2, 64), (3, 16), (3, 24)])
def test_staged_sweep_matches_full_s_bit_for_bit(d, L, monkeypatch):
    # tori large enough that the sweep runs on growing balls before the full
    # block; every source sits on the seam (a coordinate 0 or L - 1), so its
    # ball wraps around the torus
    geo = TorusGeometry(d, L)
    field = sample_environment(ELLIPTIC, geo, 40 + L)
    kern = jump_kernel(field)
    staged = []

    class CountingStage:
        def __init__(self, block):
            self.block = block

        @property
        def T(self):
            return CountingStage(self.block.T)

        def __matmul__(self, v):
            staged.append(v.shape)
            return self.block @ v

    stage_block = rcmlab.kernel._stage_block
    monkeypatch.setattr(rcmlab.kernel, "_stage_block",
                        lambda block, stage: CountingStage(stage_block(block, stage)))
    rest = (0,) * (d - 2)
    near = [(0, 0) + rest, (L - 1, 1) + rest, (1, L - 1) + rest]  # even, even, even
    far = [(L // 2, L - 1) + rest, (L - 1, 0) + rest, (0, L // 2 + 1) + rest]  # odd
    times = [1.5, 12.0, 48.0]
    # a start on both classes: its distances need not alternate in parity
    mixed = np.zeros(geo.n_vertices)
    mixed[[geo.index(x) for x in near + far]] = np.random.default_rng(L).random(6)
    mixed /= mixed.sum()
    for start in (point_mass(geo, near[0]), point_mass(geo, far[1]), mixed):
        laws, _ = propagate(kern, start, times, 1e-12)
        for law, ref in zip(laws, full_s_laws(field, start, times, 1e-12)):
            assert np.array_equal(law, ref)
    assert staged  # the balls ran before the full block
    # heat_slices blocks whose sources lie near each other and far apart
    sources = near + far
    table = heat_slices(kern, [(t, x) for x in sources for t in times], 1e-12)
    for group in (near, far):
        block = np.column_stack([point_mass(geo, x) for x in group])
        for t, ref in zip(times, full_s_laws(field, block, times, 1e-12)):
            for j, x in enumerate(group):
                assert np.array_equal(table[float(t), x].prob, ref[:, j])
    # targets mode, on the seam and off it, from a point and from a block
    targets = np.array([geo.index(y) for y in
                        [(0, L - 1) + rest, (3, 0) + rest, (L // 2, L // 2) + rest,
                         (L - 2, L - 1) + rest, (5, 4) + rest]])
    for start in (point_mass(geo, far[0]), mixed,
                  np.column_stack([point_mass(geo, x) for x in (near[0], near[2])])):
        staged.clear()
        profile = propagate(kern, start, [40.0], 1e-12, targets=targets)
        assert staged
        root_t = np.sqrt(kern.mu[targets])
        if start.ndim == 2:
            root_t = root_t[:, None]
        terms = full_s_terms(field, start, len(profile.coeff) - 1)
        ref = np.array([start[targets]] + [root_t * u[targets] for u in terms[1:len(profile.coeff)]])
        assert np.array_equal(profile.coeff, ref)


def test_mixed_parity_heat_slices_do_one_half_product_per_column_per_term(monkeypatch):
    geo = TorusGeometry(2, 8)
    kern = jump_kernel(sample_environment(ELLIPTIC, geo, 4))
    columns = {"block": [], "block.T": []}

    class CountingBlock:
        """Counts the columns of every product by a block or a stage's
        sub-block and by its transpose, each at most half-size."""

        def __init__(self, block, name="block"):
            self.block, self.name = block, name
            self.data = block.data

        @property
        def T(self):
            return CountingBlock(self.block.T, "block.T")

        def __matmul__(self, v):
            assert v.shape[0] == self.block.shape[1] <= geo.n_vertices // 2
            columns[self.name].append(v.shape[1])
            return self.block @ v

    stage_block = rcmlab.kernel._stage_block
    monkeypatch.setattr(rcmlab.kernel, "_stage_block",
                        lambda block, stage: CountingBlock(stage_block(block, stage)))
    counted = dataclasses.replace(kern, block=CountingBlock(kern.block))
    sources = [(0, 0), (1, 0), (0, 1), (3, 5), (2, 5)]  # two even, three odd
    heat_slices(counted, [(t, x) for x in sources for t in (2.0, 6.0)], 1e-12)
    scale = math.sqrt(kern.mu.sum() / kern.mu.min())
    degree = len(_series(6.0, 1e-12, scale)[0]) - 1
    assert all(columns.values())  # both classes' products went through the counter
    assert sum(map(sum, columns.values())) == len(sources) * degree


def poisson_sweep(field, start, t, tol):
    """The Poisson jump series sum_n e^-t t^n / n! (P^T)^n start, cut where the
    Poisson tail drops below tol: the reference for the Chebyshev sweep.
    Returns the terms (P^T)^n start, the law and the dropped tail."""
    weights, tail = poisson_weights(t, tol)
    pt = reference_p(field).T.tocsr()
    terms = [start]
    for _ in weights[1:]:
        terms.append(pt @ terms[-1])
    terms = np.array(terms)
    return terms, np.tensordot(weights, terms, axes=1), tail


@functools.cache
def reference_setup(d):
    field = sample_environment(ELLIPTIC, TorusGeometry(d, 8 if d == 2 else 6), 50 + d)
    return field, jump_kernel(field)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), t=st.floats(0.0, 64.0), data=st.data())
def test_chebyshev_sweep_matches_poisson_reference(d, t, data):
    field, kern = reference_setup(d)
    geo = field.geometry
    sources = data.draw(st.lists(st.integers(0, geo.n_vertices - 1), min_size=1, max_size=4))
    block = np.column_stack([point_mass(geo, geo.coords(i)) for i in sources])
    (law,), (bound,) = propagate(kern, block, [t], 1e-12)
    terms, ref, ref_tail = poisson_sweep(field, block, t, 1e-12)
    # both certificates bound the sup-norm error; 1e-15 is summation rounding
    assert np.max(np.abs(law - ref)) <= bound + ref_tail + 1e-15
    # Green heads over [0, T] from the first source to every vertex: the
    # reference integrates the Poisson mixture termwise, sum_n a_n gammainc(n + 1, T)
    big_t = data.draw(st.floats(0.0, t))
    profile = propagate(kern, block[:, 0], [t], 1e-12, targets=np.arange(geo.n_vertices))
    head = _head_integral(profile, big_t)
    n = np.arange(len(terms))
    ref_head = scipy.special.gammainc(n + 1, big_t) @ terms[:, :, 0] / kern.mu
    slack = big_t * (profile.trunc_error + ref_tail) / kern.mu
    assert np.all(np.abs(head - ref_head) <= slack + 1e-15 * (1.0 + ref_head))


def test_chebyshev_matches_expm_multiply_beyond_dense_limit():
    geo = TorusGeometry(3, 24)
    assert geo.n_vertices > _DENSE_LIMIT
    field = sample_environment(ELLIPTIC, geo, 24)
    kern = jump_kernel(field)
    generator = (reference_p(field).T - sp.identity(geo.n_vertices, format="csr")).tocsr()
    start = point_mass(geo, (0, 0, 0))
    with pytest.raises(ValueError):
        poisson_weights(2048.0, 1e-12)  # the Poisson series cannot reach t = 2048
    for t in (512.0, 2048.0):
        s = heat_kernel(field, t, (0, 0, 0), tol=1e-12, kernel=kern)
        ref = expm_multiply(t * generator, start)
        assert np.max(np.abs(s.prob - ref)) <= s.trunc_error + 1e-15


# P(w <= eps) = eps**delta makes E 1/w infinite for delta <= 1; at delta =
# 0.05 mu spans seven to twelve orders of magnitude on these tori
HEAVY_TAIL_ZERO = [EnvironmentSpec("iid", {"marginal": "heavy-tail-zero", "delta": delta})
                   for delta in (1.0, 0.25, 0.05)]


@pytest.mark.parametrize("spec", FAMILIES + HEAVY_TAIL_ZERO,
                         ids=[spec.kind for spec in FAMILIES]
                         + [f"heavy-tail-zero-{spec.params['delta']}" for spec in HEAVY_TAIL_ZERO])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(d_L=st.sampled_from([(2, 6), (2, 8), (3, 6)]),
       seed=st.integers(0, 2**31 - 1), times=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3),
       data=st.data())
def test_heat_slices_match_expm_multiply_on_every_family(spec, d_L, seed, times, data):
    # an oracle independent of S and of its colour split: e^{t(P^T - I)} from
    # scipy's Al-Mohy and Higham action on the table-order jump matrix
    field = sample_environment(spec, TorusGeometry(*d_L), seed)
    geo = field.geometry
    kern = jump_kernel(field)
    sources = data.draw(st.lists(st.integers(0, geo.n_vertices - 1), min_size=1, max_size=3,
                                 unique=True))
    points = [geo.coords(i) for i in sources]
    table = heat_slices(kern, [(t, x) for x in points for t in times], 1e-12)
    generator = (reference_p(field).T - sp.identity(geo.n_vertices, format="csr")).tocsr()
    starts = np.column_stack([point_mass(geo, x) for x in points])
    for t in times:
        # at t = 5e-324 the scaled generator's norm underflows to zero, and
        # scipy takes no step and returns the start, dividing by zero for a
        # step factor it never uses
        with np.errstate(divide="ignore"):
            ref = expm_multiply(t * generator, starts)
        for j, x in enumerate(points):
            s = table[float(t), x]
            assert np.max(np.abs(s.prob - ref[:, j])) <= s.trunc_error + 1e-15


@pytest.mark.parametrize("spec", FAMILIES + HEAVY_TAIL_ZERO,
                         ids=[spec.kind for spec in FAMILIES]
                         + [f"heavy-tail-zero-{spec.params['delta']}" for spec in HEAVY_TAIL_ZERO])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(d_L=st.sampled_from([(2, 6), (2, 8), (3, 6)]),
       seed=st.integers(0, 2**31 - 1), t_max=st.floats(0.0, 30.0), data=st.data())
def test_profile_meets_expm_multiply_within_each_targets_bound(spec, d_L, seed, t_max, data):
    # a profile stops at the degree its largest target needs, so each target
    # y is checked against its own bound sqrt(mu(y) / mu(x)) sum_{k > K} c_k(t)
    field = sample_environment(spec, TorusGeometry(*d_L), seed)
    geo = field.geometry
    kern = jump_kernel(field)
    vertex = st.integers(0, geo.n_vertices - 1)
    x = data.draw(vertex)
    targets = np.array(data.draw(st.lists(vertex, min_size=1, max_size=6)))
    start = point_mass(geo, geo.coords(x))
    profile = propagate(kern, start, [t_max], 1e-12, targets=targets)
    ratio = np.sqrt(kern.mu[targets] / kern.mu[x])

    def dropped(t):  # sum_{k > K} c_k(t), summed from the small end
        k = np.arange(len(profile.coeff), len(profile.coeff) + 200)
        return 2.0 * scipy.special.ive(k[::-1], t).sum()

    # each target reports its own bound; the degree is the largest target's
    assert profile.trunc_error == pytest.approx(ratio * dropped(t_max), rel=1e-9, abs=0)
    assert profile.trunc_error.max() <= 1e-12
    generator = (reference_p(field).T - sp.identity(geo.n_vertices, format="csr")).tocsr()
    for t in data.draw(st.lists(st.floats(0.0, t_max), max_size=2)) + [t_max]:
        # at t = 5e-324 the scaled generator's norm underflows to zero, and
        # scipy takes no step and returns the start, dividing by zero for a
        # step factor it never uses
        with np.errstate(divide="ignore"):
            ref = expm_multiply(t * generator, start)[targets]
        assert np.all(np.abs(profile.prob(t) - ref) <= ratio * dropped(t) + 1e-15)


# sha256 digests taken from the full-matrix oracles these replace: the dense S
# and the walk's jump probabilities must keep every bit
ORACLE_PINS = [
    (CONSTANT, TorusGeometry(2, 8), 0, (1, 2),
     "3bb821104de3866ef5c4f92431bacd6e63e6bdeae2887c231536972aaeb25b53",
     "5f125f7ac62a4627dc6247191e70c829231b5b6e5799d9bf4be75596c5c1d641"),
    (ELLIPTIC, TorusGeometry(2, 8), 5, (1, 2),
     "a723027b15ecf00921e348ecddd739a032e1b66db35bc7e2ab079b8d92c7cae4",
     "ad472cafe175433e8e28c54a73c959d6c0e5ce036b1fb5a373187e5880c79f24"),
    (EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": 1.0}), TorusGeometry(3, 4), 3,
     (1, 0, 3),
     "c916e1d60d92e7455322f284e3ab679dc69a69c5850aebc9f607855345c35ec7",
     "174c2dfb046343ff0bdb3f4aea7a2c7bb7c8fb0aaa61f7b32a4436c14c8a5482"),
]


@pytest.mark.parametrize("spec, geo, seed, x, oracle_pin, walk_pin", ORACLE_PINS,
                         ids=["constant", "elliptic", "lognormal-3d"])
def test_oracle_and_walk_bits_are_pinned(spec, geo, seed, x, oracle_pin, walk_pin):
    field = sample_environment(spec, geo, seed)
    prob = spectral_oracle(field, 3.0, x).prob
    assert hashlib.sha256(prob.tobytes()).hexdigest() == oracle_pin
    rng = np.random.default_rng(7)
    ends = [simulate_walk(field, x, 4.0, rng, with_jumps=True) for _ in range(50)]
    assert hashlib.sha256(repr(ends).encode()).hexdigest() == walk_pin
