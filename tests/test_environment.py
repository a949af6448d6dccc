import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcmlab.environment
import rcmlab.seeding
from rcmlab.environment import (ConductanceField, EnvironmentSpec, _incident_sum,
                                _replica_chunks, avg_norm, field_to_csv, mu, nu, read_field,
                                sample_environment, shift, write_field)
from rcmlab.lattice import TorusGeometry
from rcmlab.moments import annealed_power_mean
from rcmlab.seeding import child_seed, rng_for

GEO = TorusGeometry(2, 8)


def test_constant_field_all_edges_one():
    field = sample_environment(EnvironmentSpec("constant", {"level": 1.0}), GEO, 3)
    assert np.all(field.values == 1.0)
    assert mu(field, (0, 0)) == 4.0
    assert nu(field, (0, 0)) == 4.0


def test_elliptic_support():
    spec = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})
    field = sample_environment(spec, GEO, 11)
    assert field.values.min() >= 0.5
    assert field.values.max() <= 2.0


def test_determinism_bit_identical():
    for kind, params in [
        ("uniform-elliptic-iid", {"low": 0.5, "high": 2.0}),
        ("iid", {"marginal": "lognormal", "sigma": 1.0}),
        ("finite-range", {"range": 3}),
        ("gaussian-fkg", {"mass": 1.0}),
        ("na-permutation", {"block": 4}),
    ]:
        spec = EnvironmentSpec(kind, params)
        a = sample_environment(spec, GEO, 99)
        b = sample_environment(spec, GEO, 99)
        assert np.array_equal(a.values, b.values), kind
        c = sample_environment(spec, GEO, 100)
        assert not np.array_equal(a.values, c.values), kind


def test_mu_nu_prescribed_edges():
    # incident edges at the origin: 1, 2, 4, 8
    values = np.ones((GEO.n_vertices, 2))
    values[GEO.index((0, 0)), 0] = 1.0  # to +e1
    values[GEO.index((0, 0)), 1] = 2.0  # to +e2
    values[GEO.index((7, 0)), 0] = 4.0  # from -e1 side
    values[GEO.index((0, 7)), 1] = 8.0  # from -e2 side
    field = ConductanceField(GEO, values, EnvironmentSpec("constant"), 0)
    assert mu(field, (0, 0)) == 15.0
    assert nu(field, (0, 0)) == pytest.approx(1.875)


def test_mu_nu_cauchy_schwarz():
    spec = EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": 1.2})
    field = sample_environment(spec, GEO, 21)
    product = field.mu_vector() * field.nu_vector()
    assert np.all(product >= (2 * GEO.d) ** 2 - 1e-9)


def test_shift_group_action():
    spec = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})
    field = sample_environment(spec, GEO, 8)
    assert np.array_equal(shift(field, (0, 0)).values, field.values)
    roundtrip = shift(shift(field, (3, 2)), (-3, -2))
    assert np.array_equal(roundtrip.values, field.values)
    two_steps = shift(shift(field, (1, 2)), (2, 1)).values
    assert np.array_equal(two_steps, shift(field, (3, 3)).values)
    const = sample_environment(EnvironmentSpec("constant"), GEO, 0)
    assert np.array_equal(shift(const, (5, 1)).values, const.values)
    # shifted mu agrees with mu at the shifted point
    moved = shift(field, (2, 5))
    assert mu(moved, (0, 0)) == pytest.approx(mu(field, (2, 5)))


def _reference_shift(field, z):
    """The per-vertex permutation loop that ``shift`` replaces with np.roll."""
    geo = field.geometry
    perm = np.empty(geo.n_vertices, dtype=np.int64)
    for i in range(geo.n_vertices):
        c = geo.coords(i)
        perm[i] = geo.index(tuple(ci + zi for ci, zi in zip(c, z)))
    return field.values[perm, :]


@pytest.mark.parametrize("d, L, z", [(2, 8, (3, 2)), (2, 8, (-3, 5)), (2, 8, (17, -9)),
                                     (2, 6, (0, -6)), (3, 4, (1, 2, 3)),
                                     (3, 6, (-1, 13, -20)), (3, 6, (6, 0, -7))])
def test_shift_matches_reference_loop(d, L, z):
    geo = TorusGeometry(d, L)
    spec = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})
    field = sample_environment(spec, geo, 5)
    assert np.array_equal(shift(field, z).values, _reference_shift(field, z))


FAMILIES = [
    EnvironmentSpec("constant", {"level": 1.5}),
    EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0}),
    EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": 1.0}),
    EnvironmentSpec("finite-range", {"range": 3, "link": "exp"}),
    EnvironmentSpec("gaussian-fkg", {"mass": 0.5, "scale": 0.7}),
    EnvironmentSpec("na-permutation", {"block": 2}),
]


@pytest.mark.parametrize("d, L", [(2, 8), (3, 6), (4, 6)])
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
def test_mu_nu_match_reference_sums(spec, d, L):
    geo = TorusGeometry(d, L)
    field = sample_environment(spec, geo, 17)
    table = geo.neighbor_table()
    for weights, vec in ((field.values, field.mu_vector()),
                         (1.0 / field.values, field.nu_vector())):
        # the row sum plus back-neighbor gathers the vectors used to be built from
        total = weights.sum(axis=1)
        for a in range(d):
            total = total + weights[table[:, d + a], a]
        assert np.array_equal(vec, total)
        assert not vec.flags.writeable


def _reference_table(d, L):
    """Neighbor table built in the test: column a is +e_a, column d + a is -e_a."""
    idx = np.arange(L**d).reshape((L,) * d)
    return np.stack([np.roll(idx, shift, axis=a).reshape(-1)
                     for shift in (-1, 1) for a in range(d)], axis=1)


def _gather_sum(weights, table):
    """The per-field neighbor-table sum mu and nu were built from before the
    stencil: forward columns in order, then each backward gather."""
    d = weights.shape[1]
    total = weights[:, 0]
    for a in range(1, d):
        total = total + weights[:, a]
    for a in range(d):
        total = total + weights[table[:, d + a], a]
    return total


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), half_side=st.integers(1, 6), m=st.integers(1, 5),
       seed=st.integers(0, 2**32))
def test_stacked_stencil_matches_per_field_gathers(d, half_side, m, seed):
    L = 2 * min(half_side, {1: 6, 2: 6, 3: 4, 4: 3}[d])
    # the stencil reads only d and L, so d = 1 (no TorusGeometry) works too
    geo = SimpleNamespace(d=d, L=L)
    table = _reference_table(d, L)
    weights = np.random.default_rng(seed).lognormal(0.0, 1.5, (m, L**d, d))
    for stack in (weights, 1.0 / weights):  # mu, then nu
        expected = np.stack([_gather_sum(w, table) for w in stack])
        assert np.array_equal(_incident_sum(geo, stack), expected)
        for w, row in zip(stack, expected):
            assert np.array_equal(_incident_sum(geo, w), row)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(FAMILIES), d=st.sampled_from([2, 3]),
       z=st.lists(st.integers(-20, 20), min_size=3, max_size=3), seed=st.integers(0, 2**32))
def test_shift_rolls_mu_and_nu(spec, d, z, seed):
    geo = TorusGeometry(d, 8 if d == 2 else 6)
    field = sample_environment(spec, geo, seed)
    moved = shift(field, z[:d])
    grid = (geo.L,) * d
    # the shifted field's mu at x is the old mu at x + z
    for old, new in ((field.mu_vector(), moved.mu_vector()),
                     (field.nu_vector(), moved.nu_vector())):
        rolled = np.roll(old.reshape(grid), [-c for c in z[:d]], axis=tuple(range(d)))
        assert np.array_equal(new, rolled.reshape(-1))


EVERY_KIND = [
    EnvironmentSpec("constant", {"level": 1.5}),
    EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0}),
    EnvironmentSpec("iid", {"marginal": "uniform", "low": 0.5, "high": 2.0}),
    EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": 1.0}),
    EnvironmentSpec("iid", {"marginal": "heavy-tail-zero", "delta": 0.5}),
    EnvironmentSpec("finite-range", {"range": 3}),
    EnvironmentSpec("finite-range", {"range": 3, "link": "exp", "scale": 2.0}),
    EnvironmentSpec("gaussian-fkg", {"mass": 0.5, "scale": 0.7}),
    EnvironmentSpec("na-permutation", {"block": 2}),
]


@pytest.mark.parametrize("geo", [TorusGeometry(2, 8), TorusGeometry(3, 6)], ids=["8^2", "6^3"])
@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda spec: spec.canonical_json())
def test_replica_chunks_stack_the_single_fields(monkeypatch, spec, geo):
    # three replicas per chunk, so eight replicas span three chunks
    monkeypatch.setattr(rcmlab.environment, "_CHUNK_BYTES", 3 * geo.n_vertices * geo.d * 8)
    for seed, stream in ((0, 0), (7, 1), (2**64 + 3, 2)):
        chunks = list(_replica_chunks(spec, geo, seed, stream, 8))
        assert [start for start, _ in chunks] == [0, 3, 6]
        stacked = np.concatenate([values for _, values in chunks])
        single = np.stack([sample_environment(spec, geo, child_seed(seed, stream, i)).values
                           for i in range(8)])
        assert stacked.tobytes() == single.tobytes()


def test_constant_ensemble_makes_no_generators(monkeypatch):
    def no_generators(self):
        raise AssertionError("a constant field draws nothing")

    monkeypatch.setattr(rcmlab.seeding.ReplicaRngs, "__iter__", no_generators)
    constant = EnvironmentSpec("constant", {"level": 1.5})
    ((start, values),) = _replica_chunks(constant, GEO, 3, 0, 1000)
    assert start == 0 and values.shape == (1000, GEO.n_vertices, 2) and np.all(values == 1.5)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        next(_replica_chunks(constant, GEO, -1, 0, 1000))
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        sample_environment(constant, GEO, -1)


def test_avg_norm():
    const = sample_environment(EnvironmentSpec("constant"), GEO, 0)
    region = [(0, 0), (1, 0), (2, 2)]
    assert avg_norm(const, "mu", 2, region) == pytest.approx(4.0)
    spec = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})
    field = sample_environment(spec, GEO, 12)
    vals = [mu(field, p) for p in region]
    assert avg_norm(field, "mu", math.inf, region) == pytest.approx(max(vals))
    assert avg_norm(field, "mu", 3, [(1, 1)]) == pytest.approx(mu(field, (1, 1)))
    with pytest.raises(ValueError):
        avg_norm(field, "mu", 2, [])
    with pytest.raises(ValueError):
        avg_norm(field, "sigma", 2, region)


def test_estimate_moments_constant():
    means = annealed_power_mean(EnvironmentSpec("constant"), GEO, {"mu": 3, "nu": 1},
                                n_fields=8, seed=1)
    assert means == {"mu": 64.0, "nu": 4.0}
    degenerate = annealed_power_mean(
        EnvironmentSpec("uniform-elliptic-iid", {"low": 1.0, "high": 1.0}), GEO, {"mu": 3},
        n_fields=8, seed=1)
    assert degenerate == {"mu": 64.0}


def test_estimate_moments_uniform_mean():
    spec = EnvironmentSpec("iid", {"marginal": "uniform", "low": 1.0, "high": 2.0})
    n_fields = 400
    means = annealed_power_mean(spec, GEO, {"mu": 1}, n_fields=n_fields, seed=7)
    # the spatial mean of mu is 4 times the mean of the torus's 2 * 64 edges,
    # each of variance 1/12: replica variance 16 / (12 * 128) = 1 / 96
    stderr = math.sqrt(1.0 / (96 * n_fields))
    assert abs(means["mu"] - 6.0) <= 4 * stderr


def test_estimate_moments_overflow_names_sample():
    # finite-range's E nu has no closed form; nu^500 overflows where nu > 4.2, as in replica 0
    spec = EnvironmentSpec("finite-range", {"range": 3})
    with pytest.raises(ValueError, match="replica 0"):
        annealed_power_mean(spec, GEO, {"mu": 1, "nu": 500.0}, n_fields=10, seed=3)
    with pytest.raises(ValueError, match="two samples"):
        annealed_power_mean(EnvironmentSpec("constant"), GEO, {"mu": 1}, n_fields=1)


def _edge_samples(spec, geo, edge_ids, n, seed):
    out = np.empty((len(edge_ids), n))
    for i in range(n):
        field = sample_environment(spec, geo, child_seed(seed, 0, i))
        flat = field.values.reshape(-1)
        out[:, i] = flat[edge_ids]
    return out


def test_finite_range_independence():
    geo = TorusGeometry(2, 16)
    spec = EnvironmentSpec("finite-range", {"range": 3})
    # edge distance = min over endpoint pairs: {(0,0),(1,0)} vs {(4,0),(5,0)}
    # are 3 apart and must be independent; adjacent edges must correlate
    near_id = geo.index((0, 0)) * 2
    far_id = geo.index((4, 0)) * 2
    corr_id = geo.index((1, 0)) * 2
    data = _edge_samples(spec, geo, [near_id, far_id, corr_id], 3000, 4)
    f, g, h = data
    covs = np.cov(f, g)[0, 1]
    prods = (f - f.mean()) * (g - g.mean())
    stderr = prods.std(ddof=1) / math.sqrt(len(f))
    assert abs(covs) <= 4 * stderr
    near_cov = np.cov(f, h)[0, 1]
    assert near_cov > 0


def test_finite_range_needs_room():
    with pytest.raises(ValueError, match="too small"):
        sample_environment(EnvironmentSpec("finite-range", {"range": 5}), GEO, 0)


def test_gaussian_fkg_pairwise_positive():
    geo = TorusGeometry(2, 8)
    spec = EnvironmentSpec("gaussian-fkg", {"mass": 1.0})
    ids = [geo.index((0, 0)) * 2, geo.index((0, 0)) * 2 + 1,
           geo.index((1, 0)) * 2, geo.index((3, 3)) * 2]
    data = _edge_samples(spec, geo, ids, 3000, 9)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            f, g = data[i], data[j]
            cov = np.cov(f, g)[0, 1]
            prods = (f - f.mean()) * (g - g.mean())
            stderr = prods.std(ddof=1) / math.sqrt(data.shape[1])
            assert cov >= -3 * stderr


def _complex_fft_gaussian(params, geometry, seed):
    """One gaussian-fkg field from complex transforms of the same noise: the
    full spectrum, with the imaginary rounding dropped."""
    d, L = geometry.d, geometry.L
    noise = rng_for(seed).standard_normal((L,) * d)
    spectrum = rcmlab.environment._gaussian_spectrum(params, geometry)
    phi = np.fft.ifftn(np.sqrt(spectrum) * np.fft.fftn(noise)).real
    return np.stack([np.exp(params["scale"] * (phi + np.roll(phi, -1, axis=a))).ravel()
                     for a in range(d)], axis=1)


@pytest.mark.parametrize("d, L", [(2, 8), (2, 64), (3, 16)])
def test_gaussian_real_fft_matches_the_complex_transform(d, L):
    geo = TorusGeometry(d, L)
    spec = EnvironmentSpec("gaussian-fkg", {"mass": 0.5, "scale": 0.7})
    seeds = [child_seed(4, 0, i) for i in range(3)]
    stacked = rcmlab.environment._sample_values(spec, geo, [rng_for(s) for s in seeds])
    for values, seed in zip(stacked, seeds):
        expected = _complex_fft_gaussian(spec.resolved, geo, seed)
        assert np.allclose(values, expected, rtol=1e-12, atol=0)


def test_na_permutation_nonpositive():
    geo = TorusGeometry(2, 8)
    spec = EnvironmentSpec("na-permutation", {"block": 4})
    # disjoint edges inside one block: strictly negative dependence
    ids = [geo.index((0, 0)) * 2, geo.index((1, 1)) * 2]
    data = _edge_samples(spec, geo, ids, 3000, 13)
    f, g = data
    cov = np.cov(f, g)[0, 1]
    prods = (f - f.mean()) * (g - g.mean())
    stderr = prods.std(ddof=1) / math.sqrt(data.shape[1])
    assert cov <= 3 * stderr


def test_na_permutation_block_divides():
    with pytest.raises(ValueError, match="divide"):
        sample_environment(EnvironmentSpec("na-permutation", {"block": 3}), GEO, 0)


def _reference_permutation(params, geometry, seed):
    """The per-vertex scatter loop the na-permutation sampler vectorizes."""
    rng = rng_for(seed)
    block, d, L = int(params["block"]), geometry.d, geometry.L
    per_block = d * block**d
    levels = 0.5 + (np.arange(per_block) + 0.5) * 1.5 / per_block
    blocks_per_axis = L // block
    shuffled = rng.permuted(np.tile(levels, (blocks_per_axis**d, 1)), axis=1)
    values = np.empty((geometry.n_vertices, d))
    offsets = list(itertools.product(range(block), repeat=d))
    for b, origin in enumerate(itertools.product(range(blocks_per_axis), repeat=d)):
        slot = 0
        for off in offsets:
            vi = geometry.index(tuple(o * block + q for o, q in zip(origin, off)))
            for a in range(d):
                values[vi, a] = shuffled[b, slot]
                slot += 1
    return values


@pytest.mark.parametrize("d, L, block", [(2, 8, 1), (2, 8, 2), (2, 16, 4),
                                         (3, 12, 1), (3, 12, 2), (3, 12, 3), (3, 12, 4)])
def test_na_permutation_matches_reference_scatter(d, L, block):
    geo = TorusGeometry(d, L)
    params = {"block": block}
    field = sample_environment(EnvironmentSpec("na-permutation", params), geo, 31)
    assert np.array_equal(field.values, _reference_permutation(params, geo, 31))


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown environment kind"):
        EnvironmentSpec("percolation")
    with pytest.raises(ValueError, match="unknown parameters"):
        EnvironmentSpec("constant", {"mass": 2.0})
    with pytest.raises(ValueError):
        EnvironmentSpec("uniform-elliptic-iid", {"low": 0.0, "high": 1.0})
    with pytest.raises(ValueError):
        EnvironmentSpec("gaussian-fkg", {"mass": -1.0})
    # wrong types are a ValueError too, and a bool is not a number
    for kind, params in [("iid", {"sigma": None}), ("iid", {"delta": "0.5"}),
                         ("iid", {"marginal": "cauchy"}), ("finite-range", {"range": True}),
                         ("finite-range", {"link": ["exp"]}), ("na-permutation", {"block": 2.5})]:
        with pytest.raises(ValueError):
            EnvironmentSpec(kind, params)
    with pytest.raises(ValueError, match="unknown environment kind"):
        EnvironmentSpec.from_dict({"kind": ["constant"]})
    assert EnvironmentSpec("gaussian-fkg").certified_assumptions == (
        "positive-association", "spectral-gap")


@pytest.mark.parametrize("kind", sorted(rcmlab.environment.FAMILIES))
def test_default_spec_is_the_spelled_out_defaults(kind):
    defaults = rcmlab.environment.FAMILIES[kind]
    bare, spelled = EnvironmentSpec(kind), EnvironmentSpec(kind, dict(defaults))
    assert bare.to_dict() == {"kind": kind}
    assert spelled.to_dict() == {"kind": kind, **defaults}
    assert bare.resolved == spelled.resolved == defaults
    assert np.array_equal(sample_environment(bare, GEO, 5).values,
                          sample_environment(spelled, GEO, 5).values)
    # exact wherever the family has a closed form, else the same Monte Carlo
    powers = {"mu": 2, "nu": 2}
    assert (annealed_power_mean(bare, GEO, powers, n_fields=4, seed=5)
            == annealed_power_mean(spelled, GEO, powers, n_fields=4, seed=5))


def test_field_roundtrip(tmp_path):
    spec = EnvironmentSpec("uniform-elliptic-iid", {"low": 0.5, "high": 2.0})
    field = sample_environment(spec, GEO, 77)
    path = tmp_path / "f.rcm"
    write_field(field, path)
    write_field(field, tmp_path / "f2.rcm")
    assert (tmp_path / "f.rcm").read_bytes() == (tmp_path / "f2.rcm").read_bytes()
    loaded = read_field(path)
    assert np.array_equal(loaded.values, field.values)
    assert loaded.spec.kind == field.spec.kind
    assert loaded.seed == field.seed
    assert loaded.geometry == field.geometry


@pytest.mark.parametrize("d, L", [(2, 8), (3, 6)])
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1))
def test_field_roundtrip_every_family(tmp_path_factory, spec, d, L, seed):
    field = sample_environment(spec, TorusGeometry(d, L), seed)
    path = tmp_path_factory.mktemp("rcm") / "f.rcm"
    write_field(field, path)
    loaded = read_field(path)
    assert np.array_equal(loaded.values, field.values)
    assert loaded.spec == field.spec
    assert loaded.seed == field.seed
    assert loaded.geometry == field.geometry


def test_field_bad_magic(tmp_path):
    spec = EnvironmentSpec("constant")
    field = sample_environment(spec, GEO, 0)
    path = tmp_path / "f.rcm"
    write_field(field, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad format"):
        read_field(path)
    truncated = tmp_path / "t.rcm"
    truncated.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ValueError):
        read_field(truncated)


def test_field_csv_export(tmp_path):
    field = sample_environment(EnvironmentSpec("constant"), GEO, 0)
    path = tmp_path / "f.csv"
    field_to_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,axis,value"
    assert len(lines) == 1 + GEO.n_edges


def _reference_field_csv(field, path):
    """The per-edge row loop that ``field_to_csv`` replaces."""
    geo = field.geometry
    with open(path, "w", newline="") as fh:
        cols = [f"x{i + 1}" for i in range(geo.d)] + ["axis", "value"]
        fh.write(",".join(cols) + "\r\n")
        for i in range(geo.n_vertices):
            coords = geo.coords(i)
            for a in range(geo.d):
                row = [str(c) for c in coords] + [str(a + 1), repr(float(field.values[i, a]))]
                fh.write(",".join(row) + "\r\n")


@pytest.mark.parametrize("d, L", [(2, 12), (3, 6)])
def test_field_csv_matches_reference_rows(tmp_path, d, L):
    spec = EnvironmentSpec("iid", {"marginal": "lognormal", "sigma": 2.0})
    field = sample_environment(spec, TorusGeometry(d, L), 9)
    field_to_csv(field, tmp_path / "new.csv")
    _reference_field_csv(field, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
