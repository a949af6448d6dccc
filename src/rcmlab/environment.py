"""Random conductance fields on the torus.

A conductance field assigns a positive weight to every nearest-neighbor edge.
Weights are stored as an (n_vertices, d) array: entry (x, a) is the weight of
the edge from x to its +e_a neighbor, so symmetry w(x, y) = w(y, x) holds by
construction.  For a field w we write

    mu(x) = sum of the 2d weights incident to x,
    nu(x) = sum of the 2d reciprocal weights incident to x.

Sampler families
----------------
constant             every edge equals a fixed level.
uniform-elliptic-iid i.i.d. Uniform[low, high] edges, bounded away from 0.
iid                  i.i.d. edges with a configurable marginal (uniform,
                     lognormal, or a heavy-tailed-at-zero power law; the
                     latter is exploratory, no bound checks are promised).
finite-range         per-vertex i.i.d. uniforms smoothed by an l1 moving
                     average, pushed through an increasing link and averaged
                     over edge endpoints.  Edges at l1 distance >= range are
                     exactly independent (disjoint input windows).
gaussian-fkg         w({x,y}) = exp(scale * (phi(x) + phi(y))) for a
                     stationary centered Gaussian field phi with spectral
                     density 1 / (lattice Laplacian + mass^2), sampled by a
                     real-input FFT of white noise (half spectrum).
                     The covariance kernel is pointwise positive, so the
                     field is positively associated.
na-permutation       edges partitioned into spatial blocks; each block gets a
                     fixed multiset of values in a uniformly random order.
                     Permutation distributions are negatively associated, and
                     independent blocks preserve that.

Sampling is a deterministic function of (spec, geometry, seed), and the
one-edge marginal law is the same at every edge.

There is one sampler, which draws a stack of fields, one per generator, as
an (n, n_vertices, d) array: each field draws from its own generator, and the
deterministic rest (FFT, moving average, rolls, exponentials, scatter) runs
once on the stack.  :func:`sample_environment` is its one-field case, on
``rng_for(seed)``.  Monte Carlo ensembles read the stack in chunks of at most
``_CHUNK_BYTES`` of weights, replica i on the generator
``rng_for(child_seed(seed, stream, i))``, seeded for the whole ensemble at
once by :func:`rcmlab.seeding.replica_rngs`.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

from .lattice import TorusGeometry
from .seeding import replica_rngs, rng_for

MAGIC = b"RCM1"
FORMAT_VERSION = "0.1.0"

_UNIFORM = {"low": 0.5, "high": 2.0}

# every family's parameters and their defaults, stated once; an int default
# marks an integer parameter, a str default one of its _CHOICES
FAMILIES = {
    "constant": {"level": 1.0},
    "uniform-elliptic-iid": {**_UNIFORM},
    "iid": {"marginal": "uniform", **_UNIFORM, "sigma": 1.0, "delta": 0.5},
    "finite-range": {"range": 3, "link": "affine", **_UNIFORM, "scale": 1.0},
    "gaussian-fkg": {"mass": 1.0, "scale": 1.0},
    "na-permutation": {"block": 2, **_UNIFORM},
}
_CHOICES = {"marginal": ("uniform", "lognormal", "heavy-tail-zero"), "link": ("affine", "exp")}

# decorrelation properties each sampler family is certified to satisfy
CERTIFIED_ASSUMPTIONS = {
    "constant": ("positive-association", "spectral-gap", "finite-range",
                 "negative-association"),
    "uniform-elliptic-iid": ("positive-association", "finite-range",
                             "negative-association"),
    "iid": ("positive-association", "finite-range", "negative-association"),
    "finite-range": ("finite-range",),
    "gaussian-fkg": ("positive-association", "spectral-gap"),
    "na-permutation": ("negative-association",),
}


@dataclass(frozen=True)
class EnvironmentSpec:
    """Named sampler family plus its parameters as given (see ``resolved``)."""

    kind: str
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in FAMILIES:
            raise ValueError(f"unknown environment kind {self.kind!r}")
        object.__setattr__(self, "params", dict(self.params))
        _validate_params(self)

    @property
    def resolved(self):
        """Every parameter of the family: the given ones, else the defaults."""
        return {**FAMILIES[self.kind], **self.params}

    @property
    def certified_assumptions(self):
        return CERTIFIED_ASSUMPTIONS[self.kind]

    def to_dict(self):
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("environment spec must be a JSON object with a 'kind'")
        params = dict(data)
        return cls(params.pop("kind"), params)

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _validate_params(spec):
    """Each given parameter is known and one of its choices or a positive number."""
    defaults = FAMILIES[spec.kind]
    unknown = set(spec.params) - set(defaults)
    _require(not unknown, f"unknown parameters for {spec.kind}: {sorted(unknown)}")
    for name, value in spec.params.items():
        if isinstance(defaults[name], str):
            _require(value in _CHOICES[name], f"{name} must be one of {_CHOICES[name]}")
            continue
        _require(isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0,
                 f"{name} must be a positive number, not {value!r}")
        _require(isinstance(defaults[name], float) or isinstance(value, int)
                 or value.is_integer(), f"{name} must be a positive integer")
    p = spec.resolved
    if spec.kind == "na-permutation":
        _require(p["low"] < p["high"], "need 0 < low < high")
    elif "low" in p:
        _require(p["low"] <= p["high"], "need 0 < low <= high")


class ConductanceField:
    """Immutable positive edge weights on a torus, with sampling provenance."""

    def __init__(self, geometry, values, spec, seed):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (geometry.n_vertices, geometry.d):
            raise ValueError("values must have shape (n_vertices, d)")
        if not np.all(np.isfinite(values)) or not np.all(values > 0):
            raise ValueError("edge weights must be positive and finite")
        self.geometry = geometry
        self.values = values
        self.values.setflags(write=False)
        self.spec = spec
        self.seed = seed
        self._mu = None
        self._nu = None

    def mu_vector(self):
        """mu at every vertex (flat indexing)."""
        if self._mu is None:
            self._mu = _incident_sum(self.geometry, self.values)
        return self._mu

    def nu_vector(self):
        """nu at every vertex (flat indexing)."""
        if self._nu is None:
            self._nu = _incident_sum(self.geometry, 1.0 / self.values)
        return self._nu


def _incident_sum(geometry, weights):
    """Per-vertex sum over the 2d incident edges, for one field's
    (n_vertices, d) ``weights`` or a stack of shape (..., n_vertices, d).

    The d forward edges are added column by column, then the d backward ones
    axis by axis.  Vertex x's -e_a edge is the +e_a edge of x - e_a, so each
    backward term is column a shifted by one site along lattice axis a,
    added in place as two slices (the interior and the wrapped face)."""
    d, L = geometry.d, geometry.L
    total = weights[..., 0] + weights[..., 1] if d > 1 else weights[..., 0].copy()
    for a in range(2, d):
        total += weights[..., a]
    shape = weights.shape[:-2] + (L,) * d
    grid = total.reshape(shape)
    for a in range(d):
        back = weights[..., a].reshape(shape)
        rest = (slice(None),) * (d - 1 - a)  # lattice axes after axis a
        grid[(..., slice(1, None)) + rest] += back[(..., slice(None, -1)) + rest]
        grid[(..., 0) + rest] += back[(..., -1) + rest]
    total.setflags(write=False)
    return total


def mu(field, x):
    """Sum of the 2d edge weights incident to x."""
    return float(field.mu_vector()[field.geometry.index(x)])


def nu(field, x):
    """Sum of the 2d reciprocal edge weights incident to x."""
    return float(field.nu_vector()[field.geometry.index(x)])


def shift(field, z):
    """The field translated by z: new edge {x, y} takes the old {x+z, y+z}."""
    geo = field.geometry
    grid = field.values.reshape((geo.L,) * geo.d + (geo.d,))
    moved = np.roll(grid, tuple(-int(c) for c in z), axis=tuple(range(geo.d)))
    return ConductanceField(geo, moved.reshape(field.values.shape), field.spec, field.seed)


def avg_norm(field, quantity, exponent, region):
    """Spatially averaged norm (|A|^-1 sum_{x in A} |phi(x)|^p)^(1/p).

    ``quantity`` selects mu or nu; ``exponent`` is a real >= 1 or math.inf
    (maximum over the region); ``region`` is an iterable of points or a flat
    index array.
    """
    if quantity == "mu":
        vec = field.mu_vector()
    elif quantity == "nu":
        vec = field.nu_vector()
    else:
        raise ValueError("quantity must be 'mu' or 'nu'")
    idx = _region_indices(field.geometry, region)
    if idx.size == 0:
        raise ValueError("region must be nonempty")
    vals = np.abs(vec[idx])
    if exponent == math.inf:
        return float(vals.max())
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    return float(np.mean(vals**exponent) ** (1.0 / exponent))


def _region_indices(geometry, region):
    if isinstance(region, np.ndarray) and region.dtype.kind in "iu" and region.ndim == 1:
        return region
    return np.asarray([geometry.index(p) for p in region], dtype=np.int64)


# ---------------------------------------------------------------------------
# samplers


def sample_environment(spec, geometry, seed):
    """Draw one conductance field; deterministic in (spec, geometry, seed)."""
    (values,) = _sample_values(spec, geometry, [rng_for(seed)])
    return ConductanceField(geometry, values, spec, seed)


# Replica chunks hold at most this many bytes of edge weights (at least one
# field).  Larger chunks save little more time, and their FFT and gather
# temporaries raise the peak memory.
_CHUNK_BYTES = 1 << 20


def _replica_chunks(spec, geometry, seed, stream, n):
    """Yield ``(start, values)`` over replicas i < n, field i the one
    :func:`sample_environment` draws with seed ``child_seed(seed, stream, i)``;
    ``values`` stacks fields start, start + 1, ... as an (m, n_vertices, d)
    array.

    Every yielded field has finite positive weights.  The first field that
    does not ends the stream with :class:`ConductanceField`'s error, after the
    fields before it are yielded, so a consumer that checks each chunk before
    asking for the next raises in replica order, as a per-field loop would.
    """
    rngs = replica_rngs(seed, stream, n)  # seeded once, not once per chunk
    step = max(1, _CHUNK_BYTES // (geometry.n_vertices * geometry.d * 8))
    for start in range(0, n, step):
        values = _sample_values(spec, geometry, rngs[start:start + step])
        flat = values.reshape(len(values), -1)
        valid = (flat.min(axis=1) > 0) & (flat.max(axis=1) < np.inf)  # NaN fails both
        if not valid.all():
            bad = int(np.argmin(valid))
            if bad:
                yield start, values[:bad]
            raise ValueError("edge weights must be positive and finite")
        yield start, values


def _sample_values(spec, geometry, rngs):
    """Edge weights of one field per generator in the sized iterable
    ``rngs``, as a (len(rngs), n_vertices, d) array.

    Row i draws from the i-th generator, exactly as a lone field on that
    generator does.  The deterministic rest (FFT, moving average, rolls,
    exponentials, scatter) runs once on the stack, row for row the same bits.
    The constant kind draws nothing and makes no generator.
    """
    shape = (geometry.n_vertices, geometry.d)
    kind, p = spec.kind, spec.resolved
    if kind == "constant":
        return np.full((len(rngs),) + shape, float(p["level"]))
    if kind == "uniform-elliptic-iid":
        return _stacked_draws(rngs, lambda rng: rng.uniform(p["low"], p["high"], size=shape))
    if kind == "iid":
        return _sample_iid(p, shape, rngs)
    if kind == "finite-range":
        return _sample_finite_range(p, geometry, rngs)
    if kind == "gaussian-fkg":
        return _sample_gaussian(p, geometry, rngs)
    if kind == "na-permutation":
        return _sample_permutation(p, geometry, rngs)
    raise ValueError(kind)  # pragma: no cover - guarded by spec validation


def _stacked_draws(rngs, draw):
    """``draw(rng)`` for each generator, stacked along a new first axis.

    Each generator and its draw live only until the draw is copied into the
    stack, so with lazily made generators a chunk of a thousand small fields
    holds one generator, not a thousand; a lone draw is not copied at all (a
    48^3 field is 2.6 MB).
    """
    n = len(rngs)
    rngs = iter(rngs)
    first = draw(next(rngs))
    if n == 1:
        return first[np.newaxis]
    out = np.empty((n,) + first.shape)
    out[0] = first
    for i in range(1, n):
        out[i] = draw(next(rngs))
    return out


def _sample_iid(params, shape, rngs):
    marginal = params["marginal"]
    if marginal == "uniform":
        low, high = params["low"], params["high"]
        return _stacked_draws(rngs, lambda rng: rng.uniform(low, high, size=shape))
    if marginal == "lognormal":
        normal = _stacked_draws(rngs, lambda rng: rng.standard_normal(shape))
        return np.exp(params["sigma"] * normal)
    # heavy-tail-zero: P(w <= eps) = eps**delta, fat tail at zero
    return _stacked_draws(rngs, lambda rng: rng.random(shape)) ** (1.0 / params["delta"])


def _l1_offsets(d, radius):
    out = []
    for off in itertools.product(range(-radius, radius + 1), repeat=d):
        if sum(abs(o) for o in off) <= radius:
            out.append(off)
    return out


def _finite_range_window(params, geometry):
    """The l1 offsets the finite-range moving average runs over; raises
    ValueError on a torus too small for the construction."""
    rng_range = int(params["range"])
    if geometry.L < 2 * rng_range:
        raise ValueError("geometry too small for finite-range construction")
    # window radius (range-1)//2 keeps edges at l1 distance >= range on
    # disjoint input blocks
    return _l1_offsets(geometry.d, (rng_range - 1) // 2)


def _sample_finite_range(params, geometry, rngs):
    offsets = _finite_range_window(params, geometry)
    d, L = geometry.d, geometry.L
    axes = tuple(range(1, d + 1))
    z = _stacked_draws(rngs, lambda rng: rng.random((L,) * d))
    if len(offsets) > 1:
        acc = np.zeros(z.shape)
        for off in offsets:
            acc += np.roll(z, off, axis=axes)
        smooth = acc / len(offsets)
    else:
        smooth = z
    if params["link"] == "affine":
        low, high = params["low"], params["high"]
        per_vertex = low + (high - low) * smooth
    else:
        per_vertex = np.exp(params["scale"] * (smooth - 0.5))
    values = np.empty((len(rngs), geometry.n_vertices, d))
    for a in range(d):
        pair = per_vertex + np.roll(per_vertex, -1, axis=a + 1)
        values[:, :, a] = (pair / 2.0).reshape(len(rngs), -1)
    return values


def _gaussian_spectrum(params, geometry):
    """Spectral density 1 / (lattice Laplacian + mass^2) of the gaussian-fkg
    field phi on the torus's Fourier grid, for resolved ``params``; phi's
    covariance at offset r is ``ifftn(spectrum).real[r]``."""
    mass = params["mass"]
    d, L = geometry.d, geometry.L
    k = np.arange(L)
    eig_1d = 4.0 * np.sin(np.pi * k / L) ** 2
    lam = np.zeros((L,) * d)
    for a in range(d):
        view = [None] * d
        view[a] = slice(None)
        lam = lam + eig_1d[tuple(view)]
    return 1.0 / (lam + mass * mass)


def _sample_gaussian(params, geometry, rngs):
    scale = params["scale"]
    d, L = geometry.d, geometry.L
    shape = (L,) * d
    axes = tuple(range(1, d + 1))
    spectrum = _gaussian_spectrum(params, geometry)
    noise = _stacked_draws(rngs, lambda rng: rng.standard_normal(shape))
    # real noise has a Hermitian transform, so the last axis's half spectrum
    # determines phi
    half = np.sqrt(spectrum[..., :L // 2 + 1])
    phi = np.fft.irfftn(half * np.fft.rfftn(noise, axes=axes), s=shape, axes=axes)
    values = np.empty((len(rngs), geometry.n_vertices, d))
    for a in range(d):
        pair = phi + np.roll(phi, -1, axis=a + 1)
        values[:, :, a] = np.exp(scale * pair).reshape(len(rngs), -1)
    return values


def _permutation_levels(params, geometry):
    """The multiset of weights every na-permutation block shuffles: d * block^d
    evenly spaced levels in (low, high); raises ValueError when the block side
    does not divide the torus side."""
    block = int(params["block"])
    if geometry.L % block != 0:
        raise ValueError("block side must divide the torus side")
    low, high = params["low"], params["high"]
    per_block = geometry.d * block**geometry.d
    return low + (np.arange(per_block) + 0.5) * (high - low) / per_block


def _sample_permutation(params, geometry, rngs):
    levels = _permutation_levels(params, geometry)
    block = int(params["block"])
    d, L = geometry.d, geometry.L

    blocks_per_axis = L // block
    n_blocks = blocks_per_axis**d
    tiled = np.tile(levels, (n_blocks, 1))
    shuffled = _stacked_draws(rngs, lambda rng: rng.permuted(tiled, axis=1))

    # block b's slots run over its vertices in lexicographic order, d axes
    # each; blocks are numbered lexicographically by their origin
    origins = block * np.indices((blocks_per_axis,) * d).reshape(d, n_blocks, 1)
    offsets = np.indices((block,) * d).reshape(d, 1, block**d)
    vertex = np.ravel_multi_index(tuple(origins + offsets), (L,) * d)
    values = np.empty((len(rngs), geometry.n_vertices, d))
    values[:, vertex] = shuffled.reshape(len(rngs), n_blocks, block**d, d)
    return values


# ---------------------------------------------------------------------------
# persistence


def write_field(field, path, extra_header=None):
    """Binary environment file: magic, JSON header, float64 edge weights."""
    header = {
        "d": field.geometry.d,
        "L": field.geometry.L,
        "seed": int(field.seed),
        "spec": field.spec.to_dict(),
        "version": FORMAT_VERSION,
    }
    if extra_header:
        header.update(extra_header)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = field.values.astype("<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def read_field(path):
    """Inverse of :func:`write_field`; validates magic and payload size."""
    with open(path, "rb") as fh:
        raw = fh.read()
    buf = io.BytesIO(raw)
    if buf.read(4) != MAGIC:
        raise ValueError("bad format")
    (hlen,) = struct.unpack("<I", buf.read(4))
    header = json.loads(buf.read(hlen).decode())
    geometry = TorusGeometry(header["d"], header["L"])
    spec = EnvironmentSpec.from_dict(header["spec"])
    payload = buf.read()
    expected = geometry.n_vertices * geometry.d * 8
    if len(payload) != expected:
        raise ValueError("bad format")
    values = np.frombuffer(payload, dtype="<f8").reshape(geometry.n_vertices, geometry.d)
    return ConductanceField(geometry, values.copy(), spec, header["seed"])


def field_to_csv(field, path):
    """Plain CSV export: one row per edge (vertex coords, axis, weight)."""
    geo = field.geometry
    cols = [f"x{i + 1}" for i in range(geo.d)] + ["axis", "value"]
    coords = np.indices((geo.L,) * geo.d).reshape(geo.d, -1).T.tolist()
    vertex = [",".join(map(str, c)) + "," for c in coords]
    axes = [f"{a + 1}," for a in range(geo.d)]
    # "x1,...,xd,axis," for every (vertex, axis) pair, in row order
    prefixes = [v + a for v in vertex for a in axes]
    values = map(repr, field.values.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(cols), *map(str.__add__, prefixes, values)]) + "\r\n")
