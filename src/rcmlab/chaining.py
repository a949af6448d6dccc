"""Ball chains: turning near-diagonal kernel bounds into off-diagonal ones.

To reach a target x at time t with t small relative to |x|^2, the walk is
funneled through a chain of small balls along the staircase path from 0 to
x.  With D = |x| and scale r = t/D the chain uses k segments,
floor(16 D/r) >= k >= 12 D/r, of duration s = t/k each, so s always lies in
[r^2/16, r^2/12].  Waypoints z_0 = 0, ..., z_k = x sit on the path with gaps
of at most r/12 (at least one lattice step; on a lattice, fractional spacing
below one step means consecutive waypoints may coincide), and the chain
balls are B_j = B(z_j, r/48).

Each step contributes a near-diagonal factor amp * s^(-d/2) / C(y_j), where

    C(norm_mu, norm_nu) = growth * exp(growth * (1 v norm_mu)^power
                                              * (1 v norm_nu)^power)

is an explicit function of the averaged mu and nu norms over B(y_j, sqrt(s)).
Multiplying the step factors and summing over intermediate ball choices
yields a lower bound on p(t, 0, x) whose soundness only requires the
per-step inequalities to hold, which are checked directly against computed
kernel slices over every member pair of consecutive balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import avg_norm
from .kernel import heat_slices, jump_kernel
from .lattice import corner_points, l1_norm, path_points


class NearDiagonalRegime(ValueError):
    """Raised when |x|^2 / t <= 1/4: use the near-diagonal bound directly."""


@dataclass
class ChainingPlan:
    """Geometry of one ball chain from the origin to x at time t."""

    x: tuple
    t: float
    d: int
    D: int
    r: float
    k: int
    s: float
    waypoints: list
    ball_radius: float
    corners: list
    max_gap: int
    relaxed: bool


def build_chain(x, t):
    """Construct the chain plan for target x and time t.

    Requires x != 0 and t >= |x| (so the scale r = t/D is at least one).
    Inputs with |x|^2 / t < 1/4 belong to the near-diagonal regime and raise
    :class:`NearDiagonalRegime`.  The segment count is the largest admissible
    k, which spreads waypoints as evenly as the lattice allows; when even
    that cannot meet the r/12 spacing (granularity), the plan is flagged
    ``relaxed`` and guarantees unit spacing instead.
    """
    d = len(x)
    D = l1_norm(x)
    if D == 0:
        raise ValueError("degenerate chain")
    if t < D:
        raise ValueError("time below the target norm: scale would fall under one")
    if D * D / t < 0.25:
        raise NearDiagonalRegime("use near-diagonal bound directly")

    r = t / D
    k = math.floor(16.0 * D / r + 1e-9)
    if k < math.ceil(12.0 * D / r - 1e-9):  # pragma: no cover - impossible by arithmetic
        raise ValueError("no admissible segment count")
    s = t / k

    arcs = [(j * D) // k for j in range(k + 1)]
    path = path_points(x)
    waypoints = [path[a] for a in arcs]
    gaps = [arcs[j] - arcs[j - 1] for j in range(1, k + 1)]
    max_gap = max(gaps)
    relaxed = max_gap > max(1.0, r / 12.0) + 1e-9

    return ChainingPlan(
        x=tuple(int(c) for c in x),
        t=float(t),
        d=d,
        D=D,
        r=r,
        k=k,
        s=s,
        waypoints=waypoints,
        ball_radius=r / 48.0,
        corners=corner_points(x),
        max_gap=max_gap,
        relaxed=relaxed,
    )


def waypoint_multiplicity(plan):
    """Largest number of waypoints inside any ball B(z_j, r), r the chain
    scale.  Recorded as a dimension diagnostic."""
    best = 0
    for z in plan.waypoints:
        count = sum(
            1
            for w in plan.waypoints
            if sum(abs(a - b) for a, b in zip(z, w)) < plan.r
        )
        best = max(best, count)
    return best


def _harnack_term(norm_mu, norm_nu, power):
    return max(1.0, norm_mu) ** power * max(1.0, norm_nu) ** power


def harnack_constant(norm_mu, norm_nu, growth=1.0, power=1.0):
    """growth * exp(growth * (1 v norm_mu)^power * (1 v norm_nu)^power)."""
    if growth <= 0:
        raise ValueError("growth must be positive")
    if power < 1:
        raise ValueError("power must be at least one")
    return growth * math.exp(growth * _harnack_term(norm_mu, norm_nu, power))


def _ball_members(plan, j, geometry):
    """Vertices of chain ball B_j; endpoints are pinned to 0 and x."""
    if j == 0:
        return [(0,) * plan.d]
    if j == plan.k:
        return [plan.x]
    z = plan.waypoints[j]
    if plan.ball_radius <= 1:
        return [z]
    return [geometry.coords(idx) for idx in geometry.ball_indices(z, plan.ball_radius)]


def _step_norms(field, point, s, p, q):
    """Averaged mu and nu norms on B(point, sqrt(s))."""
    ball = field.geometry.ball_indices(point, math.sqrt(s))
    return avg_norm(field, "mu", p, ball), avg_norm(field, "nu", q, ball)


def _worst_step_terms(field, plan, p, q, power):
    """Largest step term (1 v mu-norm)^power (1 v nu-norm)^power on
    B(y, sqrt(s)) over the members y of each chain ball B_0 .. B_{k-1}."""
    geo = field.geometry
    return [max(_harnack_term(*_step_norms(field, y, plan.s, p, q), power)
                for y in _ball_members(plan, j, geo))
            for j in range(plan.k)]


@dataclass
class ChainScaleResult:
    threshold: object  # smallest admissible scale, or None if beyond the grid
    table: list  # (r, worst sum/k over targets and adversarial choices)


def chain_scale_threshold(field, p, q, power, budget, x_set, r_grid):
    """Smallest grid scale r with adversarial chain sums below budget * k.

    For every target x (with r <= 4|x|) the adversarial choice maximizes each
    ball's term separately, which is exact because the sum splits over balls.
    Targets too close for a given r are skipped.  Returns None as threshold
    when no grid scale works ("exceeds grid").
    """
    table = []
    threshold = None
    for r in sorted(r_grid):
        worst_ratio = 0.0
        any_target = False
        for x in x_set:
            D = l1_norm(x)
            if D == 0 or r > 4 * D:
                continue
            any_target = True
            plan = build_chain(x, D * float(r))
            total = sum(_worst_step_terms(field, plan, p, q, power))
            worst_ratio = max(worst_ratio, total / plan.k)
        if not any_target:
            continue
        table.append((float(r), worst_ratio))
        if threshold is None and worst_ratio <= budget:
            threshold = float(r)
    return ChainScaleResult(threshold, table)


@dataclass
class ChainedBound:
    value: float
    log_value: float
    plan: ChainingPlan
    step_logs: list
    mass_logs: list
    mean_product_diag: dict
    constants: dict
    step_checks: list  # (j, min p(s, y, y') over B_j x B_{j+1}, step factor, holds)
    true_value: float  # computed p(t, 0, x)

    @property
    def steps_valid(self):
        return all(ok for _, _, _, ok in self.step_checks)

    @property
    def sound(self):
        return self.true_value > 0 and self.log_value <= math.log(self.true_value)


def chained_lower_bound(field, t, x, amp=None, growth=1.0, power=1.0, p=2.0, q=2.0, tol=1e-10):
    """Chained lower bound on p(t, 0, x), checked step by step.

    Every step uses the worst (largest) Harnack constant C_j over its ball,
    so the product times the ball-mass product is a true lower bound whenever
    each per-step near-diagonal inequality
    min p(s, y, y') >= amp * s^(-d/2) / C_j over y in B_j, y' in B_{j+1}
    holds.  One :func:`heat_slices` table over (t, 0) and every step's start
    vertex gives those minima and the true value p(t, 0, x).  With ``amp``
    None the amplitude is calibrated as the largest for which every step
    holds, min_j (min p_j * C_j * s^(d/2)).  Also reports the
    harmonic-geometric mean diagnostic for the ball-averaged mu product.
    """
    plan = build_chain(x, t)
    if plan.s < 1:
        raise ValueError("chain step below one; near-diagonal factor undefined")
    geo = field.geometry
    mu_vec = field.mu_vector()
    nu_vec = field.nu_vector()
    balls = [_ball_members(plan, j, geo) for j in range(plan.k + 1)]

    worst_constants = [max(harnack_constant(*_step_norms(field, y, plan.s, p, q), growth, power)
                           for y in ball)
                       for ball in balls[:-1]]

    origin = (0,) * plan.d
    slices = heat_slices(jump_kernel(field),
                         [(plan.t, origin)] + [(plan.s, y) for ball in balls[:-1] for y in ball],
                         tol)
    min_ps = [min(float(slices[plan.s, geo.wrap(y)].hk[geo.index(y2)])
                  for y in ball for y2 in next_ball)
              for ball, next_ball in zip(balls, balls[1:])]
    if amp is None:
        amp = min(min_p * c * plan.s ** (plan.d / 2.0)
                  for min_p, c in zip(min_ps, worst_constants))

    step_logs = [math.log(amp) - (plan.d / 2.0) * math.log(plan.s) - math.log(worst)
                 for worst in worst_constants]
    factors = [amp * plan.s ** (-plan.d / 2.0) / worst for worst in worst_constants]
    step_checks = [(j, min_p, factor, min_p >= factor * (1 - 1e-9))
                   for j, (min_p, factor) in enumerate(zip(min_ps, factors))]

    mass_logs = []
    mean_norms = []
    nu_norms = []
    for ball in balls[1:-1]:
        idx = np.asarray([geo.index(v) for v in ball])
        mass_logs.append(math.log(float(mu_vec[idx].sum())))
        mean_norms.append(float(mu_vec[idx].mean()))
        nu_norms.append(float(nu_vec[idx].mean()))

    log_value = sum(step_logs) + sum(mass_logs)
    try:
        value = math.exp(log_value)
    except OverflowError:  # pragma: no cover - bounds are tiny in practice
        value = math.inf

    geom_mean = math.exp(sum(math.log(m) for m in mean_norms) / len(mean_norms))
    diag = {
        "geometric_mean_mu": geom_mean,
        "harmonic_bound": (plan.k - 1) / sum(nu_norms),
        "holds": geom_mean >= (plan.k - 1) / sum(nu_norms) - 1e-12,
    }

    return ChainedBound(
        value=value,
        log_value=log_value,
        plan=plan,
        step_logs=step_logs,
        mass_logs=mass_logs,
        mean_product_diag=diag,
        constants={"amp": amp, "growth": growth, "power": power, "p": p, "q": q},
        step_checks=step_checks,
        true_value=float(slices[plan.t, origin].hk[geo.index(plan.x)]),
    )
