"""Minimum-energy weight synthesis by single shooting on the costate.

The synthesis problem minimizes the integrated squared Frobenius norm of
W(t) subject to Xdot = W X, X(t0) = I, X(tf) = T, W sparse. Stationarity of
the Hamiltonian gives w_ij = -sum_k lam_ik X_jk on the edges, which closes
the state/costate system. Shooting then searches over the costate initial
condition lambda0 until the terminal transition matrix hits the target.
"""

from __future__ import annotations

from collections import deque
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain, islice

import numpy as np

from .dynamics import DynamicsError, WeightSchedule, _rk4, solve_linear
from .graph import Graph, InputError, _square_matrix, numeric_array
from .lie_algebra import check_feasible

DIVERGENCE_LIMIT = 1e12
# Damped Newton tries shot per pass. mu falls by 3 on an accepted try and rises
# by 10 on a rejected one, so tries settle at an acceptance rate of
# ln 10 / (ln 3 + ln 10) ~ 0.68 and most iterations need one or two.
TRIES_PER_PASS = 2
SCAN_SAMPLES = 201  # points of the homotopy singularity scan, both ends included


class OptimalControlError(ValueError):
    """A target that no shoot reaches; as InfeasibleError, one no schedule on the graph reaches."""


class InfeasibleError(OptimalControlError):
    """A target or waypoint that no schedule on the graph reaches."""


@dataclass(frozen=True)
class BvpProblem:
    graph: Graph
    target: np.ndarray
    t0: float = 0.0
    tf: float = 1.0
    steps: int = 200
    newton_tol: float = 1e-8
    max_iter: int = 50
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.default is not MISSING:  # a setting: a finite number of its default's type
                value, kind = getattr(self, f.name), type(f.default)
                x = numeric_array(value, f"solver setting {f.name!r}", (), whole=kind is int)
                exact = isinstance(value, (int, np.integer))  # a float may round an int
                object.__setattr__(self, f.name, kind(value if exact else x))
        rules = {
            "tf > t0": self.tf > self.t0,
            "finite tf - t0": np.isfinite(self.tf - self.t0),
            "steps >= 1": self.steps >= 1,
            "newton_tol > 0": self.newton_tol > 0,
            "max_iter >= 1": self.max_iter >= 1,
            "restarts >= 0": self.restarts >= 0,
            "seed >= 0": self.seed >= 0,
        }
        broken = [rule for rule, ok in rules.items() if not ok]
        if broken:
            raise InputError(f"solver settings need {', '.join(broken)}")
        # an RK4 step within a few floats of the horizon's far end repeats grid times
        h = (self.tf - self.t0) / self.steps
        limit = 8 * np.spacing(max(abs(self.t0), abs(self.tf)))
        if h <= limit:
            raise InputError(f"solver settings need (tf - t0) / steps above 8 float "
                             f"spacings at max(|t0|, |tf|): {h:.3g} <= {limit:.3g}")
        report = check_feasible(self.graph, self.target)  # it admits the target
        if not report.feasible:
            raise InfeasibleError(f"infeasible problem: {report.reason}")
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))


@dataclass
class ExtremalSolution:
    """One extremal arc from X = I: the result of a single shooting solve, or
    a copy of one on another interval (moved_to)."""

    lambda0: np.ndarray
    X_seq: np.ndarray
    lambda_seq: np.ndarray
    schedule: WeightSchedule
    cost: float
    residual_norm: float
    converged: bool
    iterations: int
    restart_used: int

    def moved_to(self, t0: float, tf: float) -> ExtremalSolution:
        """This arc on np.linspace(t0, tf, its grid's size), which ends on tf itself
        as a solved arc's grid does, as a copy that spent no Newton iteration or
        restart. The extremal system is autonomous, so the arc reaches the same
        map on any interval of its length."""
        sched = replace(self.schedule, grid=np.linspace(t0, tf, self.schedule.grid.size))
        return replace(self, schedule=sched, iterations=0, restart_used=0)


def _summary(arc: ExtremalSolution) -> dict:
    """An arc's record of the six solution.json keys."""
    return {
        "converged": arc.converged,
        "residual": arc.residual_norm,
        "cost": arc.cost,
        "iterations": arc.iterations,
        "restart_used": arc.restart_used,
        "lambda0": [[float(v) for v in row] for row in arc.lambda0],
    }


@dataclass
class Solution:
    """A schedule on [t0, tf] as consecutive extremal arcs.

    Every arc starts from the identity, so the transition on arc k is the
    arc's own X(t) times the composed transition at the arc's start. A solve
    without waypoints has one arc.
    """

    arcs: list
    target: np.ndarray

    def segments(self) -> list:
        """The arcs, by the name perfbench's scenario counter reads."""
        return self.arcs

    @property
    def schedule(self) -> WeightSchedule:
        """The arcs' schedules joined into one; each join's time appears twice."""
        return WeightSchedule(grid=np.concatenate([a.schedule.grid for a in self.arcs]),
                              W_seq=np.concatenate([a.schedule.W_seq for a in self.arcs]),
                              mask=self.arcs[0].schedule.mask)

    def transition(self):
        """The composed (grid, X) over all arcs; each join's time appears once."""
        B = np.eye(self.target.shape[0])
        grids, mats = [self.arcs[0].schedule.grid[:1]], [B[None]]
        for arc in self.arcs:
            grids.append(arc.schedule.grid[1:])
            mats.append((arc.X_seq @ B)[1:])
            B = arc.X_seq[-1] @ B
        return np.concatenate(grids), np.concatenate(mats)

    def costate(self):
        """The joined (grid, lambda); each join's time appears twice, as lambda jumps there."""
        return (np.concatenate([a.schedule.grid for a in self.arcs]),
                np.concatenate([a.lambda_seq for a in self.arcs]))

    @property
    def residual_norm(self) -> float:
        """The composed transition's distance to the target at tf."""
        return float(np.linalg.norm(self.transition()[1][-1] - self.target))

    @property
    def converged(self) -> bool:
        return all(arc.converged for arc in self.arcs)

    def to_json_dict(self) -> dict:
        """The arcs' records (_summary) aggregated: cost the float sum in arc
        order, iterations the sum, restart_used the largest, converged if every
        arc is, the first arc's lambda0 and the composed residual; plus the
        records themselves when there is more than one arc."""
        recs = [_summary(arc) for arc in self.arcs]
        d = {"converged": self.converged, "residual": self.residual_norm,
             "cost": float(sum(r["cost"] for r in recs)),
             "iterations": sum(r["iterations"] for r in recs),
             "restart_used": max(r["restart_used"] for r in recs),
             "lambda0": recs[0]["lambda0"]}
        if len(recs) > 1:
            d["segments"] = recs
        return d


def hamiltonian(X: np.ndarray, lam: np.ndarray, W: np.ndarray) -> float:
    """Control Hamiltonian: <lam, W X> plus half the squared weight norm."""
    return float(np.sum(lam * (W @ X)) + 0.5 * np.sum(W * W))


def _extremal_rate(Z: np.ndarray, off: np.ndarray):
    """The extremal rate function on one buffer Z = [X, lam^T, V], V = -W.

    Z has shape (3, ..., n, n) and off is the complement of the edge pattern,
    a contiguous array of X's shape. rate(t, _, out) writes V = lam X^T,
    zeroed off the pattern, into Z[2] through its transpose, and
    [V X, lam^T V] into out: the state rate W X negated and the costate rate
    -W^T lam, transposed. Both products are one matmul over [V, lam^T] and
    [X, V], the views Z[2:0:-1] and Z[::2]; the state [X, lam^T] is the
    contiguous Z[:2].
    """
    X, lamT, V = Z
    V_lamT, X_V, VT = Z[2:0:-1], Z[::2], V.swapaxes(-1, -2)

    def rate(t, _, out):
        np.matmul(X, lamT, VT)
        np.putmask(V, off, 0.0)
        np.matmul(V_lamT, X_V, out)
    return rate


def weights_from_costate(lam: np.ndarray, X: np.ndarray, msk: np.ndarray) -> np.ndarray:
    """Stationarity condition: W = -(lam X^T) restricted to the edge pattern.

    lam and X are single (n, n) matrices or equal-shaped stacks (..., n, n).
    """
    lam = np.asarray(lam, dtype=float)
    X = np.asarray(X, dtype=float)
    if lam.shape[-2:] != msk.shape or X.shape != lam.shape:
        raise InputError("weights_from_costate: dimension mismatch")
    return np.where(msk, -(lam @ np.swapaxes(X, -1, -2)), 0.0)


def extremal_rhs(X: np.ndarray, lam: np.ndarray, msk: np.ndarray) -> np.ndarray:
    """State and costate rates along an extremal, per matrix of a stack.

    Returns one array of shape (2,) + X.shape holding W X and -W^T lam.
    """
    W = weights_from_costate(lam, X, msk)
    return np.stack([W @ X, -np.swapaxes(W, -1, -2) @ lam])


def _shoot_batch(prob: BvpProblem, lam0s: np.ndarray, record: bool = False):
    """RK4 over a batch of costate initial conditions at once.

    The integration runs on one buffer Z = [X, lam^T, V] of shape
    (3, B, n, n) (see _extremal_rate). Its state is the contiguous view
    Z[:2], into which _rk4 writes every stage input, and it starts from
    (I, lam0s[b]^T). The state's rate comes out negated, so _rk4 steps with
    sign -1 on X and +1 on lam^T. Returns (X_tf, diverged, points), where
    points is the list of (t, Y) with Y = (X, lam^T) of shape (2, B, n, n)
    on every grid point if record=True and the last one otherwise. A member
    diverges when any entry of its final X or lam is beyond the blow-up
    limit or not finite. A member's result does not depend on its batch, so
    solve_bvp's residual function shoots each stack _newton_from passes as one.
    """
    n = lam0s.shape[-1]
    Z = np.empty((3,) + lam0s.shape)
    Y0 = np.stack([np.broadcast_to(np.eye(n), lam0s.shape), np.swapaxes(lam0s, -1, -2)])
    rate = _extremal_rate(Z, np.broadcast_to(~prob.graph.mask, lam0s.shape).copy())
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = _rk4(rate, Y0, prob.t0, prob.tf, prob.steps, stage=Z[:2],
                       sign=np.array([-1.0, 1.0]).reshape(2, 1, 1, 1))
        points = list(stepper) if record else deque(stepper, maxlen=1)
        Y = points[-1][1]
        diverged = ~(np.abs(Y).max(axis=(0, 2, 3)) <= DIVERGENCE_LIMIT)
    return Y[0], diverged, points


def shoot(prob: BvpProblem, lambda0: np.ndarray):
    """Integrate the coupled extremal system from (I, lambda0), lambda0 finite and n by n.

    Returns (X_tf, info) where info carries the gridded trajectories and a
    `diverged` flag; divergence (any entry beyond the blow-up limit at tf)
    is reported, not raised.
    """
    n = prob.graph.n
    lam0 = numeric_array(lambda0, "lambda0", (n, n))
    X_tf, diverged, points = _shoot_batch(prob, lam0[None], record=True)
    Y_seq = np.array([Y[:, 0] for _, Y in points])
    info = {"grid": np.array([t for t, _ in points]), "X_seq": Y_seq[:, 0],
            "lambda_seq": np.ascontiguousarray(np.swapaxes(Y_seq[:, 1], -1, -2)),
            "diverged": bool(diverged[0])}
    return X_tf[0], info


def cost(sched: WeightSchedule) -> float:
    """Trapezoid quadrature of half the squared Frobenius norm of W(t)."""
    vals = 0.5 * np.sum(sched.W_seq * sched.W_seq, axis=(1, 2))
    h = np.diff(sched.grid)
    return float(np.sum(h * (vals[:-1] + vals[1:]) / 2.0))


def _stencil(lam: np.ndarray):
    """The m = n^2 forward-difference members lam + h_j e_j, as an (m, n, n)
    stack, and their steps h_j = 1e-6 (1 + |lam_j|).

    The step is not the textbook sqrt(eps): the Jacobian is graded by graph
    distance, its column norms falling about tenfold per unit, so the far
    columns need the larger step to rise above the rounding of X(tf).
    """
    flat = lam.ravel()
    m = flat.size
    hs = 1e-6 * (1.0 + np.abs(flat))
    members = np.repeat(flat[None, :], m, axis=0)
    members[np.arange(m), np.arange(m)] += hs
    return members.reshape((m,) + lam.shape), hs


def _jacobian(r: np.ndarray, held: list, hs: np.ndarray) -> np.ndarray | None:
    """Forward-difference Jacobian of the terminal residual w.r.t. the
    costate initial condition, from the residual r at lam and the residuals
    `held` of lam's stencil members (_stencil, steps hs), whichever pass they
    rode in; None if a member diverged."""
    if any(rj is None for rj in held):
        return None
    return ((np.array(held) - r) / hs[:, None]).T


def _build_solution(prob: BvpProblem, lam0: np.ndarray, iterations: int,
                    restart_used: int, converged: bool) -> ExtremalSolution:
    """Re-shoot the chosen costate with recording on and package the result."""
    X_tf, info = shoot(prob, lam0)
    msk = prob.graph.mask
    W_seq = weights_from_costate(info["lambda_seq"], info["X_seq"], msk)
    sched = WeightSchedule(grid=info["grid"], W_seq=W_seq, mask=msk)
    return ExtremalSolution(
        lambda0=np.asarray(lam0, dtype=float).copy(),
        X_seq=info["X_seq"], lambda_seq=info["lambda_seq"],
        schedule=sched, cost=cost(sched),
        residual_norm=float(np.linalg.norm(X_tf - prob.target)),
        converged=converged, iterations=iterations, restart_used=restart_used)


def _corrected_step(A, J, r, delta, rp, rm, h):
    """The damped step delta plus half its geodesic acceleration, taken from
    the probes rp, rm at lam +- h delta when both stayed finite and the
    correction is at most 0.75 |delta|. Returns (step, model), where the
    model |r + J step + r''/2|, with r'' the probes' second difference,
    predicts the candidate's residual norm; it is inf when a probe diverged."""
    if rp is None or rm is None:
        return delta, np.inf
    rpp = (rp - 2.0 * r + rm) / (h * h)
    accel = solve_linear(A, -(J.T @ rpp) / 2.0)  # _tries solved A, so it is not singular
    step = delta + 0.5 * accel if np.linalg.norm(accel) <= 0.75 * np.linalg.norm(delta) else delta
    return step, float(np.linalg.norm(r + J @ step + 0.5 * rpp))


def _tries(JTJ: np.ndarray, g: np.ndarray, mu: float):
    """The damped tries of one Newton iteration in order, as (mu, A, delta),
    with A = JTJ + mu tr I scaled by the mean diagonal tr of JTJ.

    An iteration makes at most 30 tries and multiplies mu by 10 after each.
    A try whose system is singular counts as one but yields nothing, and the
    tries stop once a yielded one takes mu past 1e14.
    """
    tr = max(float(np.trace(JTJ)) / g.size, 1e-30)
    for _ in range(30):
        A = JTJ + mu * tr * np.eye(g.size)
        try:
            delta = solve_linear(A, -g)
        except DynamicsError:
            mu *= 10.0
            continue
        yield mu, A, delta
        mu *= 10.0
        if mu > 1e14:
            return


def _check_reach(target: np.ndarray, what: str) -> None:
    """Reject a target with an entry beyond DIVERGENCE_LIMIT, since a shoot
    whose X passes that limit counts as diverged; `what` names the target."""
    if not np.abs(target).max() <= DIVERGENCE_LIMIT:  # nan too
        raise OptimalControlError(f"{what} has entries beyond the divergence limit "
                                  f"{DIVERGENCE_LIMIT:.0e}, which no shoot reaches")


def _newton_from(prob: BvpProblem, lam0: np.ndarray, residuals):
    """Damped Gauss-Newton (Levenberg-style) from one starting costate.

    Each accepted step is corrected with a geodesic acceleration term (a
    second directional derivative of the residual along the step); without
    it the iteration crawls through the curved, nearly flat valleys that
    strongly contracting targets produce. Only steps that lower the residual
    are accepted, so the current costate is always the best one seen.

    It shoots nothing: residuals(stack) shoots each costate stack as one pass
    and returns the flattened residuals X(tf) - T of its members, None for one
    that diverged. The first stack holds lam0 with its Jacobian stencil.
    The tries of an iteration (_tries) are shot TRIES_PER_PASS at a time: the
    probes of the next tries share one pass and their candidates another.
    The first candidate in order that lowers the residual wins and mu
    continues from its try, so every decision is the one the tries made one
    by one would reach. The candidate pass also carries the stencil of the
    first candidate whose model from the probes (_corrected_step) predicts a
    residual below |r|, or else of the first; only when another one wins is
    the next stencil shot alone. No bit depends on the pick.

    Returns (lam, residual_norm, iterations, converged), the norm inf if lam0 diverges.
    """
    n = prob.graph.n
    h = 0.1
    lam = np.asarray(lam0, dtype=float).copy()
    r, *held = residuals(np.concatenate([lam[None], _stencil(lam)[0]]))
    if r is None:
        return lam, np.inf, 0, False
    rnorm = float(np.linalg.norm(r))
    mu = 1e-3
    iterations = 0
    for _ in range(prob.max_iter):
        if rnorm < prob.newton_tol:
            break
        members, hs = _stencil(lam)
        if held is None:  # lam's stencil did not ride in the last candidate pass
            held = residuals(members)
        J = _jacobian(r, held, hs)
        if J is None:
            break
        tries = _tries(J.T @ J, J.T @ r, mu)
        step = None  # (mu, candidate, residual, held) of the accepted try
        while step is None and (group := list(islice(tries, TRIES_PER_PASS))):
            ds = [h * delta.reshape(n, n) for _, _, delta in group]
            probes = residuals(np.stack([v for d in ds for v in (lam + d, lam - d)]))
            corrected = [_corrected_step(A, J, r, delta, rp, rm, h)
                         for (_, A, delta), rp, rm in zip(group, probes[::2], probes[1::2])]
            cands = [lam + s.reshape(n, n) for s, _ in corrected]
            ride = next((k for k, (_, model) in enumerate(corrected) if model < rnorm), 0)
            shot = residuals(np.concatenate([cands, _stencil(cands[ride])[0]]))
            for k, ((mu_try, _, _), cand, rc) in enumerate(zip(group, cands, shot)):
                if rc is not None and np.linalg.norm(rc) < rnorm:
                    step = mu_try, cand, rc, (shot[len(cands):] if k == ride else None)
                    break
        iterations += 1
        if step is None:
            break
        mu_try, lam, r, held = step
        rnorm = float(np.linalg.norm(r))
        mu = max(mu_try / 3.0, 1e-14)
    return lam, rnorm, iterations, rnorm < prob.newton_tol


def solve_bvp(prob: BvpProblem, initial_guess: np.ndarray | None = None) -> ExtremalSolution:
    """Shooting solve of the two-point boundary problem.

    An optional warm-start costate (finite, n by n) is tried first, then the zero costate
    (exact for T = I); on stall the solver restarts from seeded random
    costates, each restart drawing its own RNG stream from seed + restart
    index when it is reached. The first converged start wins; otherwise the
    start with the smallest residual is reported. Each start (_newton_from)
    passes every costate stack it needs to `residuals`, the one place Newton
    shoots, which shoots the stack as one pass. A target that no shoot
    reaches is rejected before any shoot (see _check_reach), so the zero start,
    whose X stays I, has the finite residual I - T and some start is reported.
    """
    _check_reach(prob.target, "target")
    n = prob.graph.n
    total_iters = 0
    starts = [(0, np.zeros((n, n)))]
    if initial_guess is not None:
        starts.insert(0, (0, numeric_array(initial_guess, "initial_guess", (n, n))))
    seeded = ((ridx, np.random.default_rng(prob.seed + ridx).uniform(-0.5, 0.5, size=(n, n)))
              for ridx in range(1, prob.restarts + 1))
    best = (np.inf, None, None)  # (residual_norm, restart_idx, lam)

    def residuals(stack):
        X_tf, diverged, _ = _shoot_batch(prob, stack)
        return [None if d else (X - prob.target).ravel() for X, d in zip(X_tf, diverged)]

    for ridx, lam0 in chain(starts, seeded):
        lam, rnorm, iters, converged = _newton_from(prob, lam0, residuals)
        total_iters += iters
        if converged:
            return _build_solution(prob, lam, total_iters, ridx, True)
        if rnorm < best[0]:
            best = (rnorm, ridx, lam)
    return _build_solution(prob, best[2], total_iters, best[1], False)


def homotopy_singularity_scan(T: np.ndarray):
    """Minimum |det| of the straight-line homotopy (1-s) I + s T over
    SCAN_SAMPLES evenly spaced s in [0, 1].

    Returns (min_abs_det, argmin_s); a small minimum signals that direct
    shooting will be ill-conditioned and waypoints are advisable.
    """
    T = _square_matrix(T, "homotopy_singularity_scan")
    s = np.linspace(0.0, 1.0, SCAN_SAMPLES)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite T gives (nan, 0.0)
        dets = np.abs(np.linalg.det((1.0 - s) * np.eye(T.shape[0]) + s * T))
    k = int(np.argmin(dets))
    return float(dets[k]), float(s[k, 0, 0])


def solve_with_waypoints(prob: BvpProblem, waypoints) -> Solution:
    """Sequential shooting through intermediate target matrices: arc k goes
    from I to B_k B_{k-1}^{-1} (B_0 = I, B_last = T) on exactly [times[k],
    times[k+1]] of times = np.linspace(t0, tf, K + 1), warm-started from the
    arc before, so the arcs telescope to T. Before the first shoot every arc of
    finite target is built, and so gated (InfeasibleError naming the arc), and
    only then, with waypoints, is each arc's target, never T, checked for reach."""
    n = prob.graph.n
    waypoints = [numeric_array(W, f"waypoint {k}", (n, n)) for k, W in enumerate(waypoints, 1)]
    ends = ["I", *(f"waypoint {k}" for k in range(1, len(waypoints) + 1)), "the target"]
    times = np.linspace(prob.t0, prob.tf, len(waypoints) + 2)
    targets, probs = [], []
    for k, (prev, B) in enumerate(zip([np.eye(n)] + waypoints, waypoints + [prob.target])):
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # the reach rule judges overflow
                target = solve_linear(prev.T, B.T).T
            targets.append(target)
            if np.isfinite(target).all():
                probs.append(replace(prob, target=target, t0=float(times[k]),
                                     tf=float(times[k + 1]), seed=prob.seed + 1000 * k))
        except DynamicsError as exc:  # prev is waypoint k
            raise InfeasibleError(f"waypoint {k} is singular to working precision") from exc
        except InfeasibleError as exc:  # the gate, on the arc's target
            raise InfeasibleError(f"arc {k + 1} ({ends[k]} to {ends[k + 1]}): {exc}") from exc
    for k, target in enumerate(targets if waypoints else []):
        _check_reach(target, f"the target of arc {k + 1} ({ends[k]} to {ends[k + 1]})")
    arcs = []
    warm = None
    for arc_prob in probs:
        arcs.append(solve_bvp(arc_prob, initial_guess=warm))
        warm = arcs[-1].lambda0 if arcs[-1].converged else None
    return Solution(arcs=arcs, target=prob.target)
