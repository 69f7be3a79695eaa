"""Minimum-energy weight synthesis by single shooting on the costate.

The synthesis problem minimizes the integrated squared Frobenius norm of
W(t) subject to Xdot = W X, X(t0) = I, X(tf) = T, W sparse. Stationarity of
the Hamiltonian gives w_ij = -sum_k lam_ik X_jk on the edges, which closes
the state/costate system. Shooting then searches over the costate initial
condition lambda0 until the terminal transition matrix hits the target.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DynamicsError, WeightSchedule, _rk4, determinant, solve_linear
from .graph import Graph, SparsityMask, mask
from .lie_algebra import check_feasible

DIVERGENCE_LIMIT = 1e12
# Damped Newton tries shot per pass. mu falls by 3 on an accepted try and rises
# by 10 on a rejected one, so tries settle at an acceptance rate of
# ln 10 / (ln 3 + ln 10) ~ 0.68 and most iterations need one or two.
TRIES_PER_PASS = 2


class OptimalControlError(ValueError):
    """Infeasible problem or invalid solver input."""


class SettingsError(OptimalControlError):
    """Solver settings out of range."""


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
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        rules = {
            "finite t0": np.isfinite(self.t0),
            "finite tf > t0": np.isfinite(self.tf) and self.tf > self.t0,
            "finite tf - t0": np.isfinite(self.tf - self.t0),
            "steps >= 1": self.steps >= 1,
            "finite newton_tol > 0": np.isfinite(self.newton_tol) and self.newton_tol > 0,
            "max_iter >= 1": self.max_iter >= 1,
            "restarts >= 0": self.restarts >= 0,
            "seed >= 0": self.seed >= 0,
        }
        broken = [rule for rule, ok in rules.items() if not ok]
        if broken:
            raise SettingsError(f"solver settings need {', '.join(broken)}")
        report = check_feasible(self.graph, self.target)
        if not report.feasible:
            raise InfeasibleError(f"infeasible problem: {report.reason}")


def _summary(sol) -> dict:
    """The six aggregate solution.json keys of an arc or a whole solution."""
    return {
        "converged": sol.converged,
        "residual": sol.residual_norm,
        "cost": sol.cost,
        "iterations": sol.iterations,
        "restart_used": sol.restart_used,
        "lambda0": [[float(v) for v in row] for row in sol.lambda0],
    }


@dataclass
class ExtremalSolution:
    """One extremal arc: the result of a single shooting solve from X = I."""

    lambda0: np.ndarray
    grid: np.ndarray
    X_seq: np.ndarray
    lambda_seq: np.ndarray
    schedule: WeightSchedule
    cost: float
    residual_norm: float
    converged: bool
    iterations: int
    restart_used: int

    @property
    def final(self) -> np.ndarray:
        return self.X_seq[-1]

    def to_json_dict(self) -> dict:
        return _summary(self)


@dataclass
class Solution:
    """A schedule on [t0, tf] as consecutive extremal arcs.

    Every arc is solved from the identity, so the transition on arc k is the
    arc's own X(t) times the composed transition at the arc's start. A solve
    without waypoints has one arc.
    """

    arcs: list
    target: np.ndarray

    def segments(self) -> list:
        return self.arcs

    def transition(self):
        """The composed (grid, X) over all arcs; each join's time appears once."""
        B = np.eye(self.target.shape[0])
        grids, mats = [], []
        for k, arc in enumerate(self.arcs):
            Xg = arc.X_seq @ B
            B = arc.final @ B
            grids.append(arc.grid[1:] if k else arc.grid)
            mats.append(Xg[1:] if k else Xg)
        return np.concatenate(grids), np.concatenate(mats)

    @property
    def final(self) -> np.ndarray:
        return self.transition()[1][-1]

    @property
    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.final - self.target))

    @property
    def cost(self) -> float:
        return float(sum(arc.cost for arc in self.arcs))

    @property
    def converged(self) -> bool:
        return all(arc.converged for arc in self.arcs)

    @property
    def iterations(self) -> int:
        return sum(arc.iterations for arc in self.arcs)

    @property
    def restart_used(self) -> int:
        return max(arc.restart_used for arc in self.arcs)

    @property
    def lambda0(self) -> np.ndarray:
        return self.arcs[0].lambda0

    def to_json_dict(self) -> dict:
        """The six aggregate keys, plus the per-arc records when there is
        more than one arc; a one-arc solution reads as its arc."""
        d = _summary(self)
        if len(self.arcs) > 1:
            d["segments"] = [arc.to_json_dict() for arc in self.arcs]
        return d


def hamiltonian(X: np.ndarray, lam: np.ndarray, W: np.ndarray) -> float:
    """Control Hamiltonian: <lam, W X> plus half the squared weight norm."""
    return float(np.sum(lam * (W @ X)) + 0.5 * np.sum(W * W))


def _extremal_rate(Z: np.ndarray, off: np.ndarray):
    """The extremal rate function on one buffer Z = [X, W, lam^T].

    Z has shape (3, ..., n, n), and off is the complement of the edge
    pattern broadcast to X's shape. The returned rate(t, _, out) reads X and
    lam^T from Z, fills Z[1] with the weights W = -(lam X^T) zeroed off the
    pattern, and writes [W X, -(lam^T W)] into out: the state rate and the
    costate rate -W^T lam, transposed. Carrying lam^T makes both products one
    matmul over the contiguous slices [W, lam^T] and [X, W].
    """
    X, W, lamT = Z
    W_lamT, X_W = Z[1:], Z[:2]

    def rate(t, _, out):
        scratch = out[1]
        np.matmul(X, lamT, out=scratch)  # (lam X^T)^T
        np.negative(scratch.swapaxes(-1, -2), out=W)
        np.putmask(W, off, 0.0)
        np.matmul(W_lamT, X_W, out=out)
        np.negative(scratch, out=scratch)
    return rate


def _extremal_at(lam: np.ndarray, X: np.ndarray, msk: SparsityMask):
    """(W, [W X, -(W^T lam)^T]) at checked single or stacked inputs."""
    lam = np.asarray(lam, dtype=float)
    X = np.asarray(X, dtype=float)
    n = msk.n
    if lam.shape[-2:] != (n, n) or X.shape != lam.shape:
        raise OptimalControlError("weights_from_costate: dimension mismatch")
    Z = np.empty((3,) + X.shape)
    Z[0] = X
    Z[2] = np.swapaxes(lam, -1, -2)
    out = np.empty((2,) + X.shape)
    _extremal_rate(Z, np.broadcast_to(~msk.entries, X.shape))(None, None, out)
    return Z[1], out


def weights_from_costate(lam: np.ndarray, X: np.ndarray, msk: SparsityMask) -> np.ndarray:
    """Stationarity condition: W = -(lam X^T) restricted to the edge pattern.

    lam and X are single (n, n) matrices or equal-shaped stacks (..., n, n).
    """
    return _extremal_at(lam, X, msk)[0]


def extremal_rhs(X: np.ndarray, lam: np.ndarray, msk: SparsityMask) -> np.ndarray:
    """State and costate rates along an extremal, per matrix of a stack.

    Returns one array of shape (2,) + X.shape holding W X and -W^T lam.
    """
    dX, dlamT = _extremal_at(lam, X, msk)[1]
    return np.stack([dX, np.swapaxes(dlamT, -1, -2)])


def _shoot_batch(prob: BvpProblem, lam0s: np.ndarray, record: bool = False):
    """RK4 over a batch of costate initial conditions at once.

    The integration runs on one buffer Z = [X, W, lam^T] of shape
    (3, B, n, n) (see _extremal_rate). Its state is the view Z[::2], into
    which _rk4 writes every stage input, and it starts from
    (I, lam0s[b]^T). Returns (X_tf, diverged, points), where points is the
    list of (t, Y) with Y = (X, lam^T) of shape (2, B, n, n) on every grid
    point if record=True and the last one otherwise. A member diverges when
    any entry of its final X or lam is beyond the blow-up limit or not
    finite. A member's result does not depend on its batch; batching keeps
    the finite-difference Jacobian to one integration pass, and each group
    of line-search tries to two.
    """
    n = lam0s.shape[-1]
    Z = np.empty((3,) + lam0s.shape)
    Y0 = np.stack([np.broadcast_to(np.eye(n), lam0s.shape), np.swapaxes(lam0s, -1, -2)])
    rate = _extremal_rate(Z, np.broadcast_to(~mask(prob.graph).entries, lam0s.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = _rk4(rate, Y0, prob.t0, prob.tf, prob.steps, stage=Z[::2])
        points = list(stepper) if record else deque(stepper, maxlen=1)
        Y = points[-1][1]
        diverged = ~(np.abs(Y).max(axis=(0, 2, 3)) <= DIVERGENCE_LIMIT)
    return Y[0], diverged, points


def shoot(prob: BvpProblem, lambda0: np.ndarray):
    """Integrate the coupled extremal system from (I, lambda0).

    Returns (X_tf, info) where info carries the gridded trajectories and a
    `diverged` flag; divergence (any entry beyond the blow-up limit at tf)
    is reported, not raised.
    """
    n = prob.graph.n
    lam0 = np.asarray(lambda0, dtype=float)
    if lam0.shape != (n, n):
        raise OptimalControlError(f"lambda0 has shape {lam0.shape}, expected ({n},{n})")
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


def _residuals(prob: BvpProblem, lam0s: np.ndarray) -> list:
    """Flattened X(tf) - T per member of a costate stack, shot as one batch;
    None for a member whose shoot diverged."""
    X_tf, diverged, _ = _shoot_batch(prob, lam0s)
    return [None if d else (X - prob.target).ravel() for X, d in zip(X_tf, diverged)]


def _jacobian(prob: BvpProblem, lam0: np.ndarray) -> np.ndarray | None:
    """Central finite-difference Jacobian of the terminal residual w.r.t.
    the costate initial condition; all 2 m perturbed shoots form one batch."""
    n = prob.graph.n
    flat = lam0.ravel()
    m = flat.size
    hs = 1e-6 * (1.0 + np.abs(flat))
    pert = np.repeat(flat[None, :], 2 * m, axis=0)
    pert[np.arange(m), np.arange(m)] += hs
    pert[m + np.arange(m), np.arange(m)] -= hs
    X_tf, diverged, _ = _shoot_batch(prob, pert.reshape(2 * m, n, n))
    if diverged.any():
        return None
    up = X_tf[:m].reshape(m, n * n)
    dn = X_tf[m:].reshape(m, n * n)
    return ((up - dn) / (2.0 * hs[:, None])).T


def _build_solution(prob: BvpProblem, lam0: np.ndarray, iterations: int,
                    restart_used: int, converged: bool) -> ExtremalSolution:
    """Re-shoot the chosen costate with recording on and package the result."""
    X_tf, info = shoot(prob, lam0)
    msk = mask(prob.graph)
    W_seq = weights_from_costate(info["lambda_seq"], info["X_seq"], msk)
    sched = WeightSchedule(grid=info["grid"], W_seq=W_seq, mask=msk)
    return ExtremalSolution(
        lambda0=np.asarray(lam0, dtype=float).copy(),
        grid=info["grid"], X_seq=info["X_seq"], lambda_seq=info["lambda_seq"],
        schedule=sched, cost=cost(sched),
        residual_norm=float(np.linalg.norm(X_tf - prob.target)),
        converged=converged, iterations=iterations, restart_used=restart_used)


def _corrected_step(A, J, r, delta, rp, rm, h):
    """The damped step delta plus half its geodesic acceleration, taken from
    the probes rp, rm at lam +- h delta when both stayed finite and the
    correction is at most 0.75 |delta|."""
    if rp is None or rm is None:
        return delta
    rpp = (rp - 2.0 * r + rm) / (h * h)
    try:
        accel = solve_linear(A, -(J.T @ rpp) / 2.0)
    except DynamicsError:
        return delta
    if np.linalg.norm(accel) <= 0.75 * np.linalg.norm(delta):
        return delta + 0.5 * accel
    return delta


def _newton_from(prob: BvpProblem, lam0: np.ndarray):
    """Damped Gauss-Newton (Levenberg-style) from one starting costate.

    Each accepted step is corrected with a geodesic acceleration term (a
    second directional derivative of the residual along the step); without
    it the iteration crawls through the curved, nearly flat valleys that
    strongly contracting targets produce. Only steps that lower the residual
    are accepted, so the current costate is always the best one seen.

    An iteration makes at most 30 damped tries, multiplying mu by 10 after
    each failed one and stopping once a rejection takes mu past 1e14. The
    tries are shot TRIES_PER_PASS at a time: the probes of the next tries
    share one pass and their candidates another. The first candidate in
    order that lowers the residual wins and mu continues from its try, so
    every decision is the one the tries made one by one would reach.

    Returns (lam0, residual_norm, iterations, converged); a diverging start
    has residual norm inf.
    """
    n = prob.graph.n
    h = 0.1
    lam = np.asarray(lam0, dtype=float).copy()
    r, = _residuals(prob, lam[None])
    if r is None:
        return lam, np.inf, 0, False
    rnorm = float(np.linalg.norm(r))
    mu = 1e-3
    iterations = 0
    for _ in range(prob.max_iter):
        if rnorm < prob.newton_tol:
            break
        J = _jacobian(prob, lam)
        if J is None:
            break
        g = J.T @ r
        JTJ = J.T @ J
        tr = max(float(np.trace(JTJ)) / g.size, 1e-30)
        accepted = False
        left, stop = 30, False
        while not accepted and left and not stop:
            group = []  # (mu, A, delta) per try, mu raised as if each were rejected
            while len(group) < TRIES_PER_PASS and left and not stop:
                left -= 1
                A = JTJ + mu * tr * np.eye(g.size)
                try:
                    delta = solve_linear(A, -g)
                except DynamicsError:
                    mu *= 10.0
                    continue
                group.append((mu, A, delta))
                mu *= 10.0
                stop = mu > 1e14
            if not group:
                break
            ds = [h * delta.reshape(n, n) for _, _, delta in group]
            probes = _residuals(prob, np.stack([v for d in ds for v in (lam + d, lam - d)]))
            cands = [lam + _corrected_step(A, J, r, delta, rp, rm, h).reshape(n, n)
                     for (_, A, delta), rp, rm in zip(group, probes[::2], probes[1::2])]
            for (mu_try, _, _), cand, rc in zip(group, cands, _residuals(prob, np.stack(cands))):
                if rc is not None and np.linalg.norm(rc) < rnorm:
                    lam, r = cand, rc
                    rnorm = float(np.linalg.norm(rc))
                    mu = max(mu_try / 3.0, 1e-14)
                    accepted = True
                    break
        iterations += 1
        if not accepted:
            break
    return lam, rnorm, iterations, rnorm < prob.newton_tol


def solve_bvp(prob: BvpProblem, initial_guess: np.ndarray | None = None) -> ExtremalSolution:
    """Shooting solve of the two-point boundary problem.

    An optional warm-start costate is tried first, then the zero costate
    (exact for T = I); on stall the solver restarts from seeded random
    costates, each restart drawing its own RNG stream from seed + restart
    index. The first converged start wins; otherwise the start with the
    smallest residual is reported.
    """
    n = prob.graph.n
    total_iters = 0
    starts = [(0, np.zeros((n, n)))]
    if initial_guess is not None:
        guess = np.asarray(initial_guess, dtype=float)
        if guess.shape != (n, n):
            raise OptimalControlError(f"initial_guess has shape {guess.shape}, expected ({n},{n})")
        starts.insert(0, (0, guess))
    for ridx in range(1, prob.restarts + 1):
        rng = np.random.default_rng(prob.seed + ridx)
        starts.append((ridx, rng.uniform(-0.5, 0.5, size=(n, n))))
    best = (np.inf, None, None)  # (residual_norm, restart_idx, lam)
    for ridx, lam0 in starts:
        lam, rnorm, iters, converged = _newton_from(prob, lam0)
        total_iters += iters
        if converged:
            return _build_solution(prob, lam, total_iters, ridx, True)
        if rnorm < best[0]:
            best = (rnorm, ridx, lam)
    if best[1] is None:
        raise OptimalControlError("all shooting restarts diverged")
    return _build_solution(prob, best[2], total_iters, best[1], False)


def homotopy_singularity_scan(T: np.ndarray, samples: int = 201):
    """Minimum |det| of the straight-line homotopy (1-s) I + s T over [0, 1].

    Returns (min_abs_det, argmin_s); a small minimum signals that direct
    shooting will be ill-conditioned and waypoints are advisable.
    """
    if samples < 2:
        raise OptimalControlError("singularity scan needs samples >= 2")
    T = np.asarray(T, dtype=float)
    n = T.shape[0]
    eye = np.eye(n)
    best_val, best_s = np.inf, 0.0
    for s in np.linspace(0.0, 1.0, samples):
        d = abs(determinant((1.0 - s) * eye + s * T))
        if d < best_val:
            best_val, best_s = d, float(s)
    return float(best_val), best_s


def solve_with_waypoints(prob: BvpProblem, waypoints) -> Solution:
    """Sequential shooting through intermediate target matrices; with no
    waypoints this is one shooting solve over the whole horizon.

    Arc k is reformulated from the identity with target B_k B_{k-1}^{-1}
    (B_0 = I, B_last = T); the composed transition telescopes to T and each
    arc starts well-conditioned near the identity. Waypoints split [t0, tf]
    into equal sub-intervals; the dynamics are autonomous, so each arc's
    converged costate is a natural warm start for the next one.
    """
    waypoints = [np.asarray(W, dtype=float) for W in waypoints]
    for k, B in enumerate(waypoints):
        rep = check_feasible(prob.graph, B)
        if not rep.feasible:
            raise InfeasibleError(f"waypoint {k + 1} infeasible: {rep.reason}")
    arc_targets = []  # B_k B_{k-1}^{-1}, all formed before any arc is solved
    for k, (prev, B) in enumerate(zip([np.eye(prob.graph.n)] + waypoints,
                                      waypoints + [prob.target])):
        try:
            arc_targets.append(solve_linear(prev.T, B.T).T)
        except DynamicsError as exc:  # prev is waypoint k
            raise InfeasibleError(f"waypoint {k} is singular to working precision") from exc
    times = np.linspace(prob.t0, prob.tf, len(arc_targets) + 1)
    arcs = []
    warm = None
    for k, target in enumerate(arc_targets):
        arc_prob = replace(prob, target=target, t0=float(times[k]), tf=float(times[k + 1]),
                           seed=prob.seed + 1000 * k)
        arc = solve_bvp(arc_prob, initial_guess=warm)
        arcs.append(arc)
        warm = arc.lambda0 if arc.converged else None
    return Solution(arcs=arcs, target=prob.target)
