"""Shooting solver, extremal structure, and waypoint composition."""

import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import netxform as nx
from netxform import optimal_control
from netxform.dynamics import DynamicsError, integrate_transition, simulation_steps
from netxform.graph import InputError
from netxform.optimal_control import (BvpProblem, OptimalControlError,
                                      _newton_from, _shoot_batch,
                                      cost, extremal_rhs, hamiltonian,
                                      homotopy_singularity_scan, shoot,
                                      solve_bvp, solve_with_waypoints,
                                      weights_from_costate)
from netxform.scenarios import SWAP_WAYPOINT_4

from conftest import PATH3_TARGET, exact_determinant


# ---------------------------------------------------------------------------
# pointwise structure


def test_weights_zero_costate_gives_zero_weights():
    msk = nx.path_graph(3).mask
    W = weights_from_costate(np.zeros((3, 3)), np.eye(3), msk)
    assert not W.any()


def test_weights_scalar_case():
    msk = nx.build_graph(1, []).mask
    W = weights_from_costate(np.array([[-0.7]]), np.array([[2.0]]), msk)
    assert W[0, 0] == 1.4


def test_weights_complete_graph_identity_arguments():
    msk = nx.complete_graph(2).mask
    assert np.array_equal(weights_from_costate(np.eye(2), np.eye(2), msk),
                          -np.eye(2))


def test_weights_respect_mask_zeros():
    msk = nx.path_graph(3).mask
    rng = np.random.default_rng(0)
    W = weights_from_costate(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), msk)
    assert W[0, 2] == 0.0 and W[2, 0] == 0.0


def test_weights_dimension_mismatch():
    msk = nx.path_graph(3).mask
    with pytest.raises(InputError):
        weights_from_costate(np.eye(2), np.eye(3), msk)


def test_extremal_rhs_zero_costate_is_stationary():
    msk = nx.path_graph(3).mask
    dX, dlam = extremal_rhs(np.eye(3), np.zeros((3, 3)), msk)
    assert not dX.any() and not dlam.any()


def test_extremal_rhs_scalar_closed_form():
    msk = nx.build_graph(1, []).mask
    x, c = 1.7, -0.4
    dX, dlam = extremal_rhs(np.array([[x]]), np.array([[c]]), msk)
    assert abs(dX[0, 0] + c * x * x) < 1e-15
    assert abs(dlam[0, 0] - c * c * x) < 1e-15


def test_extremal_rhs_matches_entrywise_forms():
    rng = np.random.default_rng(1)
    msk = nx.cycle_graph(4).mask
    X = rng.normal(size=(4, 4))
    lam = rng.normal(size=(4, 4))
    W = weights_from_costate(lam, X, msk)
    dX, dlam = extremal_rhs(X, lam, msk)
    assert np.abs(dX - W @ X).max() < 1e-13
    assert np.abs(dlam + W.T @ lam).max() < 1e-13


def test_weights_and_rhs_on_stacks_match_per_matrix_calls_bitwise():
    rng = np.random.default_rng(5)
    msk = nx.cycle_graph(5).mask
    lam = rng.normal(size=(2, 7, 5, 5))
    X = rng.normal(size=(2, 7, 5, 5))
    W = weights_from_costate(lam, X, msk)
    dX, dlam = extremal_rhs(X, lam, msk)
    for idx in np.ndindex(2, 7):
        assert np.array_equal(W[idx], weights_from_costate(lam[idx], X[idx], msk))
        dX1, dlam1 = extremal_rhs(X[idx], lam[idx], msk)
        assert np.array_equal(dX[idx], dX1) and np.array_equal(dlam[idx], dlam1)


@pytest.mark.parametrize("stack", [(), (3,), (2, 7)])
def test_extremal_rhs_is_one_stacked_rate(stack):
    rng = np.random.default_rng(6)
    msk = nx.cycle_graph(5).mask
    X = rng.normal(size=stack + (5, 5))
    lam = rng.normal(size=stack + (5, 5))
    X0, lam0 = X.copy(), lam.copy()
    W = weights_from_costate(lam, X, msk)
    assert np.array_equal(W, np.where(msk, -(lam @ np.swapaxes(X, -1, -2)), 0.0))
    assert np.array_equal(X, X0) and np.array_equal(lam, lam0)
    rate = extremal_rhs(X, lam, msk)
    assert rate.shape == (2,) + X.shape
    assert np.array_equal(rate[0], W @ X)
    assert np.array_equal(rate[1], -np.swapaxes(W, -1, -2) @ lam)


def test_weights_stack_shape_mismatch():
    msk = nx.path_graph(3).mask
    with pytest.raises(InputError):
        weights_from_costate(np.zeros((4, 3, 3)), np.zeros((3, 3, 3)), msk)
    with pytest.raises(InputError):
        weights_from_costate(np.zeros(3), np.zeros(3), msk)


def test_hamiltonian_values():
    assert hamiltonian(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    W = np.array([[0.0, 1.0], [0.0, 0.0]])
    lam = np.array([[0.0, 2.0], [0.0, 0.0]])
    # <lam, W X> = 2 and half the squared weight norm is 0.5
    assert hamiltonian(np.eye(2), lam, W) == 2.5


# ---------------------------------------------------------------------------
# shooting primitives


def test_shoot_zero_costate_keeps_identity():
    prob = BvpProblem(graph=nx.path_graph(2), target=np.eye(2))
    X_tf, info = shoot(prob, np.zeros((2, 2)))
    assert np.abs(X_tf - np.eye(2)).max() == 0.0
    assert not info["diverged"]
    assert info["grid"].size == prob.steps + 1


def test_shoot_scalar_analytic_costate():
    prob = BvpProblem(graph=nx.build_graph(1, []), target=np.array([[2.0]]))
    X_tf, info = shoot(prob, np.array([[-np.log(2.0)]]))
    assert abs(X_tf[0, 0] - 2.0) < 1e-8
    assert not info["diverged"]


def test_shoot_conserves_costate_state_product():
    prob = BvpProblem(graph=nx.path_graph(3),
                      target=np.eye(3) * 0.9 + 0.1 / 3)
    rng = np.random.default_rng(2)
    lam0 = np.where(prob.graph.mask, rng.uniform(-0.3, 0.3, (3, 3)), 0.0)
    _, info = shoot(prob, lam0)
    lamX = np.einsum("kji,kjl->kil", info["lambda_seq"], info["X_seq"])
    assert np.abs(lamX - lamX[0]).max() < 1e-8


def test_shoot_reports_divergence():
    prob = BvpProblem(graph=nx.complete_graph(3), target=np.eye(3))
    _, info = shoot(prob, np.full((3, 3), 40.0))
    assert info["diverged"]


def test_batch_shoot_matches_single_member_shoots_bitwise():
    # what the finite-difference Jacobian relies on: a member's terminal state
    # does not depend on the batch it is integrated in
    prob = BvpProblem(graph=nx.cycle_graph(4), target=np.eye(4))
    rng = np.random.default_rng(4)
    lam0s = rng.uniform(-0.5, 0.5, (6, 4, 4))
    lam0s[2] = 40.0  # diverges
    X_tf, diverged, _ = _shoot_batch(prob, lam0s)
    assert diverged.tolist() == [False, False, True, False, False, False]
    for b in range(lam0s.shape[0]):
        X1, d1, _ = _shoot_batch(prob, lam0s[b:b + 1])
        assert d1[0] == diverged[b]
        if not d1[0]:
            assert np.array_equal(X1[0], X_tf[b])
            assert np.array_equal(shoot(prob, lam0s[b])[0], X_tf[b])


def _central_jacobian(prob, lam):
    # the oracle: central differences over 2 n^2 shoots, with the solver's steps
    flat = lam.ravel()
    cols = []
    for j in range(flat.size):
        e = np.zeros(flat.size)
        e[j] = 1e-6 * (1.0 + abs(flat[j]))
        up, dn = (shoot(prob, (flat + s * e).reshape(lam.shape))[0] for s in (1.0, -1.0))
        cols.append((up - dn).ravel() / (2.0 * e[j]))
    return np.array(cols).T


def _residual(prob, lam):
    return (shoot(prob, lam)[0] - prob.target).ravel()


def _residuals(prob, lam0s):
    # what solve_bvp's residual function returns a Newton start for a stack:
    # X(tf) - T per member, flattened, from one batch shoot; None for a
    # diverged member
    X_tf, diverged, _ = _shoot_batch(prob, lam0s)
    return [None if d else (X - prob.target).ravel() for X, d in zip(X_tf, diverged)]


def _separate_jacobian(prob, lam):
    # lam's Jacobian from its stencil shot alone
    members, hs = optimal_control._stencil(lam)
    return optimal_control._jacobian(_residual(prob, lam), _residuals(prob, members), hs)


@pytest.mark.parametrize("graph", [nx.path_graph(5), nx.path_graph(6), nx.cycle_graph(4)],
                         ids=["path5", "path6", "cycle4"])
def test_forward_jacobian_matches_the_central_oracle(graph):
    prob = BvpProblem(graph=graph, target=np.eye(graph.n))
    lam = 0.3 * np.random.default_rng(7).standard_normal((graph.n, graph.n))
    J = _separate_jacobian(prob, lam)
    oracle = _central_jacobian(prob, lam)
    err = np.linalg.norm(J - oracle, axis=0) / np.linalg.norm(oracle, axis=0)
    assert err.max() < 1e-3, err.max()


def test_forward_jacobian_at_the_zero_start_keeps_the_edge_pattern():
    # at lam = 0 a costate entry off the pattern moves no weight, so X(tf)
    # stays I to the bit and its column is exactly zero
    graph = nx.path_graph(5)
    prob = BvpProblem(graph=graph, target=np.eye(5) * 0.8 + 0.04)
    lam = np.zeros((5, 5))
    J = _separate_jacobian(prob, lam)
    off = ~graph.mask.ravel()
    assert off.sum() == 12 and not J[:, off].any()
    assert np.linalg.matrix_rank(J) == 13


def test_jacobian_from_a_candidate_pass_is_bitwise_the_separate_one():
    # lam's stencil shot behind lam alone, as a start's pass shoots it, and
    # behind two candidates, lam first or second
    prob = BvpProblem(graph=nx.cycle_graph(4), target=np.eye(4))
    rng = np.random.default_rng(8)
    lam, other = rng.uniform(-0.5, 0.5, (2, 4, 4))
    members, hs = optimal_control._stencil(lam)
    separate = _separate_jacobian(prob, lam)
    for ride, cands in [(0, [lam]), (0, [lam, other]), (1, [other, lam])]:
        shot = _residuals(prob, np.concatenate([cands, members]))
        J = optimal_control._jacobian(shot[ride], shot[len(cands):], hs)
        assert np.array_equal(J, separate)
        assert np.array_equal(shot[ride], _residual(prob, lam))


def _checked_shoot_plan(monkeypatch, graph, target, settings, starts):
    # one letter per batch shoot. S = a start's pass: its costate, then the
    # n^2 members of its Jacobian stencil; it is told from a one-candidate
    # pass of the same size by position, as the first pass of its start. The
    # others by batch size: J = a stencil alone, F = the recorded final
    # shoot, 2, 4 = probes, and C, c = two candidates or one with one's
    # stencil. A start's iterations shoot their line-search tries two at a
    # time: the probes lam +- h delta of both tries (4), then their
    # candidates (C). Only an iteration's last group may hold one try: probes
    # (2), candidate (c). A candidate pass ends with the stencil of one of its
    # candidates: the first whose model from the probes predicts a residual
    # below |r|, or else the first. The first iteration takes its Jacobian
    # from the S pass, and every later one from the candidate pass when the
    # accepted candidate carried the stencil, or else from a J pass.
    plan, sources, opening = [], [], []
    real, real_jacobian = optimal_control._shoot_batch, optimal_control._jacobian
    real_newton = optimal_control._newton_from
    m = graph.n ** 2

    def newton_from(prob, lam0, residuals):
        opening.append(lam0)
        return real_newton(prob, lam0, residuals)

    def counted(prob, lam0s, record=False):
        B = lam0s.shape[0]
        if opening:
            assert B == 1 + m and np.array_equal(lam0s[0], opening.pop())
            plan.append("S")
        else:
            plan.append("F" if record else {2: "2", 4: "4", m: "J", m + 1: "c", m + 2: "C"}[B])
        assert B == 1 or not record
        if B > m:
            assert any(np.array_equal(lam0s[B - m:], optimal_control._stencil(c)[0])
                       for c in lam0s[:B - m])
        return real(prob, lam0s, record)

    def jacobian(r, held, hs):
        sources.append(plan[-1])  # the pass the stencil was shot in
        return real_jacobian(r, held, hs)

    monkeypatch.setattr(optimal_control, "_newton_from", newton_from)
    monkeypatch.setattr(optimal_control, "_shoot_batch", counted)
    monkeypatch.setattr(optimal_control, "_jacobian", jacobian)
    sol = solve_bvp(BvpProblem(graph=graph, target=target, **settings))
    plan = "".join(plan)
    start = r"S(?:J?(?:4C|2c)+)*"
    assert re.fullmatch(rf"(?:{start})+F", plan), plan
    assert len(re.findall(start, plan)) == starts
    assert len(sources) == sol.iterations and set(sources) <= set("SJCc")
    assert sources.count("J") == plan.count("J")
    return plan


@pytest.mark.parametrize("graph, target, settings, starts", [
    (nx.path_graph(3), np.eye(3) * 0.7 + 0.1, {}, 1),
    (nx.path_graph(4), np.eye(4)[[1, 0, 3, 2]], {"max_iter": 2, "restarts": 1}, 2),
])
def test_shoot_plan(monkeypatch, graph, target, settings, starts):
    _checked_shoot_plan(monkeypatch, graph, target, settings, starts)


def test_shoot_plan_takes_every_later_jacobian_from_a_candidate_pass(monkeypatch):
    # 11 iterations of one try group each: the first takes its Jacobian from
    # the start's pass and every later one from a candidate pass, so no
    # stencil is shot alone
    plan = _checked_shoot_plan(monkeypatch, nx.path_graph(3), np.eye(3) * 0.7 + 0.1, {}, 1)
    assert plan == "S" + "4C" * 11 + "F"


def test_shoot_plan_across_try_groups(monkeypatch):
    # the last iteration of the second start makes 7 tries: four groups
    plan = _checked_shoot_plan(monkeypatch, nx.path_graph(4), np.eye(4)[[1, 0, 3, 2]],
                               {"max_iter": 3, "restarts": 1}, 2)
    assert plan == "S4CJ4C4C" + "S4C4CJ" + "4C" * 4 + "F"
    assert max(len(m) // 2 for m in re.findall(r"[SJ]((?:4C|2c)+)", plan)) == 4


@pytest.mark.parametrize("prob, iterations", [
    (BvpProblem(graph=nx.path_graph(3), target=np.eye(3) * 0.7 + 0.1), 11),
    (BvpProblem(graph=nx.cycle_graph(4), target=SWAP_WAYPOINT_4, tf=0.5, max_iter=3,
                restarts=1), 6),
], ids=["path3", "swap4-arc1"])
def test_solve_equals_its_starts_run_by_hand(monkeypatch, prob, iterations):
    # Newton shoots nothing itself: every pass solve_bvp makes before the
    # recorded final shoot is a stack its starts pass to their residual
    # function, bit for bit and in order, as when the starts are run by hand,
    # and the solve reports the costate that the starts run by hand choose
    stacks = []

    def by_hand(stack):
        stacks.append(stack.copy())
        return _residuals(prob, stack)

    n = prob.graph.n
    done = [_newton_from(prob, np.zeros((n, n)), by_hand)]
    for r in range(1, prob.restarts + 1):  # the seeded restarts, up to a converged start
        if not done[-1][3]:
            lam0 = np.random.default_rng(prob.seed + r).uniform(-0.5, 0.5, (n, n))
            done.append(_newton_from(prob, lam0, by_hand))
    # the converged start, or else the first with the smallest residual
    chosen = done[-1][0] if done[-1][3] else min(done, key=lambda d: d[1])[0]
    handed = []

    def recorded(prob, lam0s, record=False):
        handed.append((record, lam0s.copy()))
        return _shoot_batch(prob, lam0s, record)

    monkeypatch.setattr(optimal_control, "_shoot_batch", recorded)
    sol = solve_bvp(prob)
    assert sol.iterations == sum(d[2] for d in done) == iterations
    assert sol.lambda0.tobytes() == chosen.tobytes() == handed[-1][1][0].tobytes()
    assert [record for record, _ in handed] == [False] * len(stacks) + [True]
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for (_, a), b in zip(handed, stacks))


def test_line_search_groups_keep_the_sequential_schedule():
    # script the candidates: the second try is accepted, every other one is
    # rejected. Taken one by one, the tries run mu from 1e-3 to 1e-2, accept,
    # continue from 1e-2 / 3, and stop after the 17th rejection takes mu past
    # 1e14: 2 + 17 tries. Shot two at a time, the last group holds one try.
    # The probes' model predicts a lower residual for both tries of the first
    # group, so the stencil rides with the first, which is rejected: the
    # accepted try's stencil is not shot and the second iteration shoots its
    # own Jacobian. Later groups' models predict no decrease, so their
    # stencils ride with their first candidates too.
    prob = BvpProblem(graph=nx.path_graph(3), target=np.eye(3) * 0.7 + 0.1)
    r0, = _residuals(prob, np.zeros((1, 3, 3)))
    sizes, tries = [], []

    def scripted(lam0s):
        sizes.append(lam0s.shape[0])
        # the start's pass (by position: a one-candidate pass has its size),
        # a stencil alone, probes
        if len(sizes) == 1 or lam0s.shape[0] <= 9:
            return _residuals(prob, lam0s)
        assert np.array_equal(lam0s[-9:], optimal_control._stencil(lam0s[0])[0])
        out = []
        for _ in lam0s[:-9]:  # the candidates, then the first one's stencil
            tries.append(None)
            out.append(0.5 * r0 if len(tries) == 2 else None)
        return out + [None] * 9

    _, rnorm, iterations, converged = _newton_from(prob, np.zeros((3, 3)), scripted)
    assert (iterations, converged, len(tries)) == (2, False, 19)
    assert rnorm == 0.5 * np.linalg.norm(r0)
    assert sizes == [1 + 9, 4, 2 + 9, 9] + [4, 2 + 9] * 8 + [2, 1 + 9]


def test_the_stencil_rides_with_the_try_the_probes_favour():
    # a scripted linear residual r(lam) = r0 + lam, so J = I, except that the
    # first try of each group has diverging probes and a diverging candidate.
    # Its model is then inf, while the second try's is about |r| mu / (1 + mu)
    # < |r|. So the second candidate carries the stencil and wins, and the
    # second iteration takes its Jacobian from that pass: no B = 9 pass of its
    # own, where the first candidate's stencil would have cost one.
    m = 9
    r0 = np.linspace(1.0, 2.0, m)
    sizes, riders, cands = [], [], []

    def scripted(lam0s):
        B = lam0s.shape[0]
        sizes.append(B)
        out = [r0 + lam.ravel() for lam in lam0s]
        if B == 4:  # the probes of two tries
            out[:2] = [None, None]
        elif B == 2 + m:  # two candidates, then one's stencil
            riders.extend(k for k in range(2)
                          if np.array_equal(lam0s[2:], optimal_control._stencil(lam0s[k])[0]))
            cands.append(lam0s[1])
            out[0] = None
        return out

    prob = BvpProblem(graph=nx.path_graph(3), target=np.eye(3) * 0.7 + 0.1, max_iter=2)
    lam, rnorm, iterations, converged = _newton_from(prob, np.zeros((3, 3)), scripted)
    assert sizes == [1 + m, 4, 2 + m, 4, 2 + m]
    assert riders == [1, 1] and (iterations, converged) == (2, False)
    assert np.array_equal(lam, cands[-1])
    assert rnorm == np.linalg.norm(r0 + lam.ravel()) < 1e-3 * np.linalg.norm(r0)


@pytest.mark.parametrize("diverging_pass", [0, 2], ids=["own-pass", "riding-pass"])
def test_a_diverging_stencil_member_stops_the_start(diverging_pass):
    # a scripted linear residual r(lam) = r0 + lam, so J = I and the first
    # candidate wins, carrying its stencil, except that the last stencil
    # member diverges: in the start's own pass, which carries the first
    # Jacobian's stencil (pass 0), or in the candidate pass that carries the
    # second Jacobian's stencil (pass 2).
    # There is then no Jacobian, and the start stops on the costate and
    # residual it holds, without counting the iteration that found none.
    m = 9
    r0 = np.linspace(1.0, 2.0, m)
    sizes, costates = [], [np.zeros((3, 3))]

    def scripted(lam0s):
        sizes.append(lam0s.shape[0])
        out = [r0 + lam.ravel() for lam in lam0s]
        if len(sizes) == 3:  # two candidates, then the first one's stencil
            costates.append(lam0s[0])
        if len(sizes) == diverging_pass + 1:
            out[-1] = None
        return out

    prob = BvpProblem(graph=nx.path_graph(3), target=np.eye(3) * 0.7 + 0.1)
    lam, rnorm, iterations, converged = _newton_from(prob, costates[0], scripted)
    assert sizes == [1 + m, 4, 2 + m][:diverging_pass + 1]
    assert (iterations, converged) == (diverging_pass // 2, False)
    assert np.array_equal(lam, costates[-1])
    assert rnorm == np.linalg.norm(r0 + lam.ravel())


def _tries_one_by_one(mu, singular, accepted):
    # one iteration's tries made one at a time: the mu of each try made, and
    # the mu the next iteration starts from (None when no try is accepted)
    mus = []
    for k in range(30):
        mus.append(mu)
        if k in singular:
            mu *= 10.0
            continue
        if k == accepted:
            return mus, max(mu / 3.0, 1e-14)
        mu *= 10.0
        if mu > 1e14:
            break
    return mus, None


def _shot(mus, singular):
    return len(mus) - len([k for k in singular if k < len(mus)])


@pytest.mark.parametrize("singular1, accepted1, singular2", [
    pytest.param({0}, 2, set(), id="first-try-singular"),
    pytest.param({1}, 2, {3}, id="singular-inside-a-group"),
    pytest.param({3}, 4, {0, 1}, id="singular-before-the-accepted-try"),
    pytest.param({0}, 1, set(), id="accepted-try-opens-its-group"),
    pytest.param({1}, 0, {2}, id="partner-after-a-singular-try"),
    # tries go past mu = 1e14 only because they are singular
    pytest.param(set(), 1, set(range(4, 30)), id="cap-counts-singular-tries"),
])
def test_singular_tries_count_without_a_shoot(monkeypatch, singular1, accepted1, singular2):
    # two iterations with J = I, so every step solve has A = (1 + mu) I. The
    # chosen tries' step solves raise; the candidate of try accepted1 of the
    # first iteration is accepted and every other candidate is rejected.
    m = 9
    r0 = np.ones(m)
    mus1, mu2 = _tries_one_by_one(1e-3, singular1, accepted1)
    accept_at = _shot(mus1, singular1)  # the accepted candidate, counting from 1
    if accept_at % 2:  # shot two at a time, its group's second try is prepared too
        partner = next(k for k in range(len(mus1), 30) if k not in singular1)
        mus1 = _tries_one_by_one(1e-3, singular1, None)[0][:partner + 1]
    mus2, _ = _tries_one_by_one(mu2, singular2, None)
    raises = [k in singular1 for k in range(len(mus1))] + [k in singular2 for k in range(len(mus2))]
    steps, sizes, cands = [], [], []

    def step_solve(A, b):
        assert np.array_equal(A, A[0, 0] * np.eye(m))
        steps.append(A[0, 0])
        if raises[len(steps) - 1]:
            raise DynamicsError("scripted singular system")
        return b / A[0, 0]

    def scripted(lam0s):
        B = lam0s.shape[0]
        sizes.append(B)
        if len(sizes) == 1:  # the start's pass: its costate, then its stencil
            return [r0] + [None] * m
        if B <= m:  # probes, none finite, so no geodesic correction; or a stencil alone
            return [None] * B
        k = B - m  # the candidates, then the first one's stencil
        cands.extend(lam0s[:k])
        return [0.5 * r0 if len(cands) - k + i + 1 == accept_at else None
                for i in range(k)] + [None] * m

    monkeypatch.setattr(optimal_control, "solve_linear", step_solve)
    monkeypatch.setattr(optimal_control, "_jacobian", lambda r, held, hs: np.eye(m))
    prob = BvpProblem(graph=nx.path_graph(3), target=np.eye(3) * 0.7 + 0.1, max_iter=2)
    lam, rnorm, iterations, converged = _newton_from(prob, np.zeros((3, 3)), scripted)
    # each try, singular or not, raises mu tenfold and uses up one of the 30
    assert steps == [1.0 + mu for mu in mus1 + mus2]
    assert (iterations, converged, rnorm) == (2, False, 0.5 * np.linalg.norm(r0))
    assert np.array_equal(lam, cands[accept_at - 1])

    def passes(shot):  # probes, then candidates and a stencil, of the tries shot two at a time
        return [s for k in range(0, shot, 2) for s in (2 * min(2, shot - k), min(2, shot - k) + m)]
    # every probe diverges, so the stencil rides with its group's first candidate,
    # and the second iteration shoots its own when the second was accepted
    alone = [m] if accept_at % 2 == 0 else []
    assert sizes == ([1 + m] + passes(_shot(mus1, singular1)) + alone
                     + passes(_shot(mus2, singular2)))


def test_solve_rejects_unreachable_target_before_any_shoot(monkeypatch):
    def no_shoot(*args, **kwargs):
        raise AssertionError("shot an unreachable target")

    monkeypatch.setattr(optimal_control, "_shoot_batch", no_shoot)
    prob = BvpProblem(graph=nx.path_graph(2), target=np.diag([1e200, 1e200]),
                      restarts=0, max_iter=3)
    with pytest.raises(OptimalControlError, match="divergence limit"):
        solve_bvp(prob)


def test_a_diverging_warm_start_falls_back_to_the_zero_start():
    # the warm start's first shoot diverges, so it spends no iteration; the
    # zero start, always tried next, keeps X = I and has the finite residual
    # I - T, so the solve reports it even with no random restart
    prob = BvpProblem(graph=nx.path_graph(3), restarts=0,
                      target=nx.densification_target(nx.complete_graph(3), 0.0, 0.3))
    warm = 20.0 * np.ones((3, 3))
    assert _newton_from(prob, warm, lambda stack: _residuals(prob, stack))[1:] == \
        (np.inf, 0, False)
    sol, cold = solve_bvp(prob, initial_guess=warm), solve_bvp(prob)
    assert sol.restart_used == 0
    assert np.array_equal(sol.lambda0, cold.lambda0)
    assert (sol.iterations, sol.converged, sol.residual_norm) == \
        (cold.iterations, cold.converged, cold.residual_norm)


@pytest.mark.parametrize("prob, draws", [
    # converges from the zero start in 3 iterations
    (BvpProblem(graph=nx.path_graph(2), target=[[1.1, 0.1], [0.1, 1.0]], restarts=50), 0),
    # the swap scenario's first arc, which converges from restart 2
    (BvpProblem(graph=nx.cycle_graph(4), target=SWAP_WAYPOINT_4, tf=0.5), 2),
], ids=["zero-start", "swap4-arc1"])
def test_restart_costates_are_drawn_only_when_reached(monkeypatch, prob, draws):
    seeds = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        seeds.append(seed)
        if len(seeds) > draws:
            raise AssertionError(f"drew restart costate {len(seeds)} of a solve that needs {draws}")
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    sol = solve_bvp(prob)
    assert sol.converged and sol.restart_used == draws
    assert seeds == [prob.seed + r for r in range(1, draws + 1)]


def test_shoot_rejects_wrong_shape():
    prob = BvpProblem(graph=nx.path_graph(2), target=np.eye(2))
    with pytest.raises(InputError):
        shoot(prob, np.zeros((3, 3)))


def test_cost_zero_and_scalar_closed_form():
    msk = nx.build_graph(1, []).mask
    zero = nx.constant_schedule(np.zeros((1, 1)), 0.0, 1.0, msk)
    assert cost(zero) == 0.0
    const = nx.constant_schedule(np.array([[np.log(2.0)]]), 0.0, 1.0, msk)
    assert abs(cost(const) - 0.5 * np.log(2.0) ** 2) < 1e-14


def test_cost_quadratic_in_the_weights():
    msk = nx.path_graph(3).mask
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 11)
    W_seq = np.array([np.where(msk, rng.normal(size=(3, 3)), 0.0) for _ in grid])
    s1 = nx.WeightSchedule(grid=grid, W_seq=W_seq, mask=msk)
    s2 = nx.WeightSchedule(grid=grid, W_seq=3.0 * W_seq, mask=msk)
    assert abs(cost(s2) - 9.0 * cost(s1)) < 1e-12


# ---------------------------------------------------------------------------
# problem validation


def test_problem_rejects_infeasible_target():
    with pytest.raises(OptimalControlError):
        BvpProblem(graph=nx.path_graph(3), target=np.full((3, 3), 1.0 / 3))
    with pytest.raises(OptimalControlError):
        BvpProblem(graph=nx.build_graph(3, [(1, 2)]), target=np.eye(3))


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_problem_rejects_non_finite_target(entry):
    target = np.diag([entry, 1.0, 1.0])
    with pytest.raises(InputError, match="target has non-finite entries"):
        BvpProblem(graph=nx.path_graph(3), target=target)


def test_problem_rejects_empty_horizon():
    with pytest.raises(InputError):
        BvpProblem(graph=nx.path_graph(2), target=np.eye(2), t0=1.0, tf=1.0)


@pytest.mark.parametrize("setting", [
    {"steps": 0}, {"max_iter": 0}, {"restarts": -1}, {"seed": -1},
    {"newton_tol": 0.0}, {"newton_tol": -1e-8}, {"newton_tol": np.nan},
    {"newton_tol": np.inf}, {"t0": np.nan}, {"tf": np.inf}, {"t0": -np.inf},
    {"steps": 2.5}, {"max_iter": 1.5}, {"restarts": 0.5}, {"seed": 0.5},
    {"seed": 0.5, "restarts": 1, "max_iter": 1}, {"steps": True}, {"tf": "2"},
])
def test_problem_rejects_out_of_range_settings(monkeypatch, setting):
    # each setting is checked as the problem is built, so nothing is shot
    shots = []
    monkeypatch.setattr(optimal_control, "_shoot_batch", lambda *a, **k: shots.append(a))
    with pytest.raises(InputError, match=next(iter(setting))):
        solve_bvp(BvpProblem(graph=nx.path_graph(2), target=np.eye(2), **setting))
    assert shots == []


def test_problem_takes_whole_settings_of_any_numeric_type_and_keeps_ints_exact():
    prob = BvpProblem(graph=nx.path_graph(2), target=np.eye(2), steps=np.float64(200.0),
                      max_iter=np.int64(7), seed=2**60 + 1, tf=np.int64(2))
    assert type(prob.steps) is int and prob.steps == 200
    assert type(prob.max_iter) is int and prob.max_iter == 7
    assert prob.seed == 2**60 + 1  # a float would round it to 2**60
    assert type(prob.tf) is float and prob.tf == 2.0


def test_problem_rejects_overflowing_horizon():
    with pytest.raises(InputError, match=r"need finite tf - t0$"):
        BvpProblem(graph=nx.path_graph(2), target=np.eye(2), t0=-1e308, tf=1e308)


# ---------------------------------------------------------------------------
# full solves


def test_solve_identity_target_is_free():
    sol = solve_bvp(BvpProblem(graph=nx.path_graph(3), target=np.eye(3)))
    assert sol.converged
    assert sol.iterations == 0
    assert not sol.schedule.W_seq.any()
    assert sol.cost == 0.0


def test_solve_scalar_matches_analytic_solution(scalar_solution):
    sol = scalar_solution
    assert sol.converged and sol.residual_norm < 1e-8
    assert abs(sol.lambda0[0, 0] + np.log(2.0)) < 1e-6
    assert abs(sol.cost - 0.5 * np.log(2.0) ** 2) < 1e-8


def test_solve_emits_stationary_schedule(path3_solution):
    sol = path3_solution
    assert sol.converged
    msk = sol.schedule.mask
    for k in range(sol.schedule.grid.size):
        W = weights_from_costate(sol.lambda_seq[k], sol.X_seq[k], msk)
        assert np.abs(sol.schedule.W_seq[k] - W).max() < 1e-12


def test_solve_forward_verification_at_matched_tolerance():
    # the schedule is exact on the solver grid, so re-integration with
    # stage-aligned steps reproduces the target to well under 10x the
    # shooting tolerance
    prob = BvpProblem(graph=nx.path_graph(3),
                      target=PATH3_TARGET, newton_tol=1e-6)
    sol = solve_bvp(prob)
    assert sol.converged
    final = integrate_transition(sol.schedule, simulation_steps(sol.schedule)).X_seq[-1]
    assert np.linalg.norm(final - prob.target) < 10 * prob.newton_tol


def test_solve_scalar_forward_verification_tight():
    prob = BvpProblem(graph=nx.build_graph(1, []), target=np.array([[2.0]]))
    sol = solve_bvp(prob)
    final = integrate_transition(sol.schedule, simulation_steps(sol.schedule)).X_seq[-1]
    assert np.linalg.norm(final - prob.target) < 10 * prob.newton_tol


def test_solve_warm_start_short_circuits():
    prob = BvpProblem(graph=nx.build_graph(1, []), target=np.array([[2.0]]))
    cold = solve_bvp(prob)
    warm = solve_bvp(prob, initial_guess=cold.lambda0)
    assert warm.converged and warm.iterations == 0
    assert np.array_equal(warm.lambda0, cold.lambda0)


def test_solve_in_process_determinism():
    prob = BvpProblem(graph=nx.path_graph(3),
                      target=np.eye(3) * 0.7 + 0.3 / 3)
    finals = []
    for _ in range(2):
        sol = solve_bvp(prob)
        finals.append((sol.lambda0.copy(), sol.cost, sol.residual_norm))
    assert np.array_equal(finals[0][0], finals[1][0])
    assert finals[0][1:] == finals[1][1:]


# ---------------------------------------------------------------------------
# closed-form extremals and the horizon scale
#
# For T = exp(L) with L normal and on the edge pattern, M = lam X^T = -L/tau
# is a fixed point of the extremal flow, so lambda0 = -L/tau is an exact
# extremal with W = L/tau and energy J = |L|^2 / (2 tau).


def _swap_rotation():
    # the pi rotation in the plane of (e1 - e3)/sqrt 2 and (e2 - e4)/sqrt 2,
    # which is the swap (1,3)(2,4) and lies on cycle4's pattern
    u = np.array([1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
    v = np.array([0.0, 1.0, 0.0, -1.0]) / np.sqrt(2.0)
    return np.pi * (np.outer(v, u) - np.outer(u, v))


def _cyclic_skew(n):
    P = np.roll(np.eye(n), 1, axis=1)
    return P - P.T


CLOSED_FORM = (
    [pytest.param(nx.cycle_graph(4), _swap_rotation(), tau, id=f"cycle4-swap-tau{tau}")
     for tau in (0.5, 1.0, 2.0)]
    + [pytest.param(nx.path_graph(n), -0.5 * nx.laplacian(nx.path_graph(n)), 1.0,
                    id=f"path{n}-consensus") for n in (3, 5, 8, 12)]
    + [pytest.param(nx.cycle_graph(n), 0.8 * _cyclic_skew(n), 1.0, id=f"cycle{n}-rotation")
       for n in (4, 5, 8, 12)])


def _closed_form_problem(graph, L, tau):
    # on [1, 1 + tau]: the extremal does not depend on where the horizon starts
    T = scipy.linalg.expm(L)
    return BvpProblem(graph=graph, target=T, t0=1.0, tf=1.0 + tau), np.sum(L * L) / (2.0 * tau)


def _recorded_cost(prob, info):
    msk = prob.graph.mask
    W_seq = weights_from_costate(info["lambda_seq"], info["X_seq"], msk)
    return cost(nx.WeightSchedule(grid=info["grid"], W_seq=W_seq, mask=msk))


@pytest.mark.parametrize("graph, L, tau", CLOSED_FORM)
def test_shoot_from_a_normal_log_is_the_closed_form_extremal(graph, L, tau):
    prob, J = _closed_form_problem(graph, L, tau)
    X_tf, info = shoot(prob, -L / tau)
    assert np.linalg.norm(X_tf - prob.target) < 1e-7
    assert abs(_recorded_cost(prob, info) - J) < 1e-9 * J


@pytest.mark.parametrize("graph, L, tau", CLOSED_FORM)
def test_solve_from_a_normal_log_keeps_the_closed_form_energy(graph, L, tau):
    prob, J = _closed_form_problem(graph, L, tau)
    sol = solve_bvp(prob, initial_guess=-L / tau)
    assert sol.converged and sol.iterations <= 1
    assert abs(sol.cost - J) < 1e-7 * J


@pytest.mark.parametrize("c", [2.0, 0.25, 7.0])
def test_a_shifted_and_rescaled_horizon_reshoots_the_same_arc(c, path3_solution):
    # the extremal system is autonomous and quadratic, so (lambda0 / c, c tau)
    # traces the same X on any start time, with energy J / c
    prob = BvpProblem(graph=nx.path_graph(3), target=PATH3_TARGET)
    sol = path3_solution
    assert sol.converged
    moved = replace(prob, t0=1.0, tf=1.0 + c * (prob.tf - prob.t0))
    X_tf, info = shoot(moved, sol.lambda0 / c)
    assert np.abs(X_tf - sol.X_seq[-1]).max() < 1e-14
    assert abs(_recorded_cost(moved, info) * c - sol.cost) < 1e-12 * sol.cost


# ---------------------------------------------------------------------------
# waypoints


def test_waypoints_empty_list_is_plain_solve():
    prob = BvpProblem(graph=nx.build_graph(1, []), target=np.array([[2.0]]))
    sol = solve_with_waypoints(prob, [])
    assert len(sol.segments()) == 1
    assert sol.to_json_dict() == optimal_control._summary(solve_bvp(prob))
    assert abs(sol.arcs[0].lambda0[0, 0] + np.log(2.0)) < 1e-6


def test_waypoint_equal_to_target_makes_second_leg_free():
    T = np.array([[2.0]])
    prob = BvpProblem(graph=nx.build_graph(1, []), target=T)
    sol = solve_with_waypoints(prob, [T])
    assert sol.converged and len(sol.segments()) == 2
    # the second leg's target is the identity, so its weights are (up to the
    # shooting tolerance) zero and its cost negligible
    assert np.abs(sol.segments()[1].schedule.W_seq).max() < 1e-8
    assert sol.segments()[1].cost < 1e-16
    assert sol.residual_norm < prob.newton_tol


def test_waypoints_compose_to_the_target():
    T = np.diag([0.5, 2.0, 1.0])
    mid = np.diag([0.5 ** 0.5, 2.0 ** 0.5, 1.0])
    prob = BvpProblem(graph=nx.path_graph(3), target=T)
    sol = solve_with_waypoints(prob, [mid])
    assert sol.converged
    assert sol.residual_norm < prob.newton_tol
    assert np.linalg.norm(sol.transition()[1][-1] - T) == sol.residual_norm
    assert abs(sol.to_json_dict()["cost"] - sum(s.cost for s in sol.segments())) < 1e-15


@pytest.mark.parametrize("report", ["densify_report", "swap_report"])
def test_solution_json_aggregates_its_arc_records(report, request):
    # the top-level keys are the segments' records aggregated: cost the float
    # sum in arc order, iterations the sum, restart_used the largest,
    # converged all, lambda0 the first arc's, residual the composed one
    sol = request.getfixturevalue(report).solution
    d = sol.to_json_dict()
    segs = d["segments"]
    assert segs == [optimal_control._summary(arc) for arc in sol.arcs] and len(segs) > 1
    assert d["cost"] == float(sum(seg["cost"] for seg in segs))
    assert d["iterations"] == sum(seg["iterations"] for seg in segs)
    assert d["restart_used"] == max(seg["restart_used"] for seg in segs)
    assert d["converged"] is all(seg["converged"] for seg in segs)
    assert d["lambda0"] == segs[0]["lambda0"]
    assert d["residual"] == float(np.linalg.norm(sol.transition()[1][-1] - sol.target))


def test_solution_json_aggregation_tells_the_rules_apart(swap_report):
    # the fixtures' arcs cannot tell max from sum or one summation order from
    # another; arcs with unequal records can: 1 + 1e-16 rounds to 1 first
    a, b = swap_report.solution.arcs
    arcs = [replace(b, cost=1.0, restart_used=1), replace(a, cost=1e-16, restart_used=3),
            replace(a, cost=-1.0, restart_used=2)]
    d = nx.Solution(arcs=arcs, target=swap_report.solution.target).to_json_dict()
    assert (d["cost"], d["restart_used"]) == (0.0, 3)
    assert d["iterations"] == b.iterations + 2 * a.iterations
    assert d["lambda0"] == b.lambda0.tolist()


def test_one_arc_solution_json_is_its_arc_record(path3_solution):
    sol = nx.Solution(arcs=[path3_solution], target=PATH3_TARGET)
    d, rec = sol.to_json_dict(), optimal_control._summary(path3_solution)
    assert d.pop("residual") == float(np.linalg.norm(sol.transition()[1][-1] - PATH3_TARGET))
    del rec["residual"]
    assert d == rec


def test_waypoints_reject_infeasible_waypoint():
    prob = BvpProblem(graph=nx.path_graph(3), target=np.eye(3))
    with pytest.raises(OptimalControlError):
        solve_with_waypoints(prob, [np.full((3, 3), 1.0 / 3)])


BAD_WAYPOINTS = {
    "3x3": (np.eye(3), "waypoint 1 must be of shape (2, 2), got shape (3, 3)"),
    "nan": ([[np.nan, 0.0], [0.0, 1.0]], "waypoint 1 has non-finite entries"),
    "strings": ([["1", "0"], ["0", "1"]], "waypoint 1 must hold numbers, not '1'"),
    "1-D": ([1.0, 1.0], "waypoint 1 must be of shape (2, 2), got shape (2,)"),
    "booleans": ([[True, False], [False, True]], "waypoint 1 must hold numbers, not True"),
}


@pytest.mark.parametrize("waypoint, text", BAD_WAYPOINTS.values(), ids=BAD_WAYPOINTS)
def test_waypoints_must_be_numbers_of_the_graph_shape(monkeypatch, waypoint, text):
    # the Python API checks its own waypoints, 1-based, before any shoot
    monkeypatch.setattr(optimal_control, "_shoot_batch", lambda *a, **k: pytest.fail("shot"))
    prob = BvpProblem(graph=nx.path_graph(2), target=np.eye(2))
    for call in (lambda: solve_with_waypoints(prob, [waypoint]),
                 lambda: nx.run_swap(nx.path_graph(2), (), [waypoint])):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == text


def test_waypoint_segments_split_the_horizon_evenly():
    T = np.array([[4.0]])
    prob = BvpProblem(graph=nx.build_graph(1, []), target=T, t0=0.0, tf=1.0)
    sol = solve_with_waypoints(prob, [np.array([[2.0]])])
    segs = sol.segments()
    assert segs[0].schedule.grid[0] == 0.0 and segs[0].schedule.grid[-1] == 0.5
    assert segs[1].schedule.grid[0] == 0.5 and segs[1].schedule.grid[-1] == 1.0


def test_moved_to_is_the_arc_solved_on_its_interval(scalar_solution):
    # a copy keeps every sample and takes the grid a shoot on [t0, tf] gives
    arc = scalar_solution
    copy = arc.moved_to(0.7, 1.9)
    assert copy.schedule.grid.tobytes() == np.linspace(0.7, 1.9, arc.schedule.grid.size).tobytes()
    prob = BvpProblem(graph=nx.build_graph(1, []), target=np.array([[2.0]]), t0=0.7, tf=1.9)
    _, info = shoot(prob, arc.lambda0)
    assert info["grid"].tobytes() == copy.schedule.grid.tobytes()
    assert copy.schedule.W_seq.tobytes() == arc.schedule.W_seq.tobytes()
    assert copy.X_seq is arc.X_seq and copy.lambda_seq is arc.lambda_seq
    assert (copy.cost, copy.converged) == (arc.cost, arc.converged)
    assert (copy.iterations, copy.restart_used) == (0, 0)


def test_solution_schedule_joins_the_arcs():
    # on [0, 1.8] the first arc's RK4 time t0 + steps h is one bit above 0.9,
    # but its grid ends on 0.9 itself, where the second arc starts
    prob = BvpProblem(graph=nx.build_graph(1, []), target=np.array([[4.0]]), tf=1.8)
    sol = solve_with_waypoints(prob, [np.array([[2.0]])])
    first, second = sol.arcs
    assert first.schedule.grid[-1] == second.schedule.grid[0] == 0.9
    sched = sol.schedule
    assert [p.grid.tolist() for p in sched.pieces()] == [first.schedule.grid.tolist(),
                                                         second.schedule.grid.tolist()]
    assert np.array_equal(sched.W_seq, np.concatenate([a.schedule.W_seq for a in sol.arcs]))
    # the costate jumps at the join too, so it keeps the schedule's grid
    grid, lam = sol.costate()
    assert grid.tobytes() == sched.grid.tobytes()
    assert lam.tobytes() == np.concatenate([a.lambda_seq for a in sol.arcs]).tobytes()


def test_waypoint_arcs_lie_on_their_shares_of_the_horizon():
    # on [0, 1.8] with four arcs, t0 + steps h misses the end of the first two
    prob = BvpProblem(graph=nx.build_graph(1, []), target=np.array([[4.0]]), tf=1.8)
    sol = solve_with_waypoints(prob, [np.array([[v]]) for v in (1.5, 2.0, 3.0)])
    times = np.linspace(0.0, 1.8, 5)
    assert [(a.schedule.grid[0], a.schedule.grid[-1]) for a in sol.arcs] == \
        list(zip(times[:-1], times[1:]))


# ---------------------------------------------------------------------------
# singularity scan


def test_scan_identity_never_leaves_one():
    val, s = homotopy_singularity_scan(np.eye(3))
    assert val == 1.0 and s == 0.0


def test_scan_swap_target_hits_zero_at_half():
    T = np.array([[0.0, 1.0], [1.0, 0.0]])
    val, s = homotopy_singularity_scan(T)
    assert val < 1e-12 and abs(s - 0.5) < 1e-12


def test_scan_expansion_minimum_at_start():
    val, s = homotopy_singularity_scan(2.0 * np.eye(2))
    assert val == 1.0 and s == 0.0


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_scan_of_a_non_finite_target_is_nan(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, s = homotopy_singularity_scan(np.diag([entry, 1.0]))
    assert np.isnan(val) and s == 0.0


def test_scan_is_fast_at_twenty_nodes():
    # far-corner entries of long denominators: one exact elimination per sample takes seconds
    g = nx.path_graph(20)
    T = nx.expm(0.3 * np.where(g.mask, np.random.default_rng(0).normal(size=(20, 20)), 0.0))
    start = time.perf_counter()
    homotopy_singularity_scan(T)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", range(2, 9))
def test_scan_agrees_with_the_exact_determinant(n):
    T = np.random.default_rng(n).normal(size=(n, n))
    samples = np.linspace(0.0, 1.0, optimal_control.SCAN_SAMPLES)
    exact = min(abs(exact_determinant((1.0 - s) * np.eye(n) + s * T)) for s in samples)
    assert abs(homotopy_singularity_scan(T)[0] - float(exact)) <= 1e-12
