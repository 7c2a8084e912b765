import numpy as np
import pytest

from momentlab import gaussnewton
from momentlab.gaussnewton import damped_gauss_newton, multistart


def test_solves_linear_least_squares(rng):
    A = rng.normal(size=(8, 3))
    b = rng.normal(size=8)
    res = damped_gauss_newton(lambda x: A @ x - b, lambda x: A, np.zeros(3))
    expected = np.linalg.lstsq(A, b, rcond=None)[0]
    np.testing.assert_allclose(res.x, expected, atol=1e-8)


def test_underdetermined_reaches_zero_residual(rng):
    A = rng.normal(size=(2, 6))
    b = rng.normal(size=2)
    res = damped_gauss_newton(lambda x: A @ x - b, lambda x: A, np.zeros(6))
    assert res.converged
    assert res.f < 1e-28


def test_quadratic_root(rng):
    # find a point on the circle x^2 + y^2 = 4
    f = lambda x: np.array([x @ x - 4.0])
    J = lambda x: 2.0 * x[None, :]
    res = damped_gauss_newton(f, J, np.array([3.0, 1.0]))
    assert res.converged
    assert abs(np.linalg.norm(res.x) - 2.0) < 1e-12


def test_retraction_hook_stays_on_manifold():
    # keep iterates on the unit circle while matching a target angle
    target = np.array([0.0, 1.0])

    def retract(x, step):
        y = x + step[0] * np.array([-x[1], x[0]])
        return y / np.linalg.norm(y)

    res = damped_gauss_newton(
        lambda x: x - target,
        lambda x: np.array([[-x[1]], [x[0]]]),
        np.array([1.0, 0.0]),
        retract=retract,
    )
    assert np.linalg.norm(res.x) == 1.0 or abs(np.linalg.norm(res.x) - 1.0) < 1e-12
    np.testing.assert_allclose(res.x, target, atol=1e-10)


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def test_accepted_iterates_are_the_strict_running_minima():
    # Rosenbrock residuals: the undamped first step overshoots, so the
    # solver rejects trials and not every evaluation is an accepted iterate
    evaluations = []

    def residual(x):
        r = rosenbrock(x)
        evaluations.append((x, float(r @ r)))
        return r

    res = damped_gauss_newton(residual, rosenbrock_jacobian, np.array([-1.2, 1.0]))
    minima = [evaluations[0]]
    for x, f in evaluations[1:]:
        if f < minima[-1][1]:
            minima.append((x, f))
    assert len(minima) < len(evaluations)
    assert res.x is minima[-1][0]
    assert res.f == minima[-1][1]


def test_jacobian_is_asked_at_the_last_residual_point():
    # the contract that lets a Jacobian reuse its residual's work: on a solve
    # that rejects trials, jacobian(x) gets the very object residual last got
    evaluated, asked = [], []

    def residual(x):
        evaluated.append(x)
        return rosenbrock(x)

    def jacobian(x):
        asked.append(x is evaluated[-1])
        return rosenbrock_jacobian(x)

    res = damped_gauss_newton(residual, jacobian, np.array([-1.2, 1.0]))
    assert res.converged
    assert len(asked) == res.iterations and all(asked)
    assert len(evaluated) > len(asked) + 1      # some trials were rejected


def test_linearized_builds_the_jacobian_of_the_last_residual_only():
    # the same contract through the helper: J comes from the last evaluation,
    # and a rejected trial builds none
    evaluated, built = [], []

    def evaluate(x):
        evaluated.append(x)

        def jac():
            built.append((x, rosenbrock_jacobian(x)))
            return built[-1][1]

        return rosenbrock(x), jac

    residual, jacobian = gaussnewton.linearized(evaluate)
    x = np.array([0.5, -0.3])
    with pytest.raises(ValueError, match="last residual"):
        jacobian(x)                             # no residual yet
    res = damped_gauss_newton(residual, jacobian, np.array([-1.2, 1.0]))
    assert res.converged
    assert len(built) == res.iterations
    assert len(evaluated) > len(built) + 1      # some trials were rejected

    residual(x)
    J = jacobian(x)
    assert built[-1][0] is x and J is built[-1][1]
    with pytest.raises(ValueError, match="last residual"):
        jacobian(x.copy())


def test_a_start_with_no_finite_jacobian_ends_unconverged():
    # the SVD of a NaN Jacobian does not converge; the solve returns its start
    x0 = np.array([np.nan, 0.0])
    res = damped_gauss_newton(rosenbrock, rosenbrock_jacobian, x0)
    assert res.x is x0
    assert np.isnan(res.f)
    assert res.iterations == 1
    assert not res.converged


def spy_trials(residual, jacobian, x0, **kw):
    """Solve, recording every evaluation (x, f) and every trial (x, step)."""
    evaluations, trials = [], []

    def counted(x):
        r = residual(x)
        evaluations.append((x, float(r @ r)))
        return r

    def retract(x, step):
        trials.append((x, step))
        return x + step

    res = damped_gauss_newton(counted, jacobian, x0, retract=retract, **kw)
    return res, evaluations, trials


def accepted_reductions(residual, jacobian, evaluations, trials):
    """(index of the trial's evaluation, f, actual and predicted reduction) per accepted trial.

    The predicted reduction is that of the linear model, ||r||^2 - ||r + J step||^2.
    """
    out, f = [], evaluations[0][1]
    for k, (x, step) in enumerate(trials):
        f_new = evaluations[k + 1][1]
        if f_new < f:
            r = residual(x)
            lin = r + jacobian(x) @ step
            out.append((k + 1, f, f - f_new, r @ r - lin @ lin))
            f = f_new
    return out


def test_a_scale_free_stall_ends_at_its_first_f_rtol_step():
    # f = 1 + x0^4, its 1 a scale-free term ||x||^2 / ||x||^2 whose Jacobian
    # keeps the scale frozen, as collision search's does. So the linear model
    # predicts that halving x zeroes the whole residual: the predicted
    # reduction stays about f, the FTOL stop never holds, and only F_RTOL can
    # end the solve. Each step halves x, so the decrease shrinks until it is
    # at most F_RTOL * f; the solve ends at that accepted trial and evaluates
    # no point after it.
    def residual(x):
        return np.array([(x @ x) / (x @ x), x[0] ** 2])

    def jacobian(x):
        return np.array([2.0 * x / (x @ x), [2.0 * x[0], 0.0]])

    res, evaluations, trials = spy_trials(residual, jacobian, np.array([1e-2, 0.5]))
    steps = accepted_reductions(residual, jacobian, evaluations, trials)
    assert len(steps) == len(trials)                           # every trial accepted
    assert all(pred > gaussnewton.FTOL * f for _, f, _, pred in steps)
    stalls = [k for k, f, drop, _ in steps if drop <= gaussnewton.F_RTOL * f]
    assert stalls and len(evaluations) == stalls[0] + 1 == 6
    assert res.x is evaluations[-1][0]
    assert res.f == evaluations[-1][1] and res.f > 1.0
    assert res.iterations == 5
    assert not res.converged


def test_a_smooth_solve_ends_at_its_first_ftol_step():
    # An exponential fit with a nonzero minimum: Gauss-Newton converges
    # linearly, so the relative reductions shrink step by step. The solve ends
    # at the first accepted trial whose actual and predicted relative
    # reductions are both at most FTOL, with the actual at most twice the
    # predicted, and evaluates no point after it; F_RTOL would go on.
    t = np.linspace(0.0, 1.0, 8)
    y = np.exp(t) + 0.1 * np.cos(7.0 * t)

    def residual(p):
        return p[0] * np.exp(p[1] * t) - y

    def jacobian(p):
        e = np.exp(p[1] * t)
        return np.column_stack([e, p[0] * t * e])

    res, evaluations, trials = spy_trials(residual, jacobian, np.array([1.0, 0.0]))
    steps = accepted_reductions(residual, jacobian, evaluations, trials)
    ftol = gaussnewton.FTOL
    stops = [
        (k, f, drop) for k, f, drop, pred in steps
        if drop <= ftol * f and pred <= ftol * f and drop <= 2.0 * pred
    ]
    assert len(evaluations) > len(steps) + 1                    # some trials were rejected
    k, f, drop = stops[0]
    assert len(evaluations) == k + 1
    assert drop > gaussnewton.F_RTOL * f
    assert res.x is evaluations[-1][0] and res.f == evaluations[-1][1] > 0.0
    assert not res.converged


def smallest_component_damping(J, r, step):
    """The damping lam of ``step`` = -V (s / (s^2 + lam) * U^T r), read off
    its component along the right singular vector of J's smallest singular
    value."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    return -s[-1] * (U[:, -1] @ r) / (Vt[-1] @ step) - s[-1] ** 2, s[-1] ** 2


def test_a_rejected_step_is_not_retried_at_a_like_damping():
    # Rosenbrock rejects trials. After a rejection the damping is at least
    # LAM_JUMP * s_min^2: below it every component of the step is within
    # about 1% of the rejected one. At that floor the smallest component
    # moves by LAM_JUMP / (1 + LAM_JUMP), so consecutive trials differ by
    # more than half a percent.
    res, evaluations, trials = spy_trials(rosenbrock, rosenbrock_jacobian, np.array([-1.2, 1.0]))
    assert res.converged
    retries = 0
    for (x0, step0), (x1, step1) in zip(trials, trials[1:]):
        assert rel_err(step1, step0) > gaussnewton.LAM_JUMP / 2
        if x1 is x0:                                            # step0 was rejected
            retries += 1
            lam, smin2 = smallest_component_damping(rosenbrock_jacobian(x1), rosenbrock(x1), step1)
            assert lam >= gaussnewton.LAM_JUMP * smin2 * (1 - 1e-9)
    assert retries > 0


def test_a_damping_jump_past_lam_max_ends_the_solve():
    # Every trial point is worse than the start, and J's singular value is
    # 1e8 * sqrt(2), so the first rejection asks for a damping of about
    # 2e14, past LAM_MAX: the solve ends where it started, after one trial.
    x0 = np.zeros(2)
    res, evaluations, trials = spy_trials(
        lambda x: np.array([1.0 + np.abs(x).sum()]), lambda x: np.array([[1e8, 1e8]]), x0
    )
    assert gaussnewton.LAM_JUMP * 2e16 > gaussnewton.LAM_MAX
    assert len(trials) == 1 and len(evaluations) == 2
    assert res.x is x0 and res.f == 1.0
    assert res.iterations == 1
    assert not res.converged


def test_a_zero_residual_problem_still_reaches_f_tol():
    # r = x * x has a double root at 0: Gauss-Newton only halves x per step,
    # so f falls by a fixed fraction of itself and never stalls
    res = damped_gauss_newton(lambda x: x * x, lambda x: np.diag(2.0 * x), np.array([1.0, -0.7]))
    assert res.converged
    assert res.f <= 1e-28
    np.testing.assert_allclose(res.x, 0.0, atol=1e-6)


def first_trial_step(monkeypatch, J, r0, lam):
    """The solver's first damped step at ``lam`` for the linear residual J x + r0."""
    monkeypatch.setattr(gaussnewton, "LAM0", lam)
    _, _, trials = spy_trials(lambda x: J @ x + r0, lambda x: J, np.zeros(J.shape[1]), max_iter=1)
    return trials[0][1]


def augmented_lstsq_step(J, r0, lam):
    """Reference form: least squares on the stacked system [J; sqrt(lam) I]."""
    d = J.shape[1]
    J_aug = np.vstack([J, np.sqrt(lam) * np.eye(d)])
    rhs = np.concatenate([-r0, np.zeros(d)])
    return np.linalg.lstsq(J_aug, rhs, rcond=None)[0]


def rel_err(a, b):
    """Normwise relative error: entries near zero carry no meaning of their own."""
    return np.linalg.norm(a - b) / np.linalg.norm(b)


STEP_SHAPES = [(7, 4), (5, 2), (8, 8), (9, 256), (11, 190)]


@pytest.mark.parametrize("shape", STEP_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("lam", [1e-8, 1e-2, 1e4])
def test_svd_step_matches_augmented_lstsq(monkeypatch, shape, lam):
    r = np.random.default_rng(shape[0] * 1000 + shape[1])
    J = r.normal(size=shape)
    r0 = r.normal(size=shape[0])
    step = first_trial_step(monkeypatch, J, r0, lam)
    assert rel_err(step, augmented_lstsq_step(J, r0, lam)) < 1e-9


@pytest.mark.parametrize("shape", STEP_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_svd_step_tends_to_minimal_norm_solution(monkeypatch, shape):
    # at the smallest damping the step is the pseudo-inverse (least-squares,
    # minimal-norm) solution; the augmented system is too ill-conditioned here
    r = np.random.default_rng(shape[0] * 1000 + shape[1])
    J = r.normal(size=shape)
    r0 = r.normal(size=shape[0])
    assert rel_err(first_trial_step(monkeypatch, J, r0, 1e-14), -np.linalg.pinv(J) @ r0) < 1e-9


class TestMultistart:
    def test_stops_at_the_first_success(self):
        draws = iter(range(10))
        assert multistart(lambda: next(draws), 10, lambda r: r >= 3) == [0, 1, 2, 3]

    def test_success_on_the_last_restart(self):
        draws = iter(range(10))
        assert multistart(lambda: next(draws), 4, lambda r: r == 3) == [0, 1, 2, 3]

    def test_uses_every_restart_when_none_succeeds(self):
        draws = iter(range(10))
        assert multistart(lambda: next(draws), 5, lambda r: False) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_rejects_fewer_than_one_restart(self, restarts):
        attempts = []
        with pytest.raises(ValueError, match="restarts"):
            multistart(lambda: attempts.append(1), restarts, lambda r: True)
        assert attempts == []
