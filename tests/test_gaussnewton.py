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


def test_a_start_with_no_finite_jacobian_ends_unconverged():
    # the SVD of a NaN Jacobian does not converge; the solve returns its start
    x0 = np.array([np.nan, 0.0])
    res = damped_gauss_newton(rosenbrock, rosenbrock_jacobian, x0)
    assert res.x is x0
    assert np.isnan(res.f)
    assert res.iterations == 1
    assert not res.converged


def test_a_stalled_solve_ends_at_its_first_stalled_step():
    # f = 1 + x0^4 is flat along x1 and bounded below by 1; each Gauss-Newton
    # step halves x0, so the decrease shrinks until it is at most F_RTOL * f.
    # The solve ends at that accepted trial and evaluates no point after it.
    evaluations = []

    def residual(x):
        r = np.array([1.0, x[0] ** 2])
        evaluations.append((x, float(r @ r)))
        return r

    res = damped_gauss_newton(
        residual, lambda x: np.array([[0.0, 0.0], [2.0 * x[0], 0.0]]), np.array([1e-2, 0.5])
    )
    fs = [f for _, f in evaluations]
    stalls = [i for i in range(1, len(fs)) if fs[i - 1] - fs[i] <= gaussnewton.F_RTOL * fs[i - 1]]
    assert all(fs[i] < fs[i - 1] for i in range(1, len(fs)))     # every trial accepted
    assert stalls and len(evaluations) == stalls[0] + 1 == 6
    assert res.x is evaluations[-1][0]
    assert res.f == fs[-1] and res.f > 1.0
    assert res.iterations == 5
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
    steps = []

    def retract(x, delta):
        steps.append(delta)
        return x + delta

    monkeypatch.setattr(gaussnewton, "LAM0", lam)
    damped_gauss_newton(
        lambda x: J @ x + r0, lambda x: J, np.zeros(J.shape[1]), retract=retract, max_iter=1
    )
    return steps[0]


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
