import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=30, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def spy_solves(monkeypatch):
    """Record every ``damped_gauss_newton`` result a module's multi-start loop gets.

    ``spy_solves(module)`` patches the solver as ``module`` binds it and
    returns the list the results are appended to, one per solve.
    """

    def install(module):
        results = []
        solve = module.damped_gauss_newton

        def spy(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(module, "damped_gauss_newton", spy)
        return results

    return install


@pytest.fixture
def spy_objectives(monkeypatch):
    """Record the (residual, jacobian, x0) of every solve a module's multi-start loop runs.

    ``spy_objectives(module)`` patches the solver as ``module`` binds it and
    returns the list the triples are appended to; each solve then runs as usual.
    """

    def install(module):
        seen = []
        solve = module.damped_gauss_newton

        def spy(residual, jacobian, x0, **kwargs):
            seen.append((residual, jacobian, x0))
            return solve(residual, jacobian, x0, **kwargs)

        monkeypatch.setattr(module, "damped_gauss_newton", spy)
        return seen

    return install
