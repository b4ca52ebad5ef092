"""Shared instance builders and independent finite-difference oracles."""

import numpy as np

from sigma_opt import Dataset, LabelSpec, Regularization, RngState, make_objective, synth_labels


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * max(1.0, abs(x[i]))
        g[i] = (f(x + e) - f(x - e)) / (2.0 * e[i])
    return g


def fd_hessian(grad, x, h=1e-5):
    """Central-difference Jacobian of a gradient function, symmetrized."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    H = np.empty((n, n))
    for i in range(n):
        e = np.zeros_like(x)
        e[i] = h * max(1.0, abs(x[i]))
        H[:, i] = (grad(x + e) - grad(x - e)) / (2.0 * e[i])
    return 0.5 * (H + H.T)


def reference_haar_frame(nrows, ncols, gen):
    """The Haar frame by numpy's QR of one row-major normal draw, with the
    columns' signs fixed by R's diagonal (zero counts as +1)."""
    q, r = np.linalg.qr(gen.standard_normal((nrows, ncols)), mode="reduced")
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_gaussian_model(gen, m=24, N=16, reg=None):
    A = gen.standard_normal((m, N))
    b = gen.standard_normal(m)
    return make_objective("gaussian", Dataset(A, b), reg or Regularization())


def random_logistic_model(gen, m=24, N=16, reg=None):
    A = gen.standard_normal((m, N))
    b = np.where(gen.standard_normal(m) > 0, 1.0, -1.0)
    return make_objective("logistic", Dataset(A, b), reg or Regularization())


def random_poisson_model(gen, m=30, N=8, reg=None, seed=0):
    # entrywise-positive features keep the domain wide open
    A = gen.uniform(0.1, 1.1, size=(m, N))
    b, _ = synth_labels(A, LabelSpec("poisson", seed=seed), RngState(seed))
    return make_objective("poisson", Dataset(A, b), reg or Regularization())


def positive_poisson_instance(m=200, N=50, seed=77, xi2=1e-6):
    """The scaled-Poisson test instance: positive features, synthesized counts."""
    gen = np.random.default_rng(seed)
    A = gen.uniform(0.1, 1.1, size=(m, N))
    b, x_true = synth_labels(A, LabelSpec("poisson", seed=seed + 1), RngState(seed + 1))
    model = make_objective("poisson", Dataset(A, b), Regularization(xi2=xi2))
    return model, x_true
