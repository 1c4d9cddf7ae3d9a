"""Test oracles: sampling checks of the library's closed forms that no
command runs."""

import math

import numpy as np

from consrate.models import Vasicek
from consrate.simulate import _exact_filter, _exact_step_params

# paths per joint_moment_sample block
_MOMENT_BLOCK = 100_000


def joint_moment_sample(
    model: Vasicek,
    r0: float,
    t: float,
    n_paths: int,
    *,
    n_steps: int = 8,
    seed: int = 0,
) -> dict:
    """Sampling oracle for ou_moments: empirical moments of (r_t, h_t) from
    composed exact increments, with exact normal-theory standard errors.

    This is a test oracle, not a path API; it uses one stream for speed.
    """
    dt = t / n_steps
    chol_t = _exact_step_params(model, dt)[4].T
    rng = np.random.default_rng(seed)
    s = np.zeros(2)
    ss = np.zeros(3)  # sum r^2, sum h^2, sum r h
    done = 0
    while done < n_paths:
        nb = min(_MOMENT_BLOCK, n_paths - done)
        noise = rng.standard_normal((nb, n_steps, 2)) @ chol_t
        x, h = np.empty((2, nb, n_steps + 1))
        x[:, 1:] = noise[:, :, 0]
        h[:, 1:] = noise[:, :, 1]
        r, h = _exact_filter(model, r0, dt, x, h)
        r_end, h_end = r[:, -1], h[:, -1]
        s += [r_end.sum(), h_end.sum()]
        ss += [np.sum(r_end**2), np.sum(h_end**2), np.sum(r_end * h_end)]
        done += nb
    n = n_paths
    mean_r, mean_h = s / n
    var_r = (ss[0] / n - mean_r**2) * n / (n - 1)
    var_h = (ss[1] / n - mean_h**2) * n / (n - 1)
    cov = (ss[2] / n - mean_r * mean_h) * n / (n - 1)
    return {
        "mean_r": mean_r,
        "mean_h": mean_h,
        "var_r": var_r,
        "var_h": var_h,
        "cov_rh": cov,
        "se_mean_r": math.sqrt(var_r / n),
        "se_mean_h": math.sqrt(var_h / n),
        "se_var_r": var_r * math.sqrt(2.0 / (n - 1)),
        "se_var_h": var_h * math.sqrt(2.0 / (n - 1)),
        "se_cov": math.sqrt((var_r * var_h + cov**2) / (n - 1)),
    }
