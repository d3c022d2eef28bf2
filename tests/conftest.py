import os

import numpy as np

import innerlab
from innerlab.inner import InnerFunctionRep

TAU = 2.0 * np.pi


def random_blaschke(rng, degree, origin_zero=False):
    """Seeded finite Blaschke product with simple zeros."""
    n_free = degree - (1 if origin_zero else 0)
    radii = rng.uniform(0.05, 0.9, n_free)
    angles = rng.uniform(0, TAU, n_free)
    zeros = [(r * np.exp(1j * t), 1) for r, t in zip(radii, angles)]
    if origin_zero:
        zeros.append((0j, 1))
    rot = np.exp(1j * rng.uniform(0, TAU))
    return InnerFunctionRep(zeros, rotation=rot)


def child_env():
    """Environment for a child ``python -m innerlab...`` process.

    ``PYTHONPATH`` starts with the absolute directory holding the innerlab
    package this test process imported, so the child runs the same code
    from any working directory, however innerlab was found here.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(innerlab.__file__)))
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([src, inherited] if inherited else [src])
    return env
