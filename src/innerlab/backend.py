"""Name of the kernel implementation, recorded in run metadata.

The hot kernels in `kernels` are vectorized numpy; there is no other
backend and nothing to configure.
"""


def backend_name() -> str:
    return "numpy"
