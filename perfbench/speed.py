"""Machine-speed probe: a fixed kernel timed around and during timed steps.

The benchmark runs on a few cores of a shared host.  Seen from one process,
that host's speed shifts by up to ~1.7x, often flipping between a fast and a
slow state every second or two with other tenants' load, and no statistic
over one run removes a shift that lasts the whole run.  A fixed kernel doing
the same kind of work as cohdist (4x4 complex eigendecompositions and
products between interpreter arithmetic) slows by nearly the same factor:
timed alternately with a sampled Werner curve over two minutes on a 2-vCPU
x86 VM, the task's median time per 10 s window moved between 0.073 s and
0.121 s while its ratio to the kernel's time stayed between 6.19 and 6.39.

So the kernel is sampled in a probe before and after every timed step and,
from a timer signal, every INTERVAL_S during it; the step's own time leaves
out the samples taken inside it.  Each step is then also reported scaled to
a reference speed: `scaled = elapsed * REFERENCE_S / mean(samples)` over the
samples of the step and of the two probes around it, where REFERENCE_S is
one sample's time on that VM when quiet.  A change to cohdist moves the
steps and not the kernel, so it shows in full.  The correction is not
exact: in the slow state the same task read up to ~10% slower against the
kernel than in the fast state.
"""

import contextlib
import signal
import statistics
import time

import numpy as np

SAMPLE_ITERS = 20  # kernel iterations in one sample
# one sample's fastest time on a quiet 2-vCPU x86 VM (Python 3.11, numpy 2.4)
REFERENCE_S = 0.00055
PROBE_SAMPLES = 16  # samples in a probe between steps
INTERVAL_S = 0.025  # between samples during a step


def kernel(iters: int = SAMPLE_ITERS) -> float:
    m = np.arange(16).reshape(4, 4)
    m = (m % 5 - 2) + 1j * (m % 3 - 1)
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    acc = 0.0
    for _ in range(iters):
        w, v = np.linalg.eigh(rho)
        rho = 0.9 * rho + 0.1 * (v * np.abs(w)) @ v.conj().T
        acc += float(np.real(np.trace(rho @ rho))) + sum(x * x for x in range(20))
    return acc


def sample() -> float:
    """Seconds one sample of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def probe() -> list[float]:
    return [sample() for _ in range(PROBE_SAMPLES)]


@contextlib.contextmanager
def sampling():
    """Sample the kernel every INTERVAL_S while the block runs.

    Yields the list the samples go to.  Samples run in the signal handler,
    between the block's bytecodes, so the block's wall time includes them.
    """
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(sample()))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def to_reference(elapsed: list[float], probes: list[list[float]], during: list[list[float]] | None = None) -> list[float]:
    """Scale each elapsed[i], timed between probes[i] and probes[i + 1]
    while during[i] was sampled (nothing, when during is None)."""
    if len(probes) != len(elapsed) + 1:
        raise ValueError(f"{len(elapsed)} steps need {len(elapsed) + 1} probes, got {len(probes)}")
    during = during if during is not None else [[] for _ in elapsed]
    return [
        t * REFERENCE_S / statistics.fmean(probes[i] + during[i] + probes[i + 1]) for i, t in enumerate(elapsed)
    ]
