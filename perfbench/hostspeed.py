"""Host speed probe, for reporting times at a fixed reference speed.

The hosts this benchmark runs on switch between speed states up to 2x
apart, every few tens of milliseconds, in proportions that drift over
minutes; a 30 s run can be spent mostly in the slow state.  Raw wall times
then spread 15-75 % across runs, even over whole passes.  So the benchmark
times a fixed probe, small NumPy operations driven from Python like the
library's own, right before every timed call, outside the timed region.
The probe allocates nothing the garbage collector tracks, so no collection
lands in it.  A time t measured while the probe took p on average is
reported as t * PROBE_REF_S / p: the time the same work would take when the
probe takes PROBE_REF_S, its time in the fast state of a 2-core 2.1 GHz Xeon.
A whole pass is scaled by the mean wall time of its probes; a single call,
timed in CPU time, by the mean CPU time of the probes on either side of it,
which follows the speed state from call to call and leaves out the time
other programs held the core.
"""

import numpy as np

PROBE_REF_S = 90e-6

_A = np.random.default_rng(0).normal(size=(4, 4))


def probe() -> None:
    """Fixed work whose duration tracks the host's current speed."""
    for _ in range(4):
        np.trace(np.kron(_A[:2, :2], _A[2:, 2:]) @ _A)


def scale(probe_s) -> float:
    """Factor taking times measured alongside ``probe_s`` to reference speed."""
    return PROBE_REF_S / float(np.mean(probe_s))


def call_scales(probe_s) -> np.ndarray:
    """Factor per call from the probe timed before each call: the mean of
    that probe and the next one, which follows the call (the last call of a
    pass has only its own)."""
    p = np.asarray(probe_s, dtype=float)
    return PROBE_REF_S / (0.5 * (p + np.append(p[1:], p[-1])))
