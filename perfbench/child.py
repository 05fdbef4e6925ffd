"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per run with a JSON spec as its only
argument and reads one JSON line from its standard output.  A fresh process
per run means every cache of the library starts cold, and CPU time and peak
RSS can be read from this process's own rusage.

Set-up is everything from the moment the parent started the process (a
CLOCK_MONOTONIC reading it passes in) to the first timed call: interpreter
start, ``import paradoxlab`` and input generation.

Times are reported twice: as measured (``raw_*``) and in reference seconds.
The benchmark runs on hosts shared with other machines; on a 2-vCPU Xeon
virtual machine the speed of the CPU was seen to drift by up to a factor of
two over tens of seconds, so a run's raw time says as much about its
neighbours as about the code.  A
:class:`SpeedProbe` therefore times a fixed pure-Python kernel every
``PERIOD_S`` during the run, and each stretch of the run is rescaled by the
kernel time measured at its start: a stretch counts ``REF_KERNEL_S / k``
reference seconds per second when the kernel last took ``k``.  A change to
the library moves the reference seconds; a slow neighbour moves both the
stretch and the kernel, and cancels.  Set-up, which runs before the probe
can, is rescaled by the mean of ``SETUP_SAMPLES`` kernel runs taken right
after it.  The kernel runs after the library has used the caches, so a
change in the library's memory footprint can move the rescaling by a few
per cent; that is the price of steady numbers on a shared host.
"""

from __future__ import annotations

import json
import platform
import resource
import signal
import sys
from pathlib import Path
from statistics import fmean

from workloads import ROOT, SIZES, WORKLOADS, Run, now

#: Sampling period of the speed probe; each sample costs about one kernel run.
PERIOD_S = 0.05

#: Kernel time that defines reference speed: at it, one second is one reference second.
REF_KERNEL_S = 0.001

#: Back-to-back kernel runs, after set-up, whose mean time rescales set-up.
SETUP_SAMPLES = 40


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _kernel() -> int:
    """Fixed pure-Python work: tuples, hashing, dict updates and integer arithmetic."""
    table: dict = {}
    for i in range(2000):
        key = (i & 63, i % 7, i >> 3)
        table[key] = table.get(key, 0) + (i * 2654435761) % 1009
    return len(table)


def kernel_time() -> float:
    started = now()
    _kernel()
    return now() - started


class SpeedProbe:
    """Kernel timings taken on SIGALRM while the workload runs; see the module docstring."""

    def __init__(self) -> None:
        self.wall: list[float] = []  # clock reading at the start of each sample
        self.cpu: list[float] = []
        self.kernel_wall: list[float] = []
        self.kernel_cpu: list[float] = []

    def sample(self, *_) -> None:
        wall, cpu = now(), _cpu()
        _kernel()
        self.kernel_wall.append(now() - wall)
        self.kernel_cpu.append(_cpu() - cpu)
        self.wall.append(wall)
        self.cpu.append(cpu)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def _factors(self) -> list[float]:
        return [REF_KERNEL_S / k for k in self.kernel_wall]

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds of workload time between clock readings a and b."""
        total = 0.0
        for i, f in enumerate(self._factors()[:-1]):
            lo, hi = max(a, self.wall[i] + self.kernel_wall[i]), min(b, self.wall[i + 1])
            if hi > lo:
                total += (hi - lo) * f
        return total

    def ref_cpu_seconds(self) -> float:
        """Reference CPU seconds of the workload between the first and last sample."""
        f = self._factors()
        return sum((self.cpu[i + 1] - self.cpu[i] - self.kernel_cpu[i]) * f[i] for i in range(len(f) - 1))

    def overhead_s(self) -> float:
        return sum(self.kernel_wall[1:-1])


def main(spec: dict) -> dict:
    # Import the library from this checkout only, never from an installed copy.
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mpmath
    import paradoxlab

    if not Path(paradoxlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"paradoxlab imported from {paradoxlab.__file__}, not from {src}")

    prepare, workload = WORKLOADS[spec["workload"]]
    sizes = SIZES[spec["sizes"]][spec["workload"]]
    inputs = prepare(spec["seed"], sizes)
    raw_setup = now() - spec["spawned_at"]
    setup_speed = REF_KERNEL_S / fmean(kernel_time() for _ in range(SETUP_SAMPLES))
    out = {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "raw_setup_s": raw_setup,
        "setup_speed": setup_speed,
        "setup_s": raw_setup * setup_speed,
    }
    if spec["setup_only"]:
        return out

    run = Run(spec["run_id"], spec["trace"])
    probe = SpeedProbe()
    probe.start()
    cpu0, first = _cpu(), now()
    run.begin("workload")
    try:
        workload(run, inputs, sizes)
    except Exception as exc:  # glue between calls broke; report it instead of dying
        run.unexpected.append(f"workload aborted: {type(exc).__name__}: {exc}")
    run.end()
    last, cpu1 = now(), _cpu()
    probe.stop()
    for span in run.spans:
        span["ref_s"] = probe.ref_seconds(span["start"], span["end"])
    out.update(
        raw_wall_s=last - first - probe.overhead_s(),
        raw_cpu_s=cpu1 - cpu0 - sum(probe.kernel_cpu[1:-1]),
        wall_s=probe.ref_seconds(first, last),
        cpu_s=probe.ref_cpu_seconds(),
        probe_samples=len(probe.wall),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        slowest_verdict_s=max((probe.ref_seconds(a, b) for a, b in run.verdicts), default=0.0),
        attempted=run.attempted,
        failed=run.failed,
        unexpected=run.unexpected,
        known_defects=run.known_defects,
        counts=run.counts,
        spans=run.spans,
        extra=run.extra,
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
