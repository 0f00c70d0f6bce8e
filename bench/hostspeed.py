"""Host-speed calibration for timing on a shared machine.

On a shared host the same pure-Python work can take up to twice as long
depending on what neighbouring machines run, and a slow phase lasts from
seconds to minutes, so repeating work within one run does not average it
out. The two virtual CPUs slow down independently of each other, so the
speed has to be measured on the CPU that runs the work, while it runs.

The benchmark therefore times a short, fixed pure-Python kernel in the
measured process itself, every ``INTERVAL_S`` seconds from a SIGALRM
handler, and reports every gated time at a reference host speed:

    reported seconds = (measured seconds - kernel seconds inside)
                       * REFERENCE_KERNEL_S / mean kernel time around it

The measured seconds are printed and kept in the result file as well.
``REFERENCE_KERNEL_S`` only fixes the scale (it is about the kernel's time
on the host the baseline was recorded on) and cancels in any comparison
between two runs.
"""

from __future__ import annotations

import signal
import time

REFERENCE_KERNEL_S = 0.001
INTERVAL_S = 0.1
_KERNEL_ROUNDS = 15_000


def kernel() -> None:
    total = 0
    for i in range(_KERNEL_ROUNDS):
        total += i * i % 7


class Sampler:
    """Times ``kernel()`` periodically while active (a context manager).

    Samples are ``(start, seconds)`` pairs on the ``perf_counter`` clock;
    ``spent`` is the total time the kernel has taken so far, for callers
    that must leave it out of their own timings.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - started
        self.samples.append((started, elapsed))
        self.spent += elapsed

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference(self, start: float, end: float) -> tuple[float, float]:
        """(measured, reference-speed) seconds of the interval, both without
        the kernel time spent inside it. The speed is the mean kernel time
        of the samples inside the interval, or of its nearest neighbours
        when it is too short to hold one."""
        inside = [d for t, d in self.samples if start <= t < end]
        around = inside or (
            [d for t, d in self.samples if t < start][-1:] + [d for t, d in self.samples if t >= end][:1]
        )
        measured = end - start - sum(inside)
        return measured, measured * REFERENCE_KERNEL_S * len(around) / sum(around)


class Stopwatch:
    """Times stages back to back while a ``Sampler`` runs.

    ``raw`` holds measured seconds per stage and ``scaled`` the same at the
    reference host speed; kernel time is in neither.
    """

    def __init__(self, sampler: Sampler):
        self.sampler = sampler
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    def stage(self, name: str, fn, *args):
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            ended = time.perf_counter()
            self.sampler.sample()
            self.raw[name], self.scaled[name] = self.sampler.at_reference(started, ended)
