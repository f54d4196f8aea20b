"""In-memory spans for the traced run, plus a resident-memory sampler.

Spans are recorded by the benchmark around its own calls into optreal, one
per public stage call; nothing inside the library is instrumented.  Each
span keeps its name, objective, start, end, parent span and the index of the
input it belongs to, and the whole list is written out once the run ends.
"""

from __future__ import annotations

import ctypes
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

PAGE = os.sysconf("SC_PAGE_SIZE")
SAMPLE_PERIOD_S = 0.001


def _malloc_trim():
    """Hand freed heap memory back to the system (glibc), so a stage's growth
    is measured from what is live and not from what earlier stages freed."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except AttributeError:
        return lambda: None
    return lambda: trim(0)


class RssSampler:
    """Highest resident set size seen during a measured block.

    While a block is open a thread reads ``/proc/self/statm`` about once a
    millisecond (in practice once per interpreter switch interval while
    Python code runs); a block's peak is its highest sample or its end
    value, minus its start value.  Between blocks the thread sleeps, so
    untraced work is not slowed.
    """

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._trim = _malloc_trim()
        self._active = threading.Event()
        self._closing = False
        self.peak = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def rss(self) -> int:
        return int(os.pread(self._fd, 64, 0).split()[1]) * PAGE

    def begin(self) -> int:
        self._trim()
        self.peak = start = self.rss()
        self._active.set()
        return start

    def end(self, start: int) -> int:
        self._active.clear()
        return max(self.peak, self.rss()) - start

    def _run(self):
        while self._active.wait() and not self._closing:
            now = self.rss()
            if now > self.peak:
                self.peak = now
            time.sleep(SAMPLE_PERIOD_S)

    def close(self):
        self._closing = True
        self._active.set()
        self._thread.join()
        os.close(self._fd)


@dataclass
class Span:
    id: int
    name: str
    objective: str | None
    start: float
    end: float
    parent: int | None
    input: int
    peak_bytes: int | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.input = -1
        self.sampler = RssSampler()

    @contextmanager
    def span(self, name: str, objective: str | None = None, memory: bool = False):
        """Time the block as one span; with ``memory`` also its resident peak."""
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, objective, 0.0, 0.0, parent, self.input)
        self.spans.append(span)
        self._open.append(span.id)
        base = self.sampler.begin() if memory else 0
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if memory:
                span.peak_bytes = self.sampler.end(base)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def close(self):
        self.sampler.close()
