"""Resource limits, the errors raised when a run exceeds one, and
`WitnessError`.

A run that hits a limit raises instead of returning a verdict: it aborts
loudly and never reports sat/unsat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Resource limits of one engine run, the only way a limit reaches an
    engine; each engine reads the fields it has and ignores the rest.

    `timeout` (seconds) is read by every engine. `max_frames` and
    `max_sat_calls` are read by the conflict-driven checker (`cdlsc.check`);
    `max_sat_calls` bounds every query of its run, those decided by truth
    table included (`Stats.sat_calls`). `state_limit` is read by the state
    explorations (`naive_check`, `build_full_system`), and `brute_bound`,
    the trace-length bound, by the brute engine of `cdlsc.solve`. A
    `timeout` or `max_sat_calls` of None is no limit, and a `max_frames` of
    None means 2**|closure|; the other two limits cannot be None. A
    malformed limit raises ValueError when the limits are made: a timeout
    that is NaN or negative, a negative frame or SAT call limit, or a state
    limit or trace-length bound that is None or below 1.
    """

    timeout: float | None = None
    max_frames: int | None = None
    max_sat_calls: int | None = None
    state_limit: int = 1 << 20
    brute_bound: int = 8

    def __post_init__(self):
        # written so that NaN, which compares false with everything, fails
        if self.timeout is not None and not self.timeout >= 0:
            raise ValueError(f"timeout must be a nonnegative number, got {self.timeout}")
        for name, least, optional in (("max_frames", 0, True), ("max_sat_calls", 0, True),
                                      ("state_limit", 1, False), ("brute_bound", 1, False)):
            value = getattr(self, name)
            if value is None and optional:
                continue
            if value is None or value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


class ResourceAbort(RuntimeError):
    """A run exceeded a configured resource limit. Engines that count set
    `states_expanded` and `sat_calls` to where the run stopped."""

    states_expanded = sat_calls = 0

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


class StateLimitExceeded(ResourceAbort):
    def __init__(self, limit):
        super().__init__("state_limit", f"state limit of {limit} states exceeded")
        self.limit = limit


class TimeoutExceeded(ResourceAbort):
    def __init__(self, seconds):
        super().__init__("timeout", f"timeout of {seconds}s exceeded")
        self.seconds = seconds


class Deadline:
    """A timeout turned into a point in monotonic time; None never fires."""

    def __init__(self, timeout):
        self.timeout = timeout
        self._at = None if timeout is None else time.monotonic() + timeout

    def check(self):
        """Raise TimeoutExceeded once the deadline has passed."""
        if self._at is not None and time.monotonic() > self._at:
            raise TimeoutExceeded(self.timeout)


class FrameLimitExceeded(ResourceAbort):
    def __init__(self, limit):
        super().__init__("max_frames", f"frame limit of {limit} exceeded")
        self.limit = limit


class SatCallLimitExceeded(ResourceAbort):
    def __init__(self, limit):
        super().__init__("max_sat_calls", f"SAT call limit of {limit} exceeded")
        self.limit = limit


class TraceBoundExceeded(ResourceAbort):
    """Bounded enumeration found no witness; that is not unsatisfiability."""

    def __init__(self, bound):
        super().__init__("trace_bound", f"no witness up to trace length {bound}")
        self.bound = bound


class AtomLimitExceeded(ResourceAbort):
    """The formula has more atoms than brute-force enumeration supports."""

    def __init__(self, count, limit):
        super().__init__("atom_limit",
                         f"brute force supports at most {limit} atoms, got {count}")
        self.count = count
        self.limit = limit


class WitnessError(AssertionError):
    """A produced witness failed semantic verification; internal bug."""
