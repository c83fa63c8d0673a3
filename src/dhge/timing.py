"""Per-stage wall time for the JSON records of training and updates."""
import time


class Stages:
    """Wall time per named stage in ms, each lap closing the stage it names."""

    def __init__(self):
        self.ms = {}
        self._last = time.perf_counter()

    def lap(self, name):
        now = time.perf_counter()
        self.ms[name] = self.ms.get(name, 0.0) + (now - self._last) * 1000.0
        self._last = now

    def skip(self):
        """Start the next stage now, leaving the time since the last lap out."""
        self._last = time.perf_counter()
