"""The timed loop both kinds of run share: engine blocks alternating with
reference rounds, a tally of operations, and the host calibration kernel."""

from __future__ import annotations

import time

from stats import median

MIN_BLOCKS = 3
DRIFT_BAND = (0.9, 1.1)


class Calibrator:
    """A fixed numpy kernel run once per block: it tells a slow or drifting
    host from a slow engine."""

    def __init__(self) -> None:
        import numpy as np  # deferred: the runner pins the CPU before numpy loads

        self._kernel = lambda data: np.cumsum(np.sort(data))
        self._data = np.random.default_rng(0).random(1 << 18)
        self.samples: list[float] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        self._kernel(self._data)
        self.samples.append(time.perf_counter() - t0)

    def noisy(self) -> bool:
        return not DRIFT_BAND[0] <= self.drift() <= DRIFT_BAND[1]

    def drift(self) -> float:
        if len(self.samples) < 8:
            return 1.0  # too few samples to tell drift from noise
        quarter = len(self.samples) // 4
        first, last = median(self.samples[:quarter]), median(self.samples[-quarter:])
        return last / first if first > 0 else 1.0


class Tally:
    """Operations attempted and failed over the whole run, warm-up included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, rounds) -> None:
        for rnd in rounds:
            for op in rnd.ops:
                self.attempted += 1
                if not op.ok:
                    self.failed += 1
                    self.errors.append(f"{op.name}: {op.error or 'wrong result'}")


class Timed:
    """What the timed loops of one pass produced."""

    def __init__(self) -> None:
        self.rounds = []
        self.refs: list[float] = []
        #: Per round: engine wall / median reference round wall of its block.
        self.ratios: list[float] = []
        #: Per block: rounds completed by all clients per reference-round time.
        self.throughputs: list[float] = []
        self.engine_wall = 0.0

    def walls(self) -> list[float]:
        return [r.wall for r in self.rounds if not r.failed]

    def p50_ms(self) -> float:
        return median(self.walls()) * 1e3

    def queries_per_s(self) -> float:
        completed = sum(op.ok for r in self.rounds for op in r.ops)
        return completed / self.engine_wall if self.engine_wall else 0.0


def timed_loop(workload, tally, calib, seconds, max_rounds, into=None, **block_args) -> Timed:
    """Alternate engine blocks with reference rounds until ``seconds`` have
    passed (or, with ``--rounds``, until that many rounds per client ran).
    Appends to ``into`` when given."""
    out = into or Timed()
    deadline = time.perf_counter() + seconds
    done = blocks = 0
    while True:
        n = workload.block_rounds
        if max_rounds:
            n = min(n, max_rounds - done)
        rounds, wall = workload.engine_block(n, **block_args)
        tally.add(rounds)
        out.rounds.extend(rounds)
        out.engine_wall += wall
        done += n
        blocks += 1
        refs = [workload.reference_round() for _ in range(workload.block_refs)]
        out.refs.extend(refs)
        walls = [r.wall for r in rounds if not r.failed]
        if walls:
            reference = median(refs)
            out.ratios.extend(w / reference for w in walls)
            out.throughputs.append(len(walls) * reference / wall)
        calib.run()
        if max_rounds:
            if done >= max_rounds:
                return out
        elif blocks >= MIN_BLOCKS and time.perf_counter() >= deadline:
            return out


def set_up(workload, seed, tally, rec=None) -> float:
    t0 = time.perf_counter()
    workload.setup(seed, rec)
    tally.add(workload.warm_up())
    return time.perf_counter() - t0
