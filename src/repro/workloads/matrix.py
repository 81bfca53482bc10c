"""The ``(targets × cells)`` soak matrix behind ``repro chaos`` / ``repro sanitize``.

A soak command is a *check function* — ``check(target, cell) -> verdict``
with a boolean ``verdict["ok"]`` — run over every named target of the
catalogue (:mod:`repro.workloads.targets`) crossed with every cell of the
command's own vocabulary (seeds for chaos, matrix policies for
sanitize).  Everything else is shared and lives here: the ``all``
expansion, the verdict loop (each target resolved once, so a TPC-H
catalog is generated once per target rather than once per cell), the
numpy-safe JSON / text rendering, and the exit-code rule (1 iff any
verdict failed).
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Iterable, Sequence

from repro.workloads.targets import ALL_TARGETS, Target, resolve

__all__ = ["SoakMatrix", "expand_targets"]


def expand_targets(names: Iterable[str], noun: str) -> list[str]:
    """Deduplicate ``names`` in order, expanding ``all``.

    Raises :class:`ValueError` (a usage error, exit code 2) on a name
    outside the catalogue; ``noun`` names the command in the message.
    """
    targets: list[str] = []
    for name in names:
        if name != "all" and name not in ALL_TARGETS:
            raise ValueError(
                f"unknown {noun} target {name!r}; pick from "
                f"{', '.join(ALL_TARGETS)} or 'all'"
            )
        for target in ALL_TARGETS if name == "all" else (name,):
            if target not in targets:
                targets.append(target)
    return targets


def _scalar(value):
    # numpy ints/floats leak out of verdict counters; JSON output must
    # stay clean for scripting.
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON serializable: {value!r}")


class SoakMatrix:
    """Verdicts of one soak command, and how they are reported.

    Built from the command's parsed arguments: both soak commands spell
    ``targets``, ``--format``, ``--machines``, ``--log2-tuples``, ``--sf``
    and ``--strategy`` alike.  Raises :class:`ValueError` on an unknown
    target.
    """

    def __init__(self, noun: str, args, trace: bool = False) -> None:
        self.noun = noun
        self.targets = expand_targets(args.targets, noun)
        self.format = args.format
        self.verdicts: list[dict] = []
        self._resolve = {
            "machines": args.machines,
            "log2_tuples": args.log2_tuples,
            "sf": args.sf,
            "strategy": args.strategy,
            "trace": trace,
        }

    @property
    def failures(self) -> int:
        return sum(not verdict["ok"] for verdict in self.verdicts)

    def run(
        self,
        cells: Sequence,
        check: Callable[[Target, object], dict],
        line: Callable[[dict], str],
    ) -> None:
        """Check every target under every cell, target-major.

        In text format each verdict prints as ``OK``/``FAIL`` followed by
        ``line(verdict)`` as soon as it is known.
        """
        for name in self.targets:
            target = resolve(name, **self._resolve)
            for cell in cells:
                verdict = check(target, cell)
                self.verdicts.append(verdict)
                if self.format == "text":
                    status = "OK " if verdict["ok"] else "FAIL"
                    print(f"{status} {name:<14} {line(verdict)}")

    def summary(self, **described) -> dict:
        """The JSON summary block: targets, ``described``, then the tally."""
        return {
            "targets": self.targets,
            **described,
            "soaks": len(self.verdicts),
            "ok": len(self.verdicts) - self.failures,
            "failures": self.failures,
        }

    def finish(self, payload: dict, claim: str, problem: str) -> int:
        """Print the closing report and return the command's exit code.

        JSON format prints ``payload``; text format prints
        ``<noun> soak: k/n <claim>`` and, on failures, an ``ERROR`` line
        naming the ``problem`` on stderr.
        """
        total, failures = len(self.verdicts), self.failures
        if self.format == "json":
            print(json.dumps(payload, indent=2, default=_scalar))
        else:
            print(f"\n{self.noun} soak: {total - failures}/{total} {claim}")
            if failures:
                print(f"ERROR: {failures} soak(s) {problem}", file=sys.stderr)
        return 1 if failures else 0
