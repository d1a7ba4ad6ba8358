"""The run result: end-to-end metric definitions, the outcome and its output."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

#: ``(name, unit, better)``.  Every workload reports every metric; the
#: operations behind each are listed in ``perfbench/README.md``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("obs_per_s", "obs/s", "higher"),
    ("replay_obs_per_s", "obs/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("ok_frac", "ratio", "higher"),
)

#: The per-workload names these metrics carry in the benchmark's design.
ALIASES = {
    "curate_cold": {"obs_per_s": "curate_obs_per_s"},
    "recurate_disk": {
        "obs_per_s": "warm_obs_per_s",
        "replay_obs_per_s": "incremental_obs_per_s",
    },
    "serve_mixed": {
        "p50_ms": "serve_p50_ms",
        "tail_ms": "p90 of forced requests",
        "ok_frac": "serve_slo_frac",
    },
}

#: Stand-in for a latency that never completed (a failed request), so the
#: printed JSON stays finite.
NEVER_MS = 1e9


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` holds the end-to-end metrics (untraced runs) or the
    per-layer metrics (traced runs); ``samples`` the raw per-operation
    figures they were computed from.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; record why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


def finite(value: float, never: float = NEVER_MS) -> float:
    return value if math.isfinite(value) else never


def result_line(outcome: Outcome, units: dict[str, str]) -> str:
    """The result object, printed as the last line of stdout."""
    return json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in units
        },
    })


def render(workload: str, outcome: Outcome, units: dict[str, str], trace: bool) -> str:
    aliases = ALIASES.get(workload, {})
    lines = [
        f"perfbench {workload}: {outcome.attempted} operations attempted, "
        f"{outcome.failed} failed"
    ]
    lines += [f"  problem: {problem}" for problem in outcome.problems]
    width = max(len(name) for name in units) + 2
    for name, unit in units.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        lines.append(f"  {name:<{width}}{outcome.metrics[name]:>14.6g} {unit}{alias}")
    if trace:
        lines.append("  (per-layer metrics from the traced run; overhead is "
                     "trace.overhead_frac)")
    return "\n".join(lines)
