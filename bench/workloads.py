"""The benchmark's workloads: which CLI operations one pass runs, and the
check each operation's report must pass.

Every operation writes its report with `--out` into the pass directory.
Input paths are relative to the run's working directory, which holds the
generated files under `in/`.

Why these three (each stresses a different layer):
  pes-deep    gate-level phase-estimation preparation (2^t - 1 controlled
              circuit passes on a (t + n)-qubit state) carries the run.
  lhes-clock  the dense controlled-power chain of the unary-clock LHES
              decider carries the run; the only workload with large peak RSS.
  wide-draws  no large preparation: 1024-dim unitary_eig, the transport
              check, Hadamard tests and 10^5 substream draws.  It is the
              no-change control for phase-estimation work.

The checks:
  pes       t and sample count as configured, and the sampled phases pass
            a DKW test against the estimator's outcome law computed here.
  verify    the feasible verdict equals Hall's condition evaluated here on
            the same samples, target law, epsilon and delta + reported
            slack.  It does not require `feasible: true`: at these sample
            sizes the slack rule rejects samples drawn from a feasible law.
  spectrum  weights sum to 1 and every phase is a closed-form eigenphase.
  luae-u    the estimate lies within epsilon of tr(U)/2^n.
  decide    the answer matches the base circuit's known output.
"""
from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import reference

# Weights of a spectral law sum to 1 within the package's own tolerance.
WEIGHT_SUM_TOL = 1e-9
# A reported eigenphase lies this close to one of the closed-form phases.
PHASE_TOL = 1e-8


class CheckFailed(Exception):
    """An operation's report contradicts the known answer."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation, `eigensample <argv>`, whose JSON report lands in
    `report` (relative to the working directory) and must pass `check`.
    A check may return a short outcome to log."""

    name: str
    argv: tuple[str, ...]
    report: str
    check: Callable[[dict, Path], str | None]
    # False for operations the warm-up pass skips.  Each operation is a
    # fresh process, and the set-up calls before it already import the whole
    # package, so the warm-up pass only has to touch each workload's heavy
    # code path once (page cache, bytecode cache, the BLAS library's pages).
    warm: bool = True


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _op(name, command, args, out, check, warm=True) -> Op:
    report = f"{out}/{name}.json"
    return Op(name, (command, *args, "--out", report), report, check, warm)


def _check_pes(t: int, count: int, law):
    def check(report, workdir):
        samples = report["samples"]
        _expect(report["t"] == t, f"t is {report['t']}, expected {t}")
        _expect(len(samples) == count, f"{len(samples)} samples, expected {count}")
        _expect(all(0.0 <= s < 1.0 and float(s * 2**t).is_integer() for s in samples),
                "phase off the 2^-t grid in [0, 1)")
        gap, threshold = reference.dkw_distance(samples, law, t)
        _expect(gap <= threshold, f"DKW distance {gap:.4g} exceeds {threshold:.4g}")
    return check


def _check_verify(samples_path: str, phases, weights):
    def check(report, workdir):
        samples = json.loads((workdir / samples_path).read_text())
        slack = report["slack"]
        _expect(0.0 <= slack <= 1.0 and isinstance(report["feasible"], bool), "malformed report")
        expected = reference.transport_verdict(
            samples["samples"], phases, weights, samples["epsilon"], samples["delta"] + slack)
        _expect(expected is None or report["feasible"] is expected,
                f"feasible is {report['feasible']}, Hall's condition says {expected}")
        return f"feasible={report['feasible']}"
    return check


def _check_decide(expected: bool):
    def check(report, workdir):
        _expect(report["accept"] is expected, f"accept is {report['accept']}, expected {expected}")
    return check


def setup_op(workload: str, params: dict, out: str) -> Op:
    """`check` on the workload's main input: process start, imports, parse."""
    path, qubits = {
        "pes-deep": ("in/deep.txt", inputs.PES_DEEP_QUBITS),
        "lhes-clock": ("in/accept.txt", 1),
        "wide-draws": ("in/wide.txt", inputs.WIDE_QUBITS),
    }[workload]
    gates = params.get("gates", 2)

    def check(report, workdir):
        _expect(report["qubits"] == qubits and report["gates"] == gates, "check miscounts the input")

    return _op("check", "check", (path,), out, check)


def pes_deep_ops(seed: int, params: dict, out: str) -> list[Op]:
    b = params["b"]
    u, b_index = params["unitary"], int(b, 2)
    phases, weights = reference.spectral_law(u, b_index)
    law = reference.estimator_law(u, b_index, inputs.PES_DEEP_T)
    return [
        _op("pes", "pes", ("in/deep.txt", "--epsilon", repr(inputs.PES_DEEP_EPSILON),
                           "--delta", repr(inputs.PES_DEEP_DELTA), "--b", b,
                           "--samples", str(inputs.PES_DEEP_SAMPLES), "--seed", str(seed)),
            out, _check_pes(inputs.PES_DEEP_T, inputs.PES_DEEP_SAMPLES, law)),
        _op("verify", "verify", ("in/deep.txt", f"{out}/pes.json", "--b", b),
            out, _check_verify(f"{out}/pes.json", phases, weights)),
    ]


def lhes_clock_ops(seed: int, params: dict, out: str) -> list[Op]:
    ops = []
    # The warm-up pass runs the cheap pes and luae routes only; the two lhes
    # decides take about 10 s each.
    for route in ("pes", "luae", "lhes"):
        for name, accept in params["expected"].items():
            label = f"{route}-{name.removesuffix('.txt')}"
            ops.append(_op(label, "decide", (f"in/{name}", "--x", params["x"], "--route", route,
                                             "--oracle", "quantum", "--seed", str(seed)),
                           out, _check_decide(accept), warm=route != "lhes"))
    return ops


def wide_draws_ops(seed: int, params: dict, out: str) -> list[Op]:
    b, b_bell = params["b"], params["b_bell"]
    phases, weights = params["phases"], params["weights"]
    sorted_phases = sorted(phases)
    trace = params["normalized_trace"]
    bell_u, bell_index = params["bell_unitary"], int(b_bell, 2)
    bell_phases, bell_weights = reference.spectral_law(bell_u, bell_index)
    bell_law = reference.estimator_law(bell_u, bell_index, inputs.BELL_T)

    def check_spectrum(report, workdir):
        weights = [p["weight"] for p in report["points"]]
        _expect(abs(sum(weights) - 1.0) <= WEIGHT_SUM_TOL, f"weights sum to {sum(weights)!r}")
        for point in report["points"]:
            gap = _circular_gap(sorted_phases, point["value"])
            _expect(gap <= PHASE_TOL, f"phase {point['value']!r} is {gap:.3g} from the spectrum")

    def check_luae_u(report, workdir):
        est = complex(report["estimate"]["re"], report["estimate"]["im"])
        _expect(abs(est - trace) <= inputs.LUAE_U_EPSILON,
                f"estimate {est} is {abs(est - trace):.3g} from tr(U)/2^n")

    # The warm-up pass runs `spectrum` only (about 4 s of a 17 s pass): it
    # parses the 10-qubit circuit and runs the 1024-dim eigensolver.
    return [
        _op("spectrum", "spectrum", ("in/wide.txt", "--b", b), out, check_spectrum),
        _op("verify-wide", "verify", ("in/wide.txt", "in/wide_samples.json", "--b", b),
            out, _check_verify("in/wide_samples.json", phases, weights), warm=False),
        _op("luae-u", "luae-u", ("in/wide.txt", "--epsilon", repr(inputs.LUAE_U_EPSILON),
                                 "--delta", repr(inputs.LUAE_U_DELTA), "--seed", str(seed)),
            out, check_luae_u, warm=False),
        _op("pes-bell", "pes", ("in/bell.txt", "--epsilon", repr(inputs.BELL_EPSILON),
                                "--delta", repr(inputs.BELL_DELTA), "--b", b_bell,
                                "--samples", str(inputs.BELL_SAMPLES), "--seed", str(seed)),
            out, _check_pes(inputs.BELL_T, inputs.BELL_SAMPLES, bell_law), warm=False),
        _op("verify-bell", "verify", ("in/bell.txt", f"{out}/pes-bell.json", "--b", b_bell),
            out, _check_verify(f"{out}/pes-bell.json", bell_phases, bell_weights), warm=False),
    ]


def _circular_gap(sorted_phases: list[float], value: float) -> float:
    """Circular distance from `value` to the nearest of `sorted_phases`."""
    i = bisect.bisect_left(sorted_phases, value)
    gaps = (abs(value - sorted_phases[j % len(sorted_phases)]) % 1.0 for j in (i - 1, i))
    return min(min(d, 1.0 - d) for d in gaps)


WORKLOADS = {
    "pes-deep": pes_deep_ops,
    "lhes-clock": lhes_clock_ops,
    "wide-draws": wide_draws_ops,
}
