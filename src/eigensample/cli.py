"""Command-line front door.

Every subcommand reads plain-text circuit or Hamiltonian files, runs one
operation end to end, and emits a deterministic report: JSON everywhere,
CSV only for the trotter-bench table.  Floats are printed with 17
significant digits so identical configurations produce byte-identical
output.  Every command that draws takes uniform k of its run from
substream (seed, k) (seeding.master_rng), so its report does not depend on
batching.

Exit codes: 0 success, 1 parse or validation failure (an unreadable input
or an unwritable output among them), 2 dimension or size failure, 3 oracle
failure.  Failures print a machine-readable JSON object to stderr.

`run` is the process entry point (`python -m eigensample`, the
`eigensample` script); `main` is the same command without the exit, for
callers in the same interpreter.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import sys
from importlib import import_module
from itertools import chain
from pathlib import Path

import numpy as np

from . import _SUBMODULE_OF, __version__
from .circuits import BasisLabel, parse_circuit, text_lines
from .errors import (
    DimensionMismatch,
    EigensampleError,
    OracleFailure,
    TermTooLarge,
    TooLarge,
)


def _submodule(name: str):
    return import_module(f".{name}", __package__)


def _deferred(name: str):
    """Stand-in for the package's public `name` that imports its submodule
    at its first call."""
    module = _SUBMODULE_OF[name]

    def call(*args, **kwargs):
        return getattr(_submodule(module), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# What the commands call from modules that not every command needs.  Each
# name is bound here as a _deferred stand-in, so a command loads only the
# modules it runs (`check` on a circuit: circuits, linalg and errors), and
# any of the names can still be replaced on this module.
_DEFERRED = (
    "SamplingRequest", "build_unary_clock", "decide_via_lhes", "decide_via_luae",
    "decide_via_pes", "dense_hamiltonian", "empirical_feasibility",
    "exact_distribution", "exact_lhes_oracle", "exact_luae_oracle", "exact_pes_oracle",
    "luae_estimate", "luae_unguided", "mark_circuit", "master_rng",
    "parse_hamiltonian", "prepare_lhes", "prepare_pes", "quantum_lhes_oracle",
    "quantum_luae_oracle", "quantum_pes_oracle", "reduction_report", "scale_hamiltonian",
    "serialize_hamiltonian", "substream_uniforms", "trotter_deviation",
)
globals().update((name, _deferred(name)) for name in _DEFERRED)

EXIT_PARSE = 1
EXIT_SIZE = 2
EXIT_ORACLE = 3

_SIZE_ERRORS = (DimensionMismatch, TooLarge, TermTooLarge)


class UsageError(Exception):
    """Bad flags, unreadable inputs, unwritable outputs, malformed auxiliary JSON."""


class _ParserExit(Exception):
    """argparse is done (--help, --version); args[0] is its exit status."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        """main returns status, so only run ends the process.  argparse
        passes a message only from error, which raises UsageError instead."""
        raise _ParserExit(status)

    def _print_message(self, message, file=None):
        """--help and --version text, through _emit: argparse itself would
        swallow a failed write and exit 0."""
        if message:
            _emit([message], None)


# ---------------------------------------------------------------------------
# deterministic JSON / CSV rendering

# Items per rendered piece of a list: bounds the strings alive at once.
RENDER_CHUNK = 2**16


def iter_json(obj):
    """render_json(obj) in pieces, in order.  A list goes out RENDER_CHUNK
    items at a time, and a chunk of a 1-D float64 array with each distinct
    value formatted once."""
    if isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(str(k))}: "
            yield from iter_json(v)
        yield "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        yield "["
        for start in range(0, len(obj), RENDER_CHUNK):
            chunk = obj[start : start + RENDER_CHUNK]
            if isinstance(chunk, np.ndarray) and chunk.ndim == 1 and chunk.dtype == np.float64:
                items = _format_distinct(chunk)
            else:
                items = ("".join(iter_json(v)) for v in chunk)
            yield (", " if start else "") + ", ".join(items)
        yield "]"
    else:
        yield _render_scalar(obj)


def _format_distinct(values: np.ndarray) -> list[str]:
    """format(x, ".17g") for each x in a 1-D float64 array, formatting each
    distinct bit pattern once: a sampled report holds at most 2^t distinct
    values.  Bit patterns keep -0.0 apart from 0.0."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    table = np.empty(len(bits), dtype=object)
    table[:] = [format(x, ".17g") for x in bits.view(np.float64).tolist()]
    return table[index].tolist()


def _render_scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__} deterministically")


def render_json(obj) -> str:
    """JSON with floats at 17 significant digits and stable key order."""
    return "".join(iter_json(obj))


def _base_report(seed, epsilon, delta) -> dict:
    return {
        "seed": seed,
        "epsilon": epsilon,
        "delta": delta,
        "tool_version": __version__,
    }


def _emit(pieces, out: str | None) -> None:
    """Write the pieces to the file `out`, or to stdout when out is None.

    An output that cannot be opened or written raises UsageError.  A failed
    stdout is closed, with what it still holds, so that the interpreter does
    not fail once more flushing it at exit."""
    try:
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as stream:
            stream.writelines(pieces)
            stream.flush()
    except OSError as exc:
        if not out:
            with contextlib.suppress(OSError):
                sys.stdout.close()
        raise UsageError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _emit_report(report: dict, out: str | None) -> int:
    """Write the report as one JSON line, piece by piece (iter_json)."""
    _emit(chain(iter_json(report), ["\n"]), out)
    return 0


# ---------------------------------------------------------------------------
# input loading

def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _detect_kind(text: str) -> str:
    heads = (tokens[0] for _, tokens in text_lines(text))
    return "hamiltonian" if "term" in heads else "circuit"


def _load_input(path: str, kind: str):
    """(kind, parsed file) for kind "circuit", "hamiltonian" or "auto",
    which reads the kind off the text (_detect_kind)."""
    text = _read_file(path)
    if kind == "auto":
        kind = _detect_kind(text)
    if kind == "circuit":
        return kind, parse_circuit(text)
    return kind, parse_hamiltonian(text)


def _exact_law(kind: str, obj, b: BasisLabel):
    """Exact spectral law of a circuit (phases) or Hamiltonian (values) from b.

    A b of the wrong length raises DimensionMismatch, and inputs wider than
    circuits.MAX_DENSE_QUBITS raise TooLarge, before any dense matrix is
    allocated."""
    b.check_width(obj.qubit_count, "circuit" if kind == "circuit" else "Hamiltonian")
    if kind == "circuit":
        return exact_distribution(obj, b, "unitary")
    return exact_distribution(dense_hamiltonian(obj), b, "hermitian")


def _finite_samples(samples) -> np.ndarray | None:
    """The samples as floats when they are a list of JSON numbers, not
    booleans, that are all finite as floats; otherwise None."""
    if not isinstance(samples, list) or not set(map(type, samples)) <= {int, float}:
        return None
    try:
        values = np.array(samples, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return values if np.isfinite(values).all() else None


def _check_samples(args) -> None:
    """Refuse a negative or oversized --samples before any preparation."""
    if args.samples < 0:
        raise UsageError(f"--samples must be nonnegative, got {args.samples}")
    cap = _submodule("seeding").MAX_SAMPLES
    if args.samples > cap:
        raise TooLarge(f"--samples {args.samples} exceeds the cap of {cap}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args) -> int:
    kind, obj = _load_input(args.file, args.kind)
    report = _base_report(args.seed, None, None)
    report["kind"] = kind
    report["qubits"] = obj.qubit_count
    if kind == "circuit":
        report["gates"] = len(obj.gates)
    else:
        report["terms"] = len(obj.terms)
    return _emit_report(report, args.out)


def _cmd_spectrum(args) -> int:
    kind, obj = _load_input(args.file, args.kind)
    b = BasisLabel(args.b)
    dist = _exact_law(kind, obj, b)
    report = _base_report(args.seed, None, None)
    report["kind"] = kind
    report["b"] = args.b
    report["metric"] = dist.metric
    report["points"] = [{"value": v, "weight": w} for v, w in dist.points]
    return _emit_report(report, args.out)


def _cmd_pes(args) -> int:
    _check_samples(args)
    _, circuit = _load_input(args.file, "circuit")
    req = SamplingRequest(args.epsilon, args.delta, BasisLabel(args.b))
    prep = prepare_pes(circuit, req)
    phis = prep.raw_outcomes(substream_uniforms(args.seed, args.samples)) / 2**prep.t
    report = _base_report(args.seed, args.epsilon, args.delta)
    report["b"] = args.b
    report["t"] = prep.t
    report["samples"] = phis
    return _emit_report(report, args.out)


def _cmd_lhes(args) -> int:
    _check_samples(args)
    _, h = _load_input(args.file, "hamiltonian")
    req = SamplingRequest(args.epsilon, args.delta, BasisLabel(args.b))
    prep = prepare_lhes(h, req)
    values = prep.eigenvalues(substream_uniforms(args.seed, args.samples))
    report = _base_report(args.seed, args.epsilon, args.delta)
    report["b"] = args.b
    report["lambda_cap"] = prep.lambda_cap
    report["t"] = prep.t
    report["trotter_steps"] = prep.trotter_steps
    report["samples"] = values
    return _emit_report(report, args.out)


def _cmd_luae(args) -> int:
    _, circuit = _load_input(args.file, "circuit")
    req = SamplingRequest(args.epsilon, args.delta, BasisLabel(args.b))
    est = luae_estimate(circuit, req, master_rng(args.seed))
    report = _base_report(args.seed, args.epsilon, args.delta)
    report["b"] = args.b
    report["m_samples"] = est.m_samples
    report["lambda_hat"] = {"re": est.lambda_hat.real, "im": est.lambda_hat.imag}
    return _emit_report(report, args.out)


def _cmd_luae_u(args) -> int:
    _, circuit = _load_input(args.file, "circuit")
    est = luae_unguided(circuit, args.epsilon, args.delta, master_rng(args.seed))
    report = _base_report(args.seed, args.epsilon, args.delta)
    report["m_samples"] = est.m_samples
    report["estimate"] = {"re": est.lambda_hat.real, "im": est.lambda_hat.imag}
    return _emit_report(report, args.out)


def _cmd_reduce(args) -> int:
    _, circuit = _load_input(args.file, "circuit")
    marked = mark_circuit(circuit, args.kind)
    unary = build_unary_clock(marked)
    _emit([serialize_hamiltonian(unary.hamiltonian)], args.out)
    report = _base_report(args.seed, None, None)
    report.update(reduction_report(marked))
    report["out"] = args.out
    report["hamiltonian_qubits"] = unary.hamiltonian.qubit_count
    report["legal_clock_states"] = list(unary.legal_clock_states)
    return _emit_report(report, None)


def _cmd_decide(args) -> int:
    """The route's decider and oracle factory, looked up on this module at
    each call so that a replaced name runs; the report's epsilon and delta
    are those of the request the decider hands the factory."""
    _, circuit = _load_input(args.file, "circuit")
    decide = globals()[f"decide_via_{args.route}"]
    factory = globals()[f"{args.oracle}_{args.route}_oracle"]
    requests = []

    def recording(marked, req):
        requests.append(req)
        return factory(marked, req)

    accept = decide(circuit, BasisLabel(args.x), recording, master_rng(args.seed))
    report = _base_report(args.seed, requests[0].epsilon, requests[0].delta)
    report["route"] = args.route
    report["oracle"] = args.oracle
    report["x"] = args.x
    report["accept"] = accept
    return _emit_report(report, args.out)


def _cmd_verify(args) -> int:
    kind, obj = _load_input(args.file, args.kind)
    try:
        payload = json.loads(_read_file(args.samples_file))
    except json.JSONDecodeError as exc:
        raise UsageError(f"samples file is not valid JSON: {exc}") from exc
    shape = 'samples file must hold {"samples": [...], "epsilon": e, "delta": d}'
    try:
        samples = payload["samples"]
        epsilon = float(payload["epsilon"])
        delta = float(payload["delta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(shape) from exc
    samples = _finite_samples(samples)
    if samples is None:
        raise UsageError(f"{shape} with finite numbers as samples")
    if not (math.isfinite(epsilon) and math.isfinite(delta)):
        raise UsageError(f"{shape} with finite e and d")
    target = _exact_law(kind, obj, BasisLabel(args.b))
    feasible, slack, flow = empirical_feasibility(samples, target, epsilon, delta)
    report = _base_report(args.seed, epsilon, delta)
    report["b"] = args.b
    report["feasible"] = feasible
    report["slack"] = slack
    report["flow"] = flow
    return _emit_report(report, args.out)


def _cmd_trotter_bench(args) -> int:
    _, h = _load_input(args.file, "hamiltonian")
    try:
        step_counts = [int(tok) for tok in args.m.split(",")]
    except ValueError as exc:
        raise UsageError(f"--m takes comma-separated integers: {exc}") from exc
    if not step_counts or any(m < 1 for m in step_counts):
        raise UsageError("--m values must be positive")
    scale = scale_hamiltonian(h)
    deviations = {m: trotter_deviation(scale, m) for m in step_counts}
    lines = ["m,deviation,ratio"]
    for m in step_counts:
        dev = deviations[m]
        if 2 * m in deviations and deviations[2 * m] > 0:
            ratio = _render_scalar(dev / deviations[2 * m])
        else:
            ratio = ""
        lines.append(f"{m},{_render_scalar(dev)},{ratio}")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(p, *, epsilon=False, delta=False, b=False, samples=False):
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    if epsilon:
        p.add_argument("--epsilon", type=float, required=True, help="precision")
    if delta:
        p.add_argument("--delta", type=float, required=True, help="failure budget")
    if b:
        p.add_argument("--b", required=True, help="reference basis bitstring")
    if samples:
        p.add_argument(
            "--samples", type=int, default=100, help="number of draws (default 100)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eigensample", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--version", action="version", version=f"eigensample {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a circuit or Hamiltonian file")
    p.add_argument("file")
    p.add_argument("--kind", choices=["auto", "circuit", "hamiltonian"], default="auto")
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("spectrum", help="exact spectral distribution seen from b")
    p.add_argument("file")
    p.add_argument("--kind", choices=["auto", "circuit", "hamiltonian"], default="auto")
    _add_common(p, b=True)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("pes", help="sample eigenphases of a circuit")
    p.add_argument("file")
    _add_common(p, epsilon=True, delta=True, b=True, samples=True)
    p.set_defaults(handler=_cmd_pes)

    p = sub.add_parser("lhes", help="sample eigenvalues of a local Hamiltonian")
    p.add_argument("file")
    _add_common(p, epsilon=True, delta=True, b=True, samples=True)
    p.set_defaults(handler=_cmd_lhes)

    p = sub.add_parser("luae", help="estimate the average eigenvalue <b|U|b>")
    p.add_argument("file")
    _add_common(p, epsilon=True, delta=True, b=True)
    p.set_defaults(handler=_cmd_luae)

    p = sub.add_parser("luae-u", help="estimate tr(U)/2^n with uniform random b")
    p.add_argument("file")
    _add_common(p, epsilon=True, delta=True)
    p.set_defaults(handler=_cmd_luae_u)

    p = sub.add_parser("reduce", help="mark a circuit and emit its unary clock Hamiltonian")
    p.add_argument("file")
    p.add_argument("--kind", choices=["lhes-copy", "pe-reflect"], default="lhes-copy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="path for the Hamiltonian text file")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("decide", help="run a decider end to end on input x")
    p.add_argument("file")
    p.add_argument("--x", required=True, help="input bitstring for the base circuit")
    p.add_argument("--route", choices=["lhes", "pes", "luae"], required=True)
    p.add_argument("--oracle", choices=["exact", "quantum"], default="exact")
    _add_common(p)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("verify", help="check sampled values against the exact spectrum")
    p.add_argument("file")
    p.add_argument("samples_file", help='JSON {"samples": [...], "epsilon": e, "delta": d}')
    p.add_argument("--kind", choices=["auto", "circuit", "hamiltonian"], default="auto")
    _add_common(p, b=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("trotter-bench", help="Trotter deviation vs step count (CSV)")
    p.add_argument("file")
    p.add_argument("--m", default="64,128,256", help="comma-separated step counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_trotter_bench)

    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    line = getattr(exc, "line", None)
    if line is not None:
        payload["line"] = line
    sys.stderr.write(render_json(payload) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _ParserExit as done:
        return done.args[0]
    except UsageError as exc:
        return _fail(exc, EXIT_PARSE)
    except OracleFailure as exc:
        return _fail(exc, EXIT_ORACLE)
    except _SIZE_ERRORS as exc:
        return _fail(exc, EXIT_SIZE)
    except (EigensampleError, ValueError) as exc:
        return _fail(exc, EXIT_PARSE)


def run(argv=None):
    """main(argv), then exit the process with its code.

    The objects still alive then go with the process, so they are frozen
    first (gc.freeze): the interpreter's collections at exit then skip them
    instead of scanning every object that numpy and eigensample made."""
    code = main(argv)
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
