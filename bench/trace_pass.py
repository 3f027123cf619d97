"""One traced pass of a workload, in a fresh interpreter.

    python3 bench/trace_pass.py PLAN.json RESULT.json

PLAN.json holds {"ops": [{"name": ..., "argv": [...]}, ...]}: the same CLI
operations the untraced pass runs as child processes.  Here each runs
in-process through `eigensample.cli.main`, and spans are recorded around
the calls into each module: the public functions are wrapped where the
calling module looks them up, and the deciders receive wrapping oracle
factories that time the oracle's preparation and count its draws.  No
package code changes.

A fresh interpreter per pass matters because `reductions` keeps
module-level preparation caches: a second pass in one process would time
cache hits.

RESULT.json receives the per-layer metrics, a span table (calls, total and
self seconds per span name), each operation's exit code, and the health
checks that failed.
"""
from __future__ import annotations

import json
import sys
import time
import traceback
from collections import Counter
from importlib import import_module

import numpy as np

from eigensample import cli

# Largest total-variation distance allowed between a preparation's ancilla
# law and the closed-form Fejer law built from unitary_eig of its step
# unitary.  The gate-level route is exact up to rounding (8e-14 measured at
# t = 10).  The dense route squares the step matrix t - 1 times with a
# re-projection after each product, and its drift grows with 2^t (2.9e-6
# measured at t = 16).
LAW_TV_TOL = {"gate": 1e-9, "dense": 1e-4}

MODULES = ("phase_estimation", "hamiltonians", "reductions", "linalg", "circuits",
           "distributions", "averages", "seeding", "cli")

# Unit of every per-layer metric.  Counts marked "computed" below are
# derived from sizes, not measured.
UNITS = {
    "phase_estimation.prepare_pes_s": "s",
    "phase_estimation.prepare_dense_s": "s",
    "phase_estimation.t": "count",
    "phase_estimation.state_bytes": "B",  # computed: 16 * 2^(t + n)
    "phase_estimation.gate_passes": "count",  # computed: (2^t - 1) * gates, or t when dense
    "phase_estimation.draws_per_s": "1/s",
    "phase_estimation.mass_deficit": "1",
    "phase_estimation.law_tv": "1",
    "hamiltonians.prepare_lhes_s": "s",
    "hamiltonians.slice_s": "s",
    "hamiltonians.trotter_steps": "count",
    "reductions.decide_lhes_s": "s",
    "reductions.decide_pes_s": "s",
    "reductions.decide_luae_s": "s",
    "reductions.oracle_prepare_s": "s",
    "reductions.draws": "count",
    "reductions.survivor_ratio": "1",
    "linalg.unitary_eig_s": "s",
    "linalg.eig_dim": "count",
    "linalg.eig_residual": "1",
    "circuits.circuit_unitary_s": "s",
    "distributions.exact_distribution_s": "s",
    "distributions.feasibility_s": "s",
    "distributions.candidates": "count",  # computed from the samples at epsilon
    "distributions.edges": "count",  # computed from samples and targets at epsilon
    "distributions.flow_margin": "1",
    "averages.luae_unguided_s": "s",
    "averages.hadamard_test_ms": "ms",
    "averages.m_samples": "count",
    "seeding.substream_us": "us",
    "cli.parse_s": "s",
    "cli.render_s": "s",
    "trace.pass_s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
}


def _module(name: str):
    return import_module(f"eigensample.{name}")


class Tracer:
    """Spans kept in memory as [name, parent index or -1, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        record = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()

    def table(self) -> dict[str, list]:
        """Span name -> [calls, total seconds, self seconds].  Self time is
        the span's duration minus the durations of its direct children."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        rows: dict[str, list] = {}
        for index, (name, _, start, end) in enumerate(self.spans):
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[index]
        return rows


class Instruments:
    """Installs the spans and keeps what the health metrics need."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.preps: list[dict] = []
        self.eigs: list[tuple] = []
        self.feasibility: list[tuple] = []
        self.trotter_steps: list[int] = []
        self.m_samples: list[int] = []
        self.counts = Counter()

    def seam(self, span: str, attr: str, modules, after=None) -> None:
        """Wrap `attr` as each of `modules` looks it up; skip where absent."""
        for module in map(_module, modules):
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(span, fn, after))

    def _wrap(self, span, fn, after):
        call = self.tracer.call

        def traced(*args, **kwargs):
            result = call(span, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        self.seam("cli.parse", "parse_circuit", ["cli"])
        self.seam("cli.parse", "parse_hamiltonian", ["cli"])
        self._render_seam()
        self.seam("phase_estimation.prepare_pes", "prepare_pes", ["cli", "reductions"],
                  self._after_prepare_pes)
        self.seam("phase_estimation.prepare_dense", "prepare_phase_estimation_dense",
                  ["hamiltonians"], self._after_prepare_dense)
        prepared = getattr(_module("phase_estimation"), "PreparedPhaseEstimation", None)
        if prepared is not None:
            sample = prepared.sample
            prepared.sample = lambda obj, rng: self.tracer.call(
                "phase_estimation.sample", sample, obj, rng)
        self.seam("hamiltonians.prepare_lhes", "prepare_lhes", ["cli", "reductions"],
                  lambda args, prep: self.trotter_steps.append(int(prep.trotter_steps)))
        for attr in ("scale_hamiltonian", "trotter_circuit", "circuit_unitary"):
            self.seam("hamiltonians.slice", attr, ["hamiltonians"])
        for route in ("lhes", "pes", "luae"):
            self.seam(f"reductions.decide_{route}", f"decide_via_{route}", ["cli"])
            factory = getattr(cli, f"quantum_{route}_oracle", None)
            if factory is not None:
                setattr(cli, f"quantum_{route}_oracle", self._oracle(route, factory))
        self.seam("linalg.unitary_eig", "unitary_eig", ["distributions"],
                  lambda args, dec: self.eigs.append((np.asarray(args[0]), dec)))
        self.seam("circuits.circuit_unitary", "circuit_unitary", ["cli", "reductions"])
        self.seam("distributions.exact_distribution", "exact_distribution", ["cli", "reductions"])
        self.seam("distributions.feasibility", "empirical_feasibility", ["cli"],
                  lambda args, result: self.feasibility.append((args, result)))
        self.seam("averages.luae_unguided", "luae_unguided", ["cli"],
                  lambda args, est: self.m_samples.append(int(est.m_samples)))
        self.seam("averages.hadamard_test", "hadamard_test_probabilities", ["averages"])
        self.seam("seeding.substream", "substream", ["cli"])

    def _render_seam(self) -> None:
        # render_json recurses through its module-level name; its inner
        # calls go straight to the original so one report is one span.
        render = cli.render_json

        def traced(obj):
            cli.render_json = render
            try:
                return self.tracer.call("cli.render", render, obj)
            finally:
                cli.render_json = traced

        cli.render_json = traced

    def _oracle(self, route: str, factory):
        band = 1.0 + getattr(_module("reductions"), "LHES_BAND_TOL", 1e-9)

        def make(*args):
            draw = self.tracer.call("reductions.oracle_prepare", factory, *args)

            def traced_draw(rng):
                value = self.tracer.call("reductions.oracle_draw", draw, rng)
                self.counts["draws"] += 1
                if route == "lhes":
                    self.counts["lhes_draws"] += 1
                    self.counts["lhes_survivors"] += abs(float(value)) <= band
                return value

            return traced_draw

        return make

    def _after_prepare_pes(self, args, prep) -> None:
        circuit, req = args[0], args[1]
        self.preps.append({
            "kind": "gate", "t": int(prep.t), "n": circuit.qubit_count,
            "passes": (2**prep.t - 1) * len(circuit.gates),
            "probs": np.array(prep.raw_probabilities), "circuit": circuit,
            "b_index": req.b.basis_index(),
        })

    def _after_prepare_dense(self, args, prep) -> None:
        unitary, system_state, t = args[0], args[1], args[2]
        self.preps.append({
            "kind": "dense", "t": int(t), "n": system_state.qubit_count, "passes": int(t),
            "probs": np.array(prep.raw_probabilities), "unitary": np.array(unitary),
            "b": np.array(system_state.amplitudes),
        })


def fejer_law(t: int, phases: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Ancilla law of t-bit phase estimation on a spectral mixture:
    sum_k w_k |sin(2^t pi d) / (2^t sin(pi d))|^2 with d = phi_k - x / 2^t."""
    dim = 2**t
    law = np.zeros(dim)
    grid = np.arange(dim) / dim
    for phi, w in zip(phases, weights):
        d = phi - grid
        s = np.sin(np.pi * d)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = (np.sin(dim * np.pi * d) / (dim * s)) ** 2
        kernel[np.abs(s) < 1e-15] = 1.0
        law += w * kernel
    return law


def law_distance(prep: dict) -> float:
    """Total variation between the prepared ancilla law and fejer_law."""
    linalg = _module("linalg")
    if prep["kind"] == "gate":
        dec = linalg.unitary_eig(_module("circuits").circuit_unitary(prep["circuit"]))
        weights = np.abs(dec.eigenvectors[prep["b_index"], :]) ** 2
    else:
        dec = linalg.unitary_eig(prep["unitary"])
        weights = np.abs(dec.eigenvectors.conj().T @ prep["b"]) ** 2
    return 0.5 * float(np.abs(prep["probs"] - fejer_law(prep["t"], dec.phases(), weights)).sum())


def transport_counts(args, result) -> tuple[int, int, float]:
    """Computed from the sample and target sets at epsilon: candidate
    points, candidate-target edges, and the flow margin.  The margin is the
    target mass that can be routed within epsilon when every target asks for
    its full weight, minus the mass the check required, 1 - (delta + slack)."""
    dist = _module("distributions")
    samples, target, epsilon, delta = args[:4]
    _, slack, _ = result
    counts = Counter(float(v) for v in samples)
    candidate = dist.make_distribution(
        list(counts), [c / len(samples) for c in counts.values()], target.metric)
    gap = np.abs(np.array(candidate.values())[:, None] - np.array(target.values())[None, :])
    if target.metric == "circular":
        gap %= 1.0
        gap = np.minimum(gap, 1.0 - gap)
    pairs = np.argwhere(gap <= epsilon + dist.EDGE_DISTANCE_TOL)
    net = dist.FlowNetwork(candidate.weights(), target.weights(),
                           [(int(i), int(j)) for i, j in pairs])
    margin = dist.max_flow(net) - (1.0 - min(delta + slack, 1.0))
    return len(candidate.points), len(pairs), margin


def per_layer(tracer: Tracer, inst: Instruments) -> tuple[dict, list[str], dict]:
    rows = tracer.table()

    def total(name):
        return rows.get(name, [0, 0.0, 0.0])[1]

    def per_call(name, scale):
        calls, seconds, _ = rows.get(name, [0, 0.0, 0.0])
        return scale * seconds / calls if calls else 0.0

    problems = []
    tvs = []
    for prep in inst.preps:
        tv = law_distance(prep)
        tvs.append(tv)
        if not tv <= LAW_TV_TOL[prep["kind"]]:
            problems.append(f"law_tv {tv:.3g} above {LAW_TV_TOL[prep['kind']]:g} ({prep['kind']}, t={prep['t']})")
    transport = [transport_counts(args, result) for args, result in inst.feasibility]
    residuals = [
        float(np.linalg.norm(u @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues, axis=0).max())
        for u, dec in inst.eigs
    ]
    sample_s = total("phase_estimation.sample")
    lhes_draws = inst.counts["lhes_draws"]
    metrics = {
        "phase_estimation.prepare_pes_s": total("phase_estimation.prepare_pes"),
        "phase_estimation.prepare_dense_s": total("phase_estimation.prepare_dense"),
        "phase_estimation.t": max((p["t"] for p in inst.preps), default=0),
        "phase_estimation.state_bytes": max((16 * 2 ** (p["t"] + p["n"]) for p in inst.preps), default=0),
        "phase_estimation.gate_passes": sum(p["passes"] for p in inst.preps),
        "phase_estimation.draws_per_s": rows["phase_estimation.sample"][0] / sample_s if sample_s else 0.0,
        "phase_estimation.mass_deficit": max((abs(1.0 - p["probs"].sum()) for p in inst.preps), default=0.0),
        "phase_estimation.law_tv": max(tvs, default=0.0),
        "hamiltonians.prepare_lhes_s": total("hamiltonians.prepare_lhes"),
        "hamiltonians.slice_s": total("hamiltonians.slice"),
        "hamiltonians.trotter_steps": max(inst.trotter_steps, default=0),
        "reductions.decide_lhes_s": total("reductions.decide_lhes"),
        "reductions.decide_pes_s": total("reductions.decide_pes"),
        "reductions.decide_luae_s": total("reductions.decide_luae"),
        "reductions.oracle_prepare_s": total("reductions.oracle_prepare"),
        "reductions.draws": inst.counts["draws"],
        "reductions.survivor_ratio": inst.counts["lhes_survivors"] / lhes_draws if lhes_draws else 0.0,
        "linalg.unitary_eig_s": total("linalg.unitary_eig"),
        "linalg.eig_dim": max((u.shape[0] for u, _ in inst.eigs), default=0),
        "linalg.eig_residual": max(residuals, default=0.0),
        "circuits.circuit_unitary_s": total("circuits.circuit_unitary"),
        "distributions.exact_distribution_s": total("distributions.exact_distribution"),
        "distributions.feasibility_s": total("distributions.feasibility"),
        "distributions.candidates": sum(c for c, _, _ in transport),
        "distributions.edges": sum(e for _, e, _ in transport),
        "distributions.flow_margin": min((m for _, _, m in transport), default=0.0),
        "averages.luae_unguided_s": total("averages.luae_unguided"),
        "averages.hadamard_test_ms": per_call("averages.hadamard_test", 1e3),
        "averages.m_samples": sum(inst.m_samples),
        "seeding.substream_us": per_call("seeding.substream", 1e6),
        "cli.parse_s": total("cli.parse"),
        "cli.render_s": total("cli.render"),
        "trace.pass_s": sum(row[1] for name, row in rows.items() if name.startswith("op.")),
    }
    self_s = Counter()
    for name, (_, _, own) in rows.items():
        module = name.split(".")[0]
        self_s["cli" if module == "op" else module] += own
    for module in MODULES:
        metrics[f"{module}.self_s"] = self_s[module]
    return metrics, problems, rows


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = Tracer()
    inst = Instruments(tracer)
    inst.install()
    reductions = _module("reductions")
    exit_codes = {}
    for op in plan["ops"]:
        try:
            exit_codes[op["name"]] = tracer.call(f"op.{op['name']}", cli.main, op["argv"])
        except Exception:  # one broken operation must not hide the others
            traceback.print_exc()
            exit_codes[op["name"]] = -1
        # Each untraced operation is its own process; drop the preparation
        # caches so nothing carries over here either.
        for cache in ("_PES_PREP_CACHE", "_LHES_PREP_CACHE"):
            getattr(reductions, cache, {}).clear()
    metrics, problems, rows = per_layer(tracer, inst)
    with open(result_path, "w") as fh:
        json.dump({"metrics": {name: {"value": value, "unit": UNITS[name]}
                               for name, value in metrics.items()},
                   "spans": rows, "exit_codes": exit_codes,
                   "problems": problems}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
