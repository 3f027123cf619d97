"""End-to-end checks of the command-line front door."""
import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import eigensample
import eigensample.cli as cli_module
from eigensample import (
    BasisLabel,
    Circuit,
    OracleFailure,
    SamplingRequest,
    exact_pes_oracle,
    luae_estimate,
    luae_unguided,
    master_rng,
    named_gate,
    parse_circuit,
    parse_hamiltonian,
    prepare_lhes,
    prepare_pes,
)
from eigensample import seeding
from eigensample.cli import iter_json, main, render_json
from _helpers import (
    grouped_circuit,
    per_sample_uniforms,
    random_circuit,
    recursive_render_json,
    serialize_circuit,
    substream,
)

FILE_TEXTS = {
    "bell": "qubits 2\nh 0\ncnot 0 1\n",
    "x": "qubits 1\nx 0\n",
    "zc": "qubits 1\nz 0\n",
    "ident": "qubits 1\nu1 0 1 0 0 0 0 0 1 0\n",
    "wide": "qubits 13\nh 0\n",
    "zham": "qubits 1\nterm 1 0 1 0 0 0 0 0 -1 0\n",
    "zham2": "qubits 2\nterm 1 0 1 0 0 0 0 0 -1 0\n",
    # lambda_cap 0.004: epsilon / lambda_cap overflows for epsilon 1e308
    "smallham": "qubits 1\nterm 1 0 0.001 0 0 0 0 0 -0.001 0\n",
    "wideham": "qubits 13\nterm 1 0 1 0 0 0 0 0 -1 0\n",
    "zxham": "qubits 1\nterm 1 0 1 0 0 0 0 0 -1 0\nterm 1 0 0 0 1 0 1 0 0 0\n",
    "bad": "qubits 1\nterm 1 0 1 0\n",
    # 9 digits leave these 1.6e-9 from unitary and 5e-9 from Hermitian
    "roughh": "qubits 1\nx 0\n"
    "u1 0 0.707106781 0 0.707106781 0 0.707106781 0 -0.707106781 0\n",
    "roughham": "qubits 1\nterm 1 0 1 0 0 0 5e-9 0 -1 0\n",
    "wide12": "qubits 12\nh 0\n",
    "ghz": "qubits 3\nh 0\ncnot 0 1\ncnot 1 2\n",
    "wide30": "qubits 30\nh 29\n",
}

# 19 named gates on qubits 1-4
FIVE_QUBIT_GATES = (
    "h 1\ncnot 1 2\nt 2\nh 3\ncz 3 4\ns 4\nswap 1 3\ncnot 2 4\nh 2\nt 4\n"
    "cnot 4 1\nsdg 3\nh 4\ncz 1 2\ny 3\nswap 2 4\ntdg 1\ncnot 3 2\nh 1\n"
)


@pytest.fixture
def files(tmp_path):
    paths = {"dir": tmp_path}
    for name, text in FILE_TEXTS.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def cli_env(*paths) -> dict:
    """The environment of a CLI child that imports this eigensample, with
    `paths` ahead of it on the import path."""
    src = str(Path(eigensample.__file__).parents[1])
    return dict(os.environ, EIGENSAMPLE_THREADS="1", PYTHONPATH=os.pathsep.join([*paths, src]))


class TestRenderJson:
    def test_float_formatting(self):
        assert render_json(1.0) == "1"
        assert render_json(0.5) == "0.5"
        assert render_json(1.0 / 3.0) == "0.33333333333333331"

    def test_scalars_and_containers(self):
        obj = {"a": [True, None, 2], "b": "x"}
        assert render_json(obj) == '{"a": [true, null, 2], "b": "x"}'

    def test_numpy_values(self):
        assert render_json(np.float64(0.25)) == "0.25"
        assert render_json(np.int64(3)) == "3"
        assert render_json(np.bool_(False)) == "false"
        assert render_json(np.array([1.0, 2.0])) == "[1, 2]"

    def test_floats_round_trip(self):
        values = [1.0 / 3.0, 0.1, 2.0 ** -52, 1e300]
        assert json.loads(render_json(values)) == values

    def test_rejects_unrenderable(self):
        with pytest.raises(TypeError):
            render_json(complex(1.0, 2.0))

    EDGE_FLOATS = [-0.0, 0.0, 1e-300, 5e-324, 0.1, 1.0 / 3.0, 1e300, -2.5, math.inf, math.nan]

    @pytest.mark.parametrize("chunk", [1, 3, 2**16])
    def test_matches_the_recursive_renderer(self, chunk, monkeypatch):
        monkeypatch.setattr(cli_module, "RENDER_CHUNK", chunk)
        floats = self.EDGE_FLOATS
        values = [
            floats,
            np.array(floats),
            [1, 2.5, -0.0, True, None, "s"],
            [np.float64(0.1), np.int64(-4), np.bool_(True)],
            {"a": {"b": [1e-300, {"c": -0.0}], "d": []}, "e": (0.1, 7)},
            np.arange(12).reshape(3, 4),
            np.array([True, False]),
            [],
            {},
            -0.0,
            12,
        ]
        for obj in values:
            expected = recursive_render_json(obj)
            assert render_json(obj) == expected
            assert "".join(iter_json(obj)) == expected

    def test_long_float_lists_stream_in_bounded_pieces(self, monkeypatch):
        monkeypatch.setattr(cli_module, "RENDER_CHUNK", 100)
        rng = np.random.default_rng(4)
        values = rng.standard_normal(1050) * 10.0 ** rng.uniform(-300, 300, 1050)
        pieces = list(iter_json({"samples": values}))
        assert max(len(piece) for piece in pieces) < 100 * 26
        assert "".join(pieces) == recursive_render_json({"samples": values})

    @pytest.mark.parametrize("chunk", [1, 3, 2**16])
    def test_float64_arrays_match_the_recursive_renderer(self, chunk, monkeypatch):
        monkeypatch.setattr(cli_module, "RENDER_CHUNK", chunk)
        rng = np.random.default_rng(5)
        payload_nan = np.array([0x7FF8000000000001, -1], dtype=np.int64).view(np.float64)
        grid = np.linspace(0.0, 1.0, 41)
        arrays = [
            # grid values that repeat within and across chunk boundaries
            rng.integers(0, 8, 2 * chunk + 5) / 8.0,
            np.array([0.0, -0.0, -0.0, 0.0, 1.0, -0.0]),
            np.concatenate([[math.nan, math.inf, -math.inf] * 3, payload_nan, [-math.nan]]),
            grid[::3],  # non-contiguous views
            grid[::-2],
            np.stack([grid, -grid])[:, 1],
            grid.astype(">f8"),  # not native float64: rendered value by value
            grid.astype(np.float32),
        ]
        for values in arrays:
            expected = recursive_render_json(values)
            assert render_json(values) == expected
            assert "".join(iter_json({"samples": values})) == recursive_render_json(
                {"samples": values})

    def test_each_distinct_value_formatted_once(self, monkeypatch):
        calls = []

        def counted(value, spec):
            calls.append(value)
            return format(value, spec)

        monkeypatch.setattr(cli_module, "format", counted, raising=False)
        values = np.random.default_rng(6).integers(0, 16, 5000) / 16.0
        assert render_json(values) == recursive_render_json(values)
        assert len(calls) == len(np.unique(values)) <= 16


class TestCheckCommand:
    def test_circuit_report(self, files, capsys):
        code, out, err = run_cli(["check", files["bell"]], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "circuit"
        assert report["qubits"] == 2
        assert report["gates"] == 2
        assert report["seed"] == 0
        assert report["epsilon"] is None
        assert isinstance(report["tool_version"], str)

    def test_hamiltonian_autodetect(self, files, capsys):
        code, out, err = run_cli(["check", files["zham"]], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "hamiltonian"
        assert report["terms"] == 1

    def test_parse_error_reports_line(self, files, capsys):
        code, out, err = run_cli(["check", files["bad"]], capsys)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["exit_code"] == 1
        assert payload["line"] == 2

    @pytest.mark.parametrize("name, error", [("roughh", "not unitary"), ("roughham", "Hermitian")])
    def test_accepts_only_what_later_commands_accept(self, name, error, files, capsys):
        # check used to pass these, then spectrum failed on them with exit 1
        code, out, err = run_cli(["check", files[name]], capsys)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert error in payload["message"]
        assert payload["line"] == (3 if name == "roughh" else 2)

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("text, k, what", [
        ("qubits 1\nu1 0", 1, "u1"),
        ("qubits 2\nu2 0 1", 2, "u2"),
        ("qubits 1\nterm 1 0", 1, "term with k=1"),
    ])
    def test_non_finite_matrix_entry_is_one_parse_error(self, text, k, what, entry, files,
                                                         capsys):
        # the unitarity and hermiticity tests warned on these before the error
        reals = np.eye(2**k).astype(complex).view(float).ravel().tolist()
        reals[1] = entry
        path = files["dir"] / "nonfinite.txt"
        path.write_text(f"{text} {' '.join(map(str, reals))}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["check", str(path)], capsys)
        assert (code, out, caught) == (1, "", [])
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["message"] == f"line 2: {what} matrix entries must be finite"

    def test_forced_kind_mismatch(self, files, capsys):
        code, out, err = run_cli(
            ["check", files["zham"], "--kind", "circuit"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    def test_huge_term_arity_fails_fast_with_its_line(self, files, capsys):
        # 2 * 4^(10^9) reals: 12 s and 823 MB before a message with no line
        path = files["dir"] / "arity.txt"
        path.write_text("qubits 1\nterm 1000000000 0 1 0\n")
        start = time.perf_counter()
        code, out, err = run_cli(["check", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["line"] == 2

    def test_missing_file(self, files, capsys):
        code, out, err = run_cli(
            ["check", str(files["dir"] / "absent.txt")], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"


class TestSpectrumCommand:
    def test_hamiltonian_point(self, files, capsys):
        code, out, err = run_cli(["spectrum", files["zham"], "--b", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["metric"] == "absolute"
        assert report["points"] == [{"value": -1.0, "weight": 1.0}]

    def test_circuit_phases(self, files, capsys):
        code, out, err = run_cli(["spectrum", files["x"], "--b", "0"], capsys)
        report = json.loads(out)
        assert report["kind"] == "circuit"
        assert report["metric"] == "circular"
        assert [p["value"] for p in report["points"]] == [0.0, 0.5]
        assert [p["weight"] for p in report["points"]] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_dense_size_cap(self, files, capsys):
        code, out, err = run_cli(["spectrum", files["wide"], "--b", "0" * 13], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "TooLarge"
        assert payload["exit_code"] == 2

    def test_dense_hamiltonian_cap(self, files, capsys):
        code, out, err = run_cli(["spectrum", files["wideham"], "--b", "0" * 13], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "TooLarge"

    def test_reference_point_mismatch(self, files, capsys):
        code, out, err = run_cli(["spectrum", files["zham"], "--b", "11"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "DimensionMismatch"

    @pytest.mark.parametrize(
        "name, b", [("bell", "0"), ("ghz", "1"), ("wide", "0"), ("wideham", "0")]
    )
    def test_short_reference_point_rejected(self, name, b, files, capsys):
        # a short b must not be read as qubits plus a clock register (bell
        # with b = 0 as |00>); the 13-qubit inputs put the check before the
        # dense-size cap
        code, out, err = run_cli(["spectrum", files[name], "--b", b], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DimensionMismatch"


class TestSamplingCommands:
    def test_pes_matches_library(self, files, capsys):
        argv = [
            "pes", files["x"],
            "--epsilon", "0.25", "--delta", "0.1",
            "--b", "0", "--samples", "5", "--seed", "3",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        report = json.loads(out)
        prep = prepare_pes(
            parse_circuit(FILE_TEXTS["x"]),
            SamplingRequest(0.25, 0.1, BasisLabel("0")),
        )
        expected = [prep.sample(substream(3, i)) for i in range(5)]
        assert report["t"] == prep.t
        assert report["samples"] == expected

    def test_pes_reruns_byte_identical(self, files, capsys):
        argv = [
            "pes", files["x"],
            "--epsilon", "0.25", "--delta", "0.1",
            "--b", "0", "--samples", "5", "--seed", "3",
        ]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second
        assert first.endswith("\n")

    def test_pes_zero_samples(self, files, capsys):
        argv = [
            "pes", files["x"],
            "--epsilon", "0.25", "--delta", "0.1", "--b", "0", "--samples", "0",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert '"samples": []' in out
        assert json.loads(out)["samples"] == []

    def test_pes_above_dense_cap_fails_fast(self, files, capsys):
        argv = ["pes", files["wide"], "--epsilon", "0.25", "--delta", "0.1", "--b", "0" * 13]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "TooLarge"

    def test_pes_above_ancilla_cap_fails_fast(self, files, capsys):
        # epsilon 1e-9 asks for t = 33: a 2^33-entry law, refused before any
        # dense unitary is built
        argv = ["pes", files["bell"], "--epsilon", "1e-9", "--delta", "0.1", "--b", "00"]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "TooLarge"
        assert payload["exit_code"] == 2

    def test_pes_above_kernel_work_cap_fails_fast(self, files, capsys):
        # 12 qubits at t = 24 is 2^36 kernel element updates, minutes of
        # work; it is refused before the dense unitary is built
        argv = ["pes", files["wide12"], "--epsilon", str(2.0**-21), "--delta", "0.1",
                "--b", "0" * 12]
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "TooLarge"
        assert "kernel work" in payload["message"]

    def test_out_flag_redirects_report(self, files, capsys):
        argv = [
            "pes", files["x"],
            "--epsilon", "0.25", "--delta", "0.1", "--b", "0",
            "--samples", "3", "--seed", "7",
        ]
        _, direct, _ = run_cli(argv, capsys)
        target = files["dir"] / "report.json"
        code, out, err = run_cli(argv + ["--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text() == direct

    def test_lhes_matches_library(self, files, capsys):
        argv = [
            "lhes", files["zham"],
            "--epsilon", "1", "--delta", "0.25",
            "--b", "1", "--samples", "3", "--seed", "1",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        report = json.loads(out)
        prep = prepare_lhes(
            parse_hamiltonian(FILE_TEXTS["zham"]),
            SamplingRequest(1.0, 0.25, BasisLabel("1")),
        )
        expected = [prep.sample(substream(1, i)) for i in range(3)]
        assert report["lambda_cap"] == prep.lambda_cap
        assert report["t"] == prep.t
        assert report["trotter_steps"] == prep.trotter_steps
        assert report["samples"] == expected
        # Z seen from |1> is the point spectrum {-1}
        assert all(abs(v + 1.0) < 0.05 for v in report["samples"])


    @pytest.mark.parametrize("command", ["pes", "lhes"])
    def test_negative_samples_rejected_before_preparation(
        self, command, files, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("prepared despite a bad --samples")

        monkeypatch.setattr(cli_module, "prepare_pes", never)
        monkeypatch.setattr(cli_module, "prepare_lhes", never)
        path = files["bell"] if command == "pes" else files["zham"]
        b = "00" if command == "pes" else "1"
        argv = [command, path, "--epsilon", "0.25", "--delta", "0.1",
                "--b", b, "--samples", "-5"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "UsageError"

    @pytest.mark.parametrize("command", ["pes", "lhes"])
    def test_samples_above_cap_fail_fast(self, command, files, capsys):
        path = files["bell"] if command == "pes" else files["zham"]
        b = "00" if command == "pes" else "1"
        argv = [command, path, "--epsilon", "0.25", "--delta", "0.1",
                "--b", b, "--samples", str(seeding.MAX_SAMPLES + 1)]
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "TooLarge"
        assert payload["exit_code"] == 2

    @pytest.mark.parametrize("command, epsilon", [("pes", "nan"), ("lhes", "inf")])
    def test_non_finite_epsilon_is_a_validation_failure(self, command, epsilon, files, capsys):
        path = files["bell"] if command == "pes" else files["zham"]
        b = "00" if command == "pes" else "1"
        argv = [command, path, "--epsilon", epsilon, "--delta", "0.1", "--b", b]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "epsilon" in json.loads(err)["message"]

    def test_huge_epsilon_needs_no_precision_bits(self, files, capsys):
        # epsilon / lambda_cap is inf at 1e308 and 2.5e302 at 1e300; both
        # ask for no precision bits
        reports = []
        for epsilon in ("1e300", "1e308"):
            argv = ["lhes", files["smallham"], "--epsilon", epsilon, "--delta", "0.1",
                    "--b", "0", "--samples", "20", "--seed", "4"]
            code, out, err = run_cli(argv, capsys)
            assert code == 0
            reports.append(json.loads(out))
        big, huge = reports
        assert big["t"] == huge["t"] == 4
        assert big["trotter_steps"] == huge["trotter_steps"]
        assert big["samples"] == huge["samples"]

    @pytest.mark.parametrize("seed", [1, 2**32 + 7])
    @pytest.mark.parametrize("command", ["pes", "lhes"])
    def test_reports_match_per_sample_reference(
        self, command, seed, files, capsys, monkeypatch
    ):
        # the batched substream uniforms give the very report the per-sample
        # generator loop gives, across a chunk boundary and for a two-word seed
        if command == "pes":
            argv = ["pes", files["bell"], "--epsilon", "0.03125", "--b", "00"]
        else:
            argv = ["lhes", files["zxham"], "--epsilon", "0.4", "--b", "1"]
        argv += ["--delta", "0.1", "--seed", str(seed),
                 "--samples", str(seeding.SUBSTREAM_CHUNK + 5)]
        code, batched, _ = run_cli(argv, capsys)
        assert code == 0
        monkeypatch.setattr(cli_module, "substream_uniforms", per_sample_uniforms)
        code, reference, _ = run_cli(argv, capsys)
        assert code == 0
        assert batched == reference


class TestEstimateCommands:
    def test_guided_estimate_matches_library(self, files, capsys):
        argv = [
            "luae", files["x"],
            "--epsilon", "0.2", "--delta", "0.1", "--b", "0", "--seed", "0",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        report = json.loads(out)
        est = luae_estimate(
            parse_circuit(FILE_TEXTS["x"]),
            SamplingRequest(0.2, 0.1, BasisLabel("0")),
            master_rng(0),
        )
        assert report["m_samples"] == est.m_samples == 738
        assert report["lambda_hat"]["re"] == est.lambda_hat.real
        assert report["lambda_hat"]["im"] == est.lambda_hat.imag
        # <0|X|0> = 0
        assert abs(report["lambda_hat"]["re"]) <= 0.2

    @pytest.mark.parametrize(
        "argv",
        [
            ["luae", "--epsilon", "0.5", "--delta", "0.1", "--b", "0" * 30],
            ["luae-u", "--epsilon", "0.5", "--delta", "0.1"],
            ["decide", "--x", "0", "--route", "luae", "--oracle", "exact"],
            ["decide", "--x", "0", "--route", "luae", "--oracle", "quantum"],
            # 1.18e6 sample pairs, within the budget cap: refused before any draw
            ["luae-u", "--epsilon", "0.005", "--delta", "0.1"],
        ],
    )
    def test_statevector_cap_fails_fast(self, argv, files, capsys):
        # one 30-qubit column is 16 GiB: refused before it is allocated
        start = time.perf_counter()
        code, out, err = run_cli([argv[0], files["wide30"], *argv[1:]], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "TooLarge"

    @pytest.mark.parametrize("argv", [["luae", "--b", "0"], ["luae-u"]])
    def test_hoeffding_budget_cap_fails_fast(self, argv, files, capsys):
        # epsilon 1e-4 needs 2.95e9 sample pairs, 44 GiB of uniforms
        start = time.perf_counter()
        code, out, err = run_cli(
            [argv[0], files["x"], "--epsilon", "1e-4", "--delta", "0.1", *argv[1:]], capsys
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "TooLarge"

    TINY = {
        "pes-epsilon": ["pes", "bell", "--epsilon", "1e-320", "--delta", "0.1", "--b", "00"],
        "pes-delta": ["pes", "bell", "--epsilon", "0.1", "--delta", "5e-324", "--b", "00"],
        "lhes": ["lhes", "zham", "--epsilon", "5e-324", "--delta", "0.1", "--b", "0"],
        "luae": ["luae", "x", "--epsilon", "1e-200", "--delta", "0.1", "--b", "0"],
        "luae-u": ["luae-u", "x", "--epsilon", "1e-200", "--delta", "0.1"],
    }

    @pytest.mark.parametrize("argv", TINY.values(), ids=TINY.keys())
    def test_tiny_precision_is_a_size_failure(self, argv, files, capsys):
        # 1 / epsilon, 1 / delta or epsilon^2 over- or underflowed here: exit 1
        # with a domain message, or a raw traceback
        code, out, err = run_cli([files.get(arg, arg) for arg in argv], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "TooLarge"

    @pytest.mark.parametrize("command", ["luae", "luae-u"])
    def test_subnormal_delta_runs(self, command, files, capsys):
        argv = [command, files["x"], "--epsilon", "0.5", "--delta", "1e-320"]
        code, out, err = run_cli(argv + (["--b", "0"] if command == "luae" else []), capsys)
        assert code == 0
        assert json.loads(out)["m_samples"] == math.ceil(32.0 * (math.log(4.0) - math.log(1e-320)))

    def test_unguided_estimate(self, files, capsys):
        argv = [
            "luae-u", files["zc"],
            "--epsilon", "0.2", "--delta", "0.1", "--seed", "0",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        report = json.loads(out)
        est = luae_unguided(
            parse_circuit(FILE_TEXTS["zc"]), 0.2, 0.1, master_rng(0)
        )
        assert report["m_samples"] == est.m_samples
        assert report["estimate"]["re"] == est.lambda_hat.real
        # tr(Z)/2 = 0
        assert abs(report["estimate"]["re"]) <= 0.2


class TestReduceCommand:
    def test_reduce_writes_parseable_hamiltonian(self, files, capsys):
        target = files["dir"] / "clock.txt"
        code, out, err = run_cli(
            ["reduce", files["x"], "--out", str(target)], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "lhes-copy"
        assert report["out"] == str(target)
        assert report["legal_clock_states"] == ["100", "010", "001"]
        assert report["hamiltonian_qubits"] == 5
        written = parse_hamiltonian(target.read_text())
        assert written.qubit_count == 5
        assert all(len(t.support) <= 4 for t in written.terms)

    def test_reflect_kind_has_no_flag(self, files, capsys):
        target = files["dir"] / "reflect.txt"
        code, out, err = run_cli(
            ["reduce", files["x"], "--kind", "pe-reflect", "--out", str(target)],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "pe-reflect"
        assert "flag_qubit" not in report

    def test_wide_base_needs_no_dense_propagator(self, files, capsys):
        # 8 system qubits x 41 clock steps would be a 10496-dim propagator
        base = files["dir"] / "base7.txt"
        base.write_text(serialize_circuit(random_circuit(7, 20, np.random.default_rng(3))))
        target = files["dir"] / "clock7.txt"
        code, out, err = run_cli(["reduce", str(base), "--out", str(target)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["clock_dim"] == 41
        assert report["system_qubits"] == 8
        assert report["hamiltonian_qubits"] == 49
        assert parse_hamiltonian(target.read_text()).qubit_count == 49


class TestDecideCommand:
    def test_exact_accept_across_seeds(self, files, capsys):
        for seed in range(10):
            code, out, err = run_cli(
                [
                    "decide", files["x"], "--x", "0",
                    "--route", "lhes", "--oracle", "exact", "--seed", str(seed),
                ],
                capsys,
            )
            assert code == 0
            report = json.loads(out)
            assert report["accept"] is True
            assert report["epsilon"] == 1.0 / 12.0

    def test_exact_reject(self, files, capsys):
        code, out, err = run_cli(
            ["decide", files["ident"], "--x", "0", "--route", "pes"], capsys
        )
        report = json.loads(out)
        assert report["accept"] is False
        assert report["route"] == "pes"
        assert report["oracle"] == "exact"

    def test_average_route_signs(self, files, capsys):
        _, out, _ = run_cli(
            ["decide", files["x"], "--x", "0", "--route", "luae"], capsys
        )
        assert json.loads(out)["accept"] is True
        _, out, _ = run_cli(
            ["decide", files["ident"], "--x", "0", "--route", "luae"], capsys
        )
        assert json.loads(out)["accept"] is False

    @pytest.mark.parametrize("route", ["lhes", "pes", "luae"])
    def test_huge_register_refused_before_x_is_padded(self, route, files, capsys):
        # padding x to the declared 10^8 qubits took 3-4 s before the width
        # check; the marked width is now compared with the cap first
        path = files["dir"] / "huge.txt"
        path.write_text("qubits 100000000\nh 0\n")
        start = time.perf_counter()
        code, out, err = run_cli(["decide", str(path), "--x", "0", "--route", route], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "TooLarge"

    def test_oracle_failure_exit_code(self, files, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise OracleFailure("no usable draws")

        monkeypatch.setattr(cli_module, "decide_via_lhes", explode)
        code, out, err = run_cli(
            ["decide", files["x"], "--x", "0", "--route", "lhes"], capsys
        )
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "OracleFailure"
        assert payload["exit_code"] == 3

    def test_report_reads_the_request_of_a_replaced_oracle(self, files, capsys, monkeypatch):
        # the factory is looked up on cli at each call, and the report's
        # epsilon and delta are those the decider asks its oracle for
        seen = []

        def spy(circuit, req):
            seen.append(req)
            return exact_pes_oracle(circuit, req)

        monkeypatch.setattr(cli_module, "quantum_pes_oracle", spy)
        argv = ["decide", files["x"], "--x", "0", "--route", "pes", "--oracle", "quantum"]
        code, out, _ = run_cli(argv, capsys)
        [req] = seen
        report = json.loads(out)
        assert code == 0 and report["accept"] is True
        assert (report["epsilon"], report["delta"]) == (req.epsilon, req.delta) == (0.125, 0.01)

    def test_quantum_lhes_on_a_wide_base_fails_fast(self, files, capsys):
        # 45 gates: a 91-step clock needs t = 25 ancilla bits, one above the
        # cap; the refusal comes before any law is built and names the base
        base = files["dir"] / "base45.txt"
        base.write_text(serialize_circuit(random_circuit(1, 45, np.random.default_rng(8))))
        argv = ["decide", str(base), "--x", "0", "--route", "lhes", "--oracle", "quantum"]
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "TooLarge"
        assert "45-gate base" in payload["message"]

    def test_quantum_lhes_on_a_five_qubit_base(self, files, capsys):
        # W has 6 qubits and a 41-step clock, far beyond the one-hot clock's
        # 47 qubits; the law lives on two 41-site clock rings.  No gate after
        # "x 0" touches qubit 0, so the answer is definite
        path = files["dir"] / "base5.txt"
        for head, expected in (("x 0\n", True), ("", False)):
            path.write_text("qubits 5\n" + head + FIVE_QUBIT_GATES)
            argv = ["decide", str(path), "--x", "00000", "--route", "lhes", "--oracle", "quantum"]
            start = time.perf_counter()
            code, out, err = run_cli(argv, capsys)
            assert time.perf_counter() - start < 10.0
            assert code == 0
            assert json.loads(out)["accept"] is expected

    def test_exact_lhes_on_a_five_qubit_base(self, files, capsys):
        # the compact clock matrix would be 2624-dim (6 system qubits x 41
        # clock steps); the law comes from one amplitude of the marked circuit.
        # No gate after "x 0" touches qubit 0, so the answer is definite
        path = files["dir"] / "base5.txt"
        for head, expected in (("x 0\n", True), ("", False)):
            path.write_text("qubits 5\n" + head + FIVE_QUBIT_GATES)
            argv = ["decide", str(path), "--x", "00000", "--route", "lhes", "--oracle", "exact"]
            start = time.perf_counter()
            code, out, err = run_cli(argv, capsys)
            assert time.perf_counter() - start < 2.0
            assert code == 0
            assert json.loads(out)["accept"] is expected

    def test_size_limit_exit_code(self, files, capsys):
        # lhes-copy adds a flag qubit, so a 24-qubit base marks to 25 qubits
        # of W; pes and luae mark a 25-qubit base on its own 25.  Each exits
        # before allocating and names the base's own width
        for width, routes in ((24, ("lhes",)), (25, ("pes", "luae"))):
            path = files["dir"] / f"wide{width}.txt"
            path.write_text(f"qubits {width}\nh 0\n")
            for route in routes:
                for oracle in ("exact", "quantum"):
                    argv = ["decide", str(path), "--x", "0", "--route", route, "--oracle", oracle]
                    start = time.perf_counter()
                    code, out, err = run_cli(argv, capsys)
                    assert time.perf_counter() - start < 1.0
                    assert code == 2
                    payload = json.loads(err)
                    assert payload["error"] == "TooLarge"
                    assert f"{width}-qubit base" in payload["message"]
        # the 13-qubit base whose one-hot clock (17 qubits) used to exit 2
        # now decides on the quantum oracle too
        code, out, err = run_cli(
            ["decide", files["wide"], "--x", "0", "--route", "lhes", "--oracle", "quantum"],
            capsys,
        )
        assert code == 0

    def test_connected_sixteen_qubit_base(self, files, capsys):
        # W has 16 (pes) or 17 (lhes) qubits, beyond any dense eigensolve;
        # each law is one statevector pass.  Qubit 0 is only ever a control
        # after "x 0", so the answer is definite
        gates = "".join(f"h {q}\n" for q in range(1, 16))
        gates += "".join(f"cnot {q} {q + 1}\n" for q in range(15))
        path = files["dir"] / "base16.txt"
        for head, expected in (("x 0\n", True), ("", False)):
            path.write_text("qubits 16\n" + head + gates)
            for route, oracle in (("pes", "exact"), ("pes", "quantum"), ("lhes", "exact")):
                argv = ["decide", str(path), "--x", "0", "--route", route, "--oracle", oracle]
                start = time.perf_counter()
                code, out, err = run_cli(argv, capsys)
                assert time.perf_counter() - start < 3.0
                assert code == 0
                assert json.loads(out)["accept"] is expected


class TestVerifyCommand:
    def write_samples(self, files, payload):
        path = files["dir"] / "samples.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_feasible_sample_set(self, files, capsys):
        samples = self.write_samples(
            files, {"samples": [0.0] * 503 + [0.5] * 497, "epsilon": 0, "delta": 0}
        )
        code, out, err = run_cli(
            ["verify", files["x"], samples, "--b", "0"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is True
        assert report["slack"] == pytest.approx(
            3.0 * math.sqrt(math.log(2.0) / 1000.0), abs=1e-12
        )
        # every widened demand is met, so the flow is the demand total
        assert report["flow"] == pytest.approx(1.0 - report["slack"], abs=1e-9)

    def test_missing_mode_is_infeasible(self, files, capsys):
        samples = self.write_samples(
            files, {"samples": [0.0] * 1000, "epsilon": 0, "delta": 0}
        )
        code, out, err = run_cli(
            ["verify", files["x"], samples, "--b", "0"], capsys
        )
        assert code == 0
        assert json.loads(out)["feasible"] is False

    def test_malformed_json(self, files, capsys):
        path = files["dir"] / "broken.json"
        path.write_text("{not json")
        code, out, err = run_cli(
            ["verify", files["x"], str(path), "--b", "0"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    def test_missing_keys(self, files, capsys):
        samples = self.write_samples(files, {"samples": [0.0] * 1000})
        code, out, err = run_cli(
            ["verify", files["x"], samples, "--b", "0"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    # 999 valid samples and one bad one, so only the bad value can fail it
    @pytest.mark.parametrize("samples, epsilon, delta", [
        ("5", "0", "0"),
        ("null", "0", "0"),
        ("[0.5]", "NaN", "0"),
        ("[0.5]", "0", "Infinity"),
        ("[0.5, NaN]", "0", "0"),
        ("[0.5, -Infinity]", "0", "0"),
        ("[0.5, true]", "0", "0"),
        ('[0.5, "0.5"]', "0", "0"),
        ("[0.5, 1e999999]", "0", "0"),
    ], ids=["int", "null", "nan-epsilon", "inf-delta", "nan-sample", "inf-sample",
            "bool-sample", "string-sample", "overflow-sample"])
    def test_samples_file_must_hold_finite_numbers(self, files, capsys, samples, epsilon, delta):
        if samples.startswith("["):
            samples = "[" + "0.0, " * 999 + samples[1:]
        path = files["dir"] / "samples.json"
        path.write_text(f'{{"samples": {samples}, "epsilon": {epsilon}, "delta": {delta}}}')
        code, out, err = run_cli(["verify", files["x"], str(path), "--b", "0"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "UsageError"

    def test_integer_beyond_the_float_range_is_refused(self, files, capsys):
        # JSON keeps 10^400 an integer, which no float can hold
        samples = self.write_samples(
            files, {"samples": [0.0] * 999 + [10**400], "epsilon": 0, "delta": 0}
        )
        code, out, err = run_cli(["verify", files["x"], samples, "--b", "0"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "UsageError"

    def test_size_checked_after_samples_file(self, files, capsys):
        # a valid samples file against a too-wide circuit is a size failure;
        # a broken one fails as usage first, whatever the circuit's width
        samples = self.write_samples(
            files, {"samples": [0.0] * 1000, "epsilon": 0, "delta": 0}
        )
        code, out, err = run_cli(["verify", files["wide"], samples, "--b", "0" * 13], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "TooLarge"
        broken = files["dir"] / "broken.json"
        broken.write_text("{not json")
        code, out, err = run_cli(["verify", files["wide"], str(broken), "--b", "0" * 13], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    @pytest.mark.parametrize("name, b", [("bell", "0"), ("zxham", "")])
    def test_short_reference_point_after_samples_file(self, name, b, files, capsys):
        samples = self.write_samples(
            files, {"samples": [0.0] * 1000, "epsilon": 0, "delta": 0}
        )
        code, out, err = run_cli(["verify", files[name], samples, "--b", b], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "DimensionMismatch"
        broken = files["dir"] / "broken.json"
        broken.write_text("{not json")
        code, out, err = run_cli(["verify", files[name], str(broken), "--b", b], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    @pytest.mark.parametrize("delta, code", [(-0.05, 1), (1.5, 1), (0.0, 0), (1.0, 0)])
    def test_delta_checked_before_the_slack_widens_it(self, files, capsys, delta, code):
        # out-of-range values that the slack of 1000 samples (0.083) would
        # widen back into [0, 1] or clamp to 1, and both ends of the range
        samples = self.write_samples(
            files, {"samples": [0.0] * 503 + [0.5] * 497, "epsilon": 0.1, "delta": delta}
        )
        got, out, err = run_cli(["verify", files["x"], samples, "--b", "0"], capsys)
        assert got == code
        if code:
            assert out == "" and err.count("\n") == 1
            assert json.loads(err) == {
                "error": "ValueError", "message": "delta must lie in [0, 1]", "exit_code": 1,
            }
        else:
            assert (err, json.loads(out)["delta"]) == ("", delta)

    def test_sample_floor(self, files, capsys):
        samples = self.write_samples(
            files, {"samples": [0.0] * 10, "epsilon": 0, "delta": 0}
        )
        code, out, err = run_cli(
            ["verify", files["x"], samples, "--b", "0"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"


class TestLabelWidth:
    """Every command checks its basis label with BasisLabel.check_width."""

    FLAGS = {
        "pes": ["--epsilon", "0.25", "--delta", "0.1"],
        "lhes": ["--epsilon", "0.4", "--delta", "0.1"],
        "luae": ["--epsilon", "0.5", "--delta", "0.1"],
        "spectrum": [],
        "verify": [],
        "trotter-bench": ["--m", "2"],
    }
    CASES = [
        (command, name, bits)
        for command, name in [
            ("pes", "bell"), ("lhes", "zham2"), ("luae", "bell"), ("spectrum", "bell"),
            ("spectrum", "zham2"), ("verify", "bell"), ("verify", "zham2"),
        ]
        for bits in ("0", "000")
    ]

    def run_command(self, command, name, b, files, capsys):
        """command on files[name], with a samples file for verify and no
        --b where b is None."""
        samples = files["dir"] / "samples.json"
        samples.write_text('{"samples": [0.0], "epsilon": 0.1, "delta": 0.1}')
        paths = [files[name]] + ([str(samples)] if command == "verify" else [])
        flags = self.FLAGS[command] + ([] if b is None else ["--b", b])
        return run_cli([command, *paths, *flags], capsys)

    @pytest.mark.parametrize("command, name, bits", CASES)
    def test_wrong_b_is_refused(self, command, name, bits, files, capsys):
        code, out, err = self.run_command(command, name, bits, files, capsys)
        assert code == 2
        assert out == ""
        register = "Hamiltonian" if name == "zham2" else "circuit"
        payload = json.loads(err)
        assert payload["error"] == "DimensionMismatch"
        assert payload["message"] == f"b has {len(bits)} bits, {register} acts on 2"

    @pytest.mark.parametrize("oracle", ["exact", "quantum"])
    @pytest.mark.parametrize("route", ["lhes", "pes", "luae"])
    def test_long_x_is_refused(self, route, oracle, files, capsys):
        # a short x is padded with zeros; a long one cannot be
        argv = ["decide", files["bell"], "--x", "000", "--route", route, "--oracle", oracle]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "DimensionMismatch"
        assert payload["message"] == "x has 3 bits, base circuit acts on 2"

    @pytest.mark.parametrize("command", ["lhes", "spectrum", "verify", "trotter-bench"])
    def test_dense_cap_names_the_hamiltonian(self, command, files, capsys):
        b = None if command == "trotter-bench" else "0" * 13
        code, out, err = self.run_command(command, "wideham", b, files, capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "TooLarge"
        assert payload["message"] == "dense matrices limited to 12 qubits, Hamiltonian has 13"


class TestTrotterBenchCommand:
    @pytest.mark.parametrize("argv", [
        ["lhes", "--epsilon", "0.1", "--delta", "0.1", "--b", "0"], ["trotter-bench"],
    ])
    def test_all_zero_hamiltonian_is_named(self, argv, files, capsys):
        # a zero scale cap turned every term into NaNs, with a RuntimeWarning
        # and a NotHermitian failure
        path = files["dir"] / "zero.txt"
        path.write_text("qubits 1\nterm 1 0 0 0 0 0 0 0 0 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "EmptyHamiltonian"
        assert "every term is zero" in payload["message"]

    def test_halving_table(self, files, capsys):
        code, out, err = run_cli(
            ["trotter-bench", files["zxham"], "--m", "8,16"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,deviation,ratio"
        assert len(lines) == 3
        m8 = lines[1].split(",")
        m16 = lines[2].split(",")
        assert m8[0] == "8" and m16[0] == "16"
        assert float(m8[1]) > float(m16[1]) > 0.0
        # first-order splitting: error halves when steps double
        assert 1.6 <= float(m8[2]) <= 2.4
        assert m16[2] == ""

    def test_bad_step_list(self, files, capsys):
        code, out, err = run_cli(
            ["trotter-bench", files["zxham"], "--m", "8,sixteen"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    def test_nonpositive_steps(self, files, capsys):
        code, out, err = run_cli(
            ["trotter-bench", files["zxham"], "--m", "0"], capsys
        )
        assert code == 1


class TestUsageErrors:
    # argv with file names from the `files` fixture, each writing to --out
    WRITERS = {
        "check": ("check", "bell"),
        "pes": ("pes", "bell", "--epsilon", "0.125", "--delta", "0.1", "--b", "00"),
        "trotter-bench": ("trotter-bench", "zham", "--m", "4,8"),
        "reduce": ("reduce", "x"),
    }

    @pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS.keys())
    def test_out_in_a_missing_directory(self, argv, files, capsys):
        target = files["dir"] / "missing" / "report.json"
        code, out, err = run_cli([files.get(arg, arg) for arg in argv] + ["--out", str(target)],
                                 capsys)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "UsageError"
        assert payload["message"].startswith(f"cannot write {target}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [WRITERS["check"], WRITERS["trotter-bench"]],
                             ids=["check", "trotter-bench"])
    @pytest.mark.parametrize("to_stdout", [True, False], ids=["stdout", "out"])
    def test_full_device(self, argv, to_stdout, files):
        argv = [files.get(arg, arg) for arg in argv]
        # a buffered stdout holds the report until the flush, so the
        # interpreter must not flush it again at exit
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "eigensample", *argv,
                 *([] if to_stdout else ["--out", "/dev/full"])],
                env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        payload = json.loads(proc.stderr)  # one JSON line, no traceback
        assert payload["error"] == "UsageError"
        target = "stdout" if to_stdout else "/dev/full"
        assert payload["message"].startswith(f"cannot write {target}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["pes", "--help"]],
                             ids=["version", "help", "pes-help"])
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_help_and_version_on_a_full_device(self, argv, buffered):
        env = cli_env()
        if buffered:
            env.pop("PYTHONUNBUFFERED", None)
        else:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "eigensample", *argv],
                                  env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        payload = json.loads(proc.stderr)
        assert payload["error"] == "UsageError"
        assert payload["message"].startswith("cannot write stdout: ")

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["pes", "--help"]],
                             ids=["version", "help", "pes-help"])
    def test_help_and_version_exit_zero(self, argv, capsys):
        proc = subprocess.run([sys.executable, "-m", "eigensample", *argv], env=cli_env(),
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("eigensample 0." if argv == ["--version"] else "usage: ")
        # in-process, main returns argparse's status; only run raises SystemExit
        assert run_cli(argv, capsys) == (0, proc.stdout, "")

    def test_unknown_flag(self, files, capsys):
        code, out, err = run_cli(["check", files["x"], "--bogus"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    def test_unknown_command(self, capsys):
        code, out, err = run_cli(["frobnicate"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"


# Prints the interpreter's permanent-generation count from an atexit hook.
_FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}\\n'))\n"
)


class TestEntryPoint:
    """`run` is `main` plus a frozen heap at exit."""

    # argv with file names from the `files` fixture, and main's exit code
    CASES = {
        "ok": (("check", "bell"), 0),
        "parse": (("check", "missing"), 1),
        "size": (("spectrum", "bell", "--b", "0"), 2),
    }

    @pytest.mark.parametrize("argv, expected", CASES.values(), ids=CASES.keys())
    def test_module_run_freezes_and_keeps_exit_codes(self, argv, expected, files, tmp_path,
                                                     capsys):
        argv = [files.get(arg, str(tmp_path / arg) if arg == "missing" else arg) for arg in argv]
        probe = tmp_path / "probe"
        probe.mkdir()
        (probe / "sitecustomize.py").write_text(_FREEZE_PROBE)
        proc = subprocess.run([sys.executable, "-m", "eigensample", *argv],
                              env=cli_env(str(probe)), capture_output=True, text=True)
        code, out, err = run_cli(argv, capsys)
        assert proc.returncode == code == expected
        assert proc.stdout == out
        *failure, probe_line = proc.stderr.splitlines()
        assert failure == err.splitlines()
        assert int(probe_line.removeprefix("frozen ")) > 0

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_run_exits_with_mains_code_and_freezes_after_it(self, code, monkeypatch):
        calls = []

        def fake_main(argv=None):
            calls.append(("main", argv))
            return code

        monkeypatch.setattr(cli_module, "main", fake_main)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(("freeze",)))
        with pytest.raises(SystemExit) as exit_info:
            cli_module.run(["check", "x.txt"])
        assert exit_info.value.code == code
        assert calls == [("main", ["check", "x.txt"]), ("freeze",)]


# One CLI run in a fresh interpreter that prints its own high-water RSS.
# VmHWM counts only this process image; a child's ru_maxrss would also count
# the parent's pages at the fork.
_PEAK_RUN = (
    "import sys; from eigensample.cli import main; code = main(sys.argv[1:]); "
    "print(open('/proc/self/status').read()); sys.exit(code)"
)


def child_peak_mib(argv):
    """Peak RSS of `eigensample <argv>` in its own process, one BLAS thread."""
    status = subprocess.run([sys.executable, "-c", _PEAK_RUN, *argv], env=cli_env(),
                            capture_output=True, text=True, check=True).stdout
    return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_spectrum_keeps_one_dense_matrix_besides_eigh(tmp_path):
    def spectrum_above_check(circuit):
        path = tmp_path / "wide.txt"
        path.write_text(serialize_circuit(circuit))
        check = child_peak_mib(["check", str(path), "--out", str(tmp_path / "check.json")])
        spectrum = child_peak_mib(["spectrum", str(path), "--b", "0" * 10,
                                   "--out", str(tmp_path / "spectrum.json")])
        return spectrum - check

    rng = np.random.default_rng(10)
    # a connected 10-qubit law holds its unitary's Hermitian part and eigh's
    # four buffers, 16 MiB each: 5 matrices above a `check` of the same file
    # (6.3 when the law also kept U and a separate Hermitian part)
    chain = [named_gate("cnot", q, q + 1) for q in range(9)]
    assert spectrum_above_check(Circuit(10, chain + random_circuit(10, 40, rng).gates)) < 5.6 * 16
    # split into groups of at most 4 qubits, it holds no 10-qubit matrix
    split = grouped_circuit(10, ((0, 5, 9), (1, 2), (3, 4, 7, 8), (6,)), 40, rng)
    assert spectrum_above_check(split) < 0.5 * 16


# One CLI run in a fresh interpreter that prints the modules it loaded.
_FOOTPRINT_RUN = (
    "import json, sys; from eigensample.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps(sorted(sys.modules))); sys.exit(code)"
)
HEAVY = {"reductions", "hamiltonians", "averages"}
# argv, with file names from the `files` fixture, and the modules it must not load
FOOTPRINTS = {
    "check": (("check", "bell"), HEAVY | {"distributions", "phase_estimation", "seeding"}),
    "spectrum": (("spectrum", "bell", "--b", "00"), HEAVY),
    "pes": (("pes", "bell", "--epsilon", "0.125", "--delta", "0.1", "--b", "00",
             "--samples", "5"), HEAVY),
    "verify": (("verify", "bell", "samples", "--b", "00"), HEAVY),
    "lhes": (("lhes", "zham", "--epsilon", "0.4", "--delta", "0.1", "--b", "1",
              "--samples", "5"), {"reductions", "averages"}),
    "luae": (("luae", "x", "--epsilon", "0.2", "--delta", "0.1", "--b", "0"),
             {"reductions", "hamiltonians"}),
    "luae-u": (("luae-u", "x", "--epsilon", "0.2", "--delta", "0.1"),
               {"reductions", "hamiltonians"}),
    **{f"decide-{route}-{oracle}": (
        ("decide", "x", "--x", "0", "--route", route, "--oracle", oracle), set())
       for route in ("lhes", "pes", "luae") for oracle in ("exact", "quantum")},
}


def modules_after(code: str, *args) -> set[str]:
    """sys.modules after `code`, which prints them as JSON, runs in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(eigensample.__file__).parents[1]))
    stdout = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, check=True).stdout
    return set(json.loads(stdout))


def loaded_modules(argv, tmp_path) -> set[str]:
    return modules_after(_FOOTPRINT_RUN, *argv, "--out", str(tmp_path / "report.json"))


def package_modules(modules: set[str]) -> set[str]:
    return {m.removeprefix("eigensample.") for m in modules if m.startswith("eigensample.")}


@pytest.fixture(scope="module")
def numpy_loads_its_random():
    """numpy before 2.0 imports numpy.random along with numpy itself."""
    code = "import json, sys, numpy; print(json.dumps('numpy.random' in sys.modules))"
    return json.loads(subprocess.check_output([sys.executable, "-c", code]))


class TestImportFootprint:
    """Each command loads only the modules it runs, and none loads
    numpy.random."""

    def test_package_import_loads_no_submodule(self):
        code = "import json, sys, eigensample; print(json.dumps(sorted(sys.modules)))"
        assert not package_modules(modules_after(code))
        for name in eigensample.__all__:  # each resolves on first use
            getattr(eigensample, name)

    @pytest.mark.parametrize("argv, absent", FOOTPRINTS.values(), ids=FOOTPRINTS.keys())
    def test_loads_only_what_it_runs(self, argv, absent, files, tmp_path, numpy_loads_its_random):
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps({"samples": [0.0, 0.5] * 500, "epsilon": 0.1, "delta": 0.1}))
        paths = dict(files, samples=str(samples))
        modules = loaded_modules([paths.get(arg, arg) for arg in argv], tmp_path)
        ours = package_modules(modules)
        assert "cli" in ours and not ours & absent
        if argv[0] == "check":
            assert ours == {"cli", "circuits", "linalg", "errors"}
        assert numpy_loads_its_random or "numpy.random" not in modules
