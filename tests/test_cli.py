import json
import math

import numpy as np
import pytest

from slspec import (
    GridFunction,
    read_data_json,
    read_sigma_csv,
    write_data_json,
    write_sigma_csv,
)
from slspec.cli import main

from conftest import (
    base_data,
    linear_sigma,
    margin_crossing_data,
    nodes,
    step_sigma,
    zero_sigma,
)

PI = math.pi

# The flags each subcommand reads besides --input/--output; every other flag
# must be refused with exit status 3.
READS = {
    "validate": (),
    "direct": ("--count", "--kind", "--h", "--shift"),
    "inverse": ("--grid", "--shift", "--dump-kernel"),
    "roundtrip": ("--grid", "--count", "--kind", "--h", "--shift"),
    "isospectral": ("--grid", "--count", "--shift"),
    "stability": ("--grid", "--shift", "--seed", "--eps"),
    "riesz": ("--shift",),
}
# Values that make every own-flag run below admissible: sigma = x shifted by
# 0.5*x is the NT oracle with h = 1.5.
FLAG_VALUES = {
    "--grid": "32", "--count": "4", "--kind": "NT", "--h": "1.5",
    "--shift": "0.5", "--seed": "1", "--eps": "0.01", "--dump-kernel": "kernel.csv",
}
UNREAD = [
    pytest.param(cmd, flag, id=f"{cmd}:{flag[2:]}")
    for cmd, own in READS.items()
    for flag in FLAG_VALUES
    if flag not in own
] + [
    pytest.param("riesz", "--output", id="riesz:output"),  # riesz prints to stdout
    pytest.param("riesz", "--nope", id="riesz:nope"),
]

# Input files that must exit 3 with one "error: io:" line: (command, file
# name, contents). Each entry is broken in one way only.
_GOOD_CSV = "".join(f"{i / 16!r},0.0\n" for i in range(17))
_NT = '"kind": "NT", "lambda": [1.0, 3.3], "alpha": [2.0, 1.0]'
MALFORMED = [
    pytest.param("inverse", "data.json", '{%s, "h": "abc"}' % _NT, id="h-string"),
    pytest.param("inverse", "data.json", '{%s, "h": [1]}' % _NT, id="h-list"),
    pytest.param("inverse", "data.json", '{%s, "h": 1%s}' % (_NT, "0" * 400),
                 id="h-overflow"),
    pytest.param("inverse", "data.json",
                 '{"kind": "DD", "lambda": ["a", 6.3], "alpha": [1, 1]}',
                 id="lambda-string"),
    pytest.param("inverse", "data.json",
                 '{"kind": "DD", "lambda": [1%s], "alpha": [1]}' % ("0" * 5000),
                 id="lambda-too-long"),
    pytest.param("inverse", "data.json",
                 '{"kind": "DD", "lambda": ["3.2", 6.3], "alpha": [1, 1]}',
                 id="lambda-numeric-string"),
    pytest.param("inverse", "data.json",
                 '{"kind": "DD", "lambda": [3.2, 6.3], "alpha": [true, 1]}',
                 id="alpha-bool"),
    pytest.param("inverse", "data.json", '{%s, "h": "1.5"}' % _NT,
                 id="h-numeric-string"),
    pytest.param("inverse", "data.json",
                 '{"kind": "DD", "lambda": [3.2, 6.3], "alpha": [1, 1], "h": 1.5}',
                 id="h-on-DD"),
    pytest.param("inverse", "data.json", '{%s, "note": "\u00e9"}' % _NT,
                 id="json-non-ascii"),
    pytest.param("direct", "sigma.csv", "x,sigma\n" + _GOOD_CSV + "# \u00e9\n",
                 id="csv-non-ascii"),
    pytest.param("direct", "sigma.csv",
                 "x,sigma\n" + _GOOD_CSV.replace("0.0625,", "nan,"), id="csv-nan-x"),
]


def write_inputs(tmp_path, *, sigma=None, data=None):
    paths = {}
    if sigma is not None:
        paths["sigma"] = tmp_path / "sigma.csv"
        write_sigma_csv(paths["sigma"], sigma)
    if data is not None:
        paths["data"] = tmp_path / "data.json"
        write_data_json(paths["data"], data)
    return paths


def run_with_flags(tmp_path, command, flags):
    """Run ``command`` on small valid inputs (``sigma.csv``, ``data.json``)
    with ``flags`` set to FLAG_VALUES; output paths go into ``tmp_path``."""
    p = write_inputs(tmp_path, sigma=linear_sigma(1.0), data=base_data(K=8))
    source = p["sigma"] if command in ("direct", "roundtrip") else p["data"]
    argv = [command, "--input", str(source)]
    if command != "riesz":
        argv += ["--output", str(tmp_path / "out")]
    for flag in flags:
        value = FLAG_VALUES.get(flag, "1")
        if flag in ("--dump-kernel", "--output"):
            value = str(tmp_path / value)
        argv += [flag, value]
    return main(argv)


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        p = write_inputs(tmp_path, data=base_data(K=8))
        out = tmp_path / "report.json"
        assert main(["validate", "--input", str(p["data"]), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True

    def test_duplicate_lambda_exits_1(self, tmp_path, capsys):
        obj = {"kind": "DD", "lambda": [PI, PI, 3 * PI], "alpha": [1, 1, 1]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = main(["validate", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "A1" in captured.err
        assert captured.err.count("\n") == 1  # one machine-parsable line


class TestDirectCommand:
    def test_constant_potential(self, tmp_path):
        p = write_inputs(tmp_path, sigma=linear_sigma(2.0))
        out = tmp_path / "data.json"
        code = main([
            "direct", "--input", str(p["sigma"]), "--output", str(out),
            "--count", "4", "--kind", "DD",
        ])
        assert code == 0
        data = read_data_json(out)
        assert data.lam[0] == pytest.approx(3.44523, abs=1e-5)
        assert data.alpha[0] == pytest.approx(1.20264, abs=1e-5)

    def test_shift_flag_adds_cx(self, tmp_path):
        p = write_inputs(tmp_path, sigma=zero_sigma())
        out = tmp_path / "data.json"
        assert main([
            "direct", "--input", str(p["sigma"]), "--output", str(out),
            "--count", "3", "--shift", "2",
        ]) == 0
        data = read_data_json(out)
        truth = np.sqrt(PI**2 * np.arange(1, 4) ** 2 + 2)
        assert np.max(np.abs(data.lam - truth)) <= 1e-8

    def test_neumann_kind_with_h(self, tmp_path):
        p = write_inputs(tmp_path, sigma=linear_sigma(1.0))
        out = tmp_path / "nt.json"
        assert main([
            "direct", "--input", str(p["sigma"]), "--output", str(out),
            "--count", "3", "--kind", "NT", "--h", "1.0",
        ]) == 0
        data = read_data_json(out)
        assert data.h == 1.0
        assert data.lam[0] == pytest.approx(1.0, abs=1e-9)
        assert data.alpha[0] == pytest.approx(2.0, abs=1e-9)

    def test_close_pair_exits_2(self, tmp_path, capsys):
        # a double well whose lambda_1 and lambda_2 share a scan step; it
        # used to exit 0 with lambda_3..lambda_6
        sig = GridFunction(1e3 * np.clip(nodes(1024) - 0.45, 0.0, 0.1))
        p = write_inputs(tmp_path, sigma=sig)
        out = tmp_path / "data.json"
        code = main(["direct", "--input", str(p["sigma"]), "--output", str(out),
                     "--count", "4", "--kind", "DD"])
        assert code == 2
        assert "share a scan step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["DD", "ND"])
    def test_h_on_kind_without_third_type_exits_3(self, tmp_path, capsys, kind):
        # DD/ND never read h: a run with it would only look like it used it
        p = write_inputs(tmp_path, sigma=linear_sigma(2.0))
        out = tmp_path / "data.json"
        assert main(["direct", "--input", str(p["sigma"]), "--output", str(out),
                     "--count", "2", "--kind", kind, "--h", "5"]) == 3
        assert capsys.readouterr().err.startswith("error: io:")
        assert not out.exists()

    def test_bad_csv_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,sigma\n0.0,zero\n")
        assert main(["direct", "--input", str(path), "--output",
                     str(tmp_path / "o.json"), "--count", "2"]) == 3
        assert capsys.readouterr().err.startswith("error: io:")

    def test_missing_file_exits_3(self, tmp_path):
        assert main(["direct", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "o.json")]) == 3


class TestMalformedFiles:
    @pytest.mark.parametrize("command, name, text", MALFORMED)
    def test_malformed_file_exits_3(self, tmp_path, capsys, command, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        assert main([command, "--input", str(path), "--output",
                     str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: io:") and err.count("\n") == 1
        assert [f.name for f in tmp_path.iterdir()] == [name]


class TestInverseCommand:
    def test_base_data(self, tmp_path):
        p = write_inputs(tmp_path, data=base_data())
        out = tmp_path / "sigma.csv"
        assert main(["inverse", "--input", str(p["data"]), "--output", str(out)]) == 0
        sigma = read_sigma_csv(out)
        assert np.max(np.abs(sigma.values)) <= 1e-12
        diag = json.loads((tmp_path / "sigma.json").read_text())
        assert diag["positivity_margin"] == pytest.approx(1.0, abs=1e-12)
        assert diag["sigma_csv"] == "sigma.csv"

    def test_validation_failure_exits_1(self, tmp_path, capsys):
        obj = {"kind": "DD", "lambda": [PI, PI, 3 * PI], "alpha": [1, 1, 1]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "sigma.csv"
        assert main(["inverse", "--input", str(path), "--output", str(out)]) == 1
        assert "A1" in capsys.readouterr().err
        assert not out.exists()

    def test_margin_crossing_exits_2_no_sigma_file(self, tmp_path, capsys):
        p = write_inputs(tmp_path, data=margin_crossing_data())
        out = tmp_path / "sigma.csv"
        code = main(["inverse", "--input", str(p["data"]), "--output", str(out),
                     "--grid", "16"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: numerical:")
        assert not out.exists()

    def test_kernel_dump(self, tmp_path):
        p = write_inputs(tmp_path, data=base_data(K=4))
        out = tmp_path / "s.csv"
        ker = tmp_path / "kernel.csv"
        assert main(["inverse", "--input", str(p["data"]), "--output", str(out),
                     "--grid", "16", "--dump-kernel", str(ker)]) == 0
        lines = ker.read_text().splitlines()
        assert lines[0] == "i,j,k"
        assert len(lines) == 1 + 17 * 18 // 2

    def test_grid_out_of_range_exits_3(self, tmp_path):
        p = write_inputs(tmp_path, data=base_data(K=4))
        assert main(["inverse", "--input", str(p["data"]),
                     "--output", str(tmp_path / "s.csv"), "--grid", "8"]) == 3


class TestOtherCommands:
    def test_roundtrip(self, tmp_path):
        p = write_inputs(tmp_path, sigma=zero_sigma())
        out = tmp_path / "report.json"
        assert main(["roundtrip", "--input", str(p["sigma"]), "--output", str(out),
                     "--count", "8"]) == 0
        report = json.loads(out.read_text())
        assert report["l2_error"] <= 1e-10
        assert len(report["sigma_out"]) == 257

    def test_isospectral(self, tmp_path):
        alpha = np.ones(10)
        alpha[0] = 1.25
        from slspec import BoundaryKind, SpectralData

        data = SpectralData(BoundaryKind.DD, PI * np.arange(1, 11), alpha)
        p = write_inputs(tmp_path, data=data)
        out = tmp_path / "member.csv"
        assert main(["isospectral", "--input", str(p["data"]),
                     "--output", str(out)]) == 0
        report = json.loads((tmp_path / "member.json").read_text())
        assert report["max_replay_error"] <= 1e-3
        assert read_sigma_csv(out).M == 256

    def test_stability_table(self, tmp_path):
        p = write_inputs(tmp_path, data=base_data(K=16))
        out = tmp_path / "table.csv"
        assert main(["stability", "--input", str(p["data"]), "--output", str(out),
                     "--eps", "0.001,0.01", "--seed", "0"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps,data_norm,sigma_error"
        assert len(lines) == 3
        for line in lines[1:]:
            eps, data_norm, _ = line.split(",")
            assert data_norm == eps

    def test_riesz_stdout(self, tmp_path, capsys):
        p = write_inputs(tmp_path, data=base_data(K=16))
        assert main(["riesz", "--input", str(p["data"])]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unknown_flag_exits_3(self, tmp_path, capsys, command, flag):
        assert run_with_flags(tmp_path, command, [flag]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: io:") and err.count("\n") == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["data.json", "sigma.csv"]

    @pytest.mark.parametrize("command", READS)
    def test_own_flags_accepted(self, tmp_path, capsys, command):
        assert run_with_flags(tmp_path, command, READS[command]) == 0
        assert (tmp_path / "out").exists() == (command != "riesz")


class TestDeterminismAndRereadability:
    def test_direct_byte_identical(self, tmp_path):
        p = write_inputs(tmp_path, sigma=step_sigma())
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["direct", "--input", str(p["sigma"]), "--output", str(out),
                         "--count", "8"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_inverse_byte_identical(self, tmp_path):
        from conftest import const_potential_data

        p = write_inputs(tmp_path, data=const_potential_data(32))
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert main(["inverse", "--input", str(p["data"]),
                         "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        d1 = (tmp_path / "r1.json").read_text()
        d2 = (tmp_path / "r2.json").read_text()
        assert d1.replace("r1.csv", "X") == d2.replace("r2.csv", "X")

    def test_emitted_files_reread(self, tmp_path):
        # every artifact is consumable by the matching reader
        p = write_inputs(tmp_path, sigma=linear_sigma(2.0))
        data_path = tmp_path / "data.json"
        assert main(["direct", "--input", str(p["sigma"]), "--output",
                     str(data_path), "--count", "8"]) == 0
        data = read_data_json(data_path)  # parses
        sigma_path = tmp_path / "rec.csv"
        assert main(["inverse", "--input", str(data_path), "--output",
                     str(sigma_path)]) == 0
        sigma = read_sigma_csv(sigma_path)
        assert sigma.M == 256
        assert data.K == 8
