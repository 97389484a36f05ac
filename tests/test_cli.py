import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from hclab import ToleranceConfig, centered_check, classify, shift_plus_rank_one
from hclab.cli import main
from hclab.matio import loads_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def pq_spec(tmp_path):
    path = tmp_path / "pq.json"
    path.write_text(json.dumps({
        "family": "projection_product",
        "P": [[0.5, -0.5], [-0.5, 0.5]],
        "Q": [[1, 0], [0, 0]],
    }))
    return str(path)


class TestZoo:
    def test_matrix_dump(self, capsys):
        code, out = run(capsys, "zoo", "--family", "weighted_shift",
                        "--weights", "1,2,3", "--n", "4", "--format", "text")
        assert code == 0
        m = loads_matrix(out)
        assert m.shape == (4, 4)
        assert m[1, 0] == 1 and m[2, 1] == 2 and m[3, 2] == 3

    def test_aq_dump_has_companion(self, capsys):
        code, out = run(capsys, "zoo", "--family", "aq", "--q", "0.5",
                        "--r", "5", "--n", "8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        companion = loads_matrix(doc["companion"])
        assert companion[0, 1] == 1.0 and companion[1, 2] == 0.5

    def test_projection_product_via_file(self, capsys, pq_spec):
        code, out = run(capsys, "zoo", "--file", pq_spec, "--format", "text")
        assert code == 0
        m = loads_matrix(out)
        np.testing.assert_allclose(m, [[0.5, 0.0], [-0.5, 0.0]])


class TestCheck:
    def test_pq_half_but_not_centered(self, capsys, pq_spec):
        code, out = run(capsys, "check", "--file", pq_spec)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"]["half_centered"] is True
        assert doc["verdict"]["centered"] is False
        assert doc["half_residual"] <= 1e-14

    def test_shift_centered(self, capsys):
        code, out = run(capsys, "check", "--family", "weighted_shift",
                        "--weights", ",".join(["1"] * 23), "--n", "24")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"]["centered"] is True


class TestClassify:
    def test_aq_four_term(self, capsys):
        code, out = run(capsys, "classify", "--family", "aq", "--q", "0.5",
                        "--r", "5", "--n", "48")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "four_term_relation"
        assert doc["closed_range"] is True
        assert abs(doc["relation"]["a"]) > 1e-5

    def test_weighted_shift_verdict(self, capsys):
        code, out = run(capsys, "classify", "--family", "weighted_shift",
                        "--weights", "1,2,3,1,2,3,1,2,3,1,2,3,1,2,3", "--n", "16")
        assert code == 0
        assert json.loads(out)["verdict"] == "centered_weighted_shift"

    def test_precondition_exit_code(self, capsys, pq_spec):
        code, _ = run(capsys, "classify", "--file", pq_spec)
        assert code == 2


class TestVerify:
    def test_rank_one_structure(self, capsys):
        code, out = run(capsys, "verify", "--family", "shift_plus_rank_one",
                        "--weights", ",".join(str(0.8 + 0.05 * k) for k in range(23)),
                        "--a", "0.3+0.4j", "--index", "2", "--n", "24",
                        "--depth", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["failures"] == {}


class TestContracts:
    def test_parse_error_exit_code(self, capsys):
        code, _ = run(capsys, "classify", "--family", "no_such_family")
        assert code == 1

    def test_numerical_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"family": "matrix", "matrix": "1 1 nan+0j"}))
        code, _ = run(capsys, "check", "--file", str(path))
        assert code == 3

    def test_inconclusive_exit_code(self, capsys, monkeypatch):
        # exit 4 is reserved for inconclusive verdicts; no zoo instance
        # produces one naturally, so drive the mapping directly
        class Stub:
            verdict = "inconclusive"
            relation = None
            reconstruction = None

            @staticmethod
            def as_dict():
                return {"verdict": "inconclusive"}

        monkeypatch.setattr("hclab.cli.classify", lambda model, cfg: Stub)
        code, _ = run(capsys, "classify", "--family", "weighted_shift",
                      "--weights", "1,1,1", "--n", "4")
        assert code == 4

    def test_deterministic_json(self, capsys):
        args = ("spectral", "--family", "shift_plus_rank_one",
                "--weights", ",".join(["0.7"] * 23), "--a", "1", "--index", "0",
                "--n", "24", "--seed", "7")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HCLAB_SEED", "123")
        code, out = run(capsys, "check", "--family", "weighted_shift",
                        "--weights", "1,1,1", "--n", "4", "--seed", "7")
        assert code == 0
        # the echoed config must reflect the environment override

    def test_env_seed_in_config(self, capsys, monkeypatch):
        monkeypatch.setenv("HCLAB_SEED", "123")
        _, out = run(capsys, "check", "--family", "weighted_shift",
                     "--weights", "1,1,1", "--n", "4", "--seed", "7")
        doc = json.loads(out)
        assert doc["config"]["tolerances"]["seed"] == 123

    def test_atomic_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run(capsys, "check", "--family", "weighted_shift",
                      "--weights", "1,1,1", "--n", "4", "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["verdict"]["half_centered"] is True
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".hclab-")]
        assert leftovers == []

    def test_depth_capped_and_echoed(self, capsys):
        _, out = run(capsys, "classify", "--family", "weighted_shift",
                     "--weights", "1,2,3", "--n", "4")
        doc = json.loads(out)
        assert doc["config"]["depth_requested"] == 6
        assert doc["config"]["tolerances"]["depth"] == 1

    @pytest.mark.parametrize("spec, field", [
        ({"family": "aq", "N": None, "q": 0.5}, "N"),
        ({"family": "aq", "N": 16, "q": [0.5]}, "q"),
        ({"family": "projection_product", "P": 5, "Q": 3}, "P"),
        ({"family": "matrix", "matrix": 5}, "matrix"),
        ({"family": "matrix", "matrix": "1 1 1", "exact": "false"}, "exact"),
        ({"family": "aq", "N": 3.7, "q": 0.5}, "N"),
        ({"family": "aq", "N": True, "q": 0.5}, "N"),
        ({"family": "shift_plus_rank_one", "N": 3, "weights": [1, 1], "a": 1, "n": 1.5}, "n"),
        ({"family": "shift_plus_rank_one", "N": 3, "weights": [1, 1], "a": 1, "n": False}, "n"),
        ({"family": "composition", "N": 3, "psi": [1.7, True, 0], "xi": [1, 1, 1]}, "psi"),
    ])
    def test_malformed_spec_field_is_a_parse_error(self, capsys, tmp_path, spec, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code = main(["check", "--file", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[SpecParseError]")
        assert f"field {field!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["zoo", "check", "decompose", "spectral", "classify",
                                         "verify"])
    def test_aq_without_dimension_is_a_value_error(self, capsys, tmp_path, command):
        path = tmp_path / "aq0.json"
        path.write_text(json.dumps({"family": "aq", "q": 0.5, "N": 0}))
        code = main([command, "--file", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[ValueError]: N must be at least 1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["zoo", "check", "decompose", "spectral", "classify",
                                         "verify"])
    @pytest.mark.parametrize("r", ["inf", "nan"])
    def test_aq_non_finite_r_is_a_value_error(self, capsys, tmp_path, command, r):
        path = tmp_path / "aq_r.json"
        path.write_text(json.dumps({"family": "aq", "q": 0.5, "r": r, "N": 8}))
        code = main([command, "--file", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[ValueError]: r must be finite")
        assert "Traceback" not in err

    def test_negative_seed_is_a_value_error(self, capsys, monkeypatch):
        argv = ["check", "--family", "weighted_shift", "--weights", "1,1,1", "--n", "4"]
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error[ValueError]: seed must be at least 0")
        monkeypatch.setenv("HCLAB_SEED", "-1")
        assert main(argv) == 1
        assert "seed must be at least 0" in capsys.readouterr().err

    def test_kernel_mass_loss_is_not_rounded_away(self, capsys):
        # at N = 4 the kernel of T* loses about 5e-8 of its mass to the
        # corrupted index, above the 1e-8 limit but invisible in 6 decimals
        code = main(["decompose", "--family", "aq", "--q", "0.5", "--r", "5", "--n", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(r"loses \d\.\de-\d\d of its mass outside the window \(limit 1e-08\)", err)
        assert "1.000000" not in err

    def test_library_and_cli_pick_the_same_depth(self, capsys):
        # hardy c = 0.5 at N = 12 supports depth (12 - 1) // 2 = 5, not the default 6
        model = shift_plus_rank_one([0.5] * 11, 1.0, 0, 12)
        cfg = ToleranceConfig()
        assert classify(model, cfg).verdict == "both"
        depth = centered_check(model, cfg).depth
        assert depth == 5
        code, out = run(capsys, "classify", "--family", "shift_plus_rank_one",
                        "--weights", ",".join(["0.5"] * 11), "--a", "1", "--n", "12")
        assert code == 0
        assert json.loads(out)["config"]["tolerances"]["depth"] == depth


def _readme_commands() -> list:
    """The ``hclab ...`` lines of the README's "Command line" block, with
    continuation lines joined, as argument lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("hclab ")]
    assert commands, "no hclab commands in the README's Command line block"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_run(capsys, monkeypatch, tmp_path, pq_spec, argv):
    monkeypatch.chdir(tmp_path)     # pq_spec wrote pq.json there
    assert main(argv) == 0, capsys.readouterr().err


_WEIGHTS = [str(0.8 + 0.03 * k) for k in range(15)]
_PSI = [str((2 * x + 1) % 16) for x in range(16)]
_XI = [str(1 + 0.1 * x) for x in range(16)]
_SPECS = {
    "weighted_shift": {"family": "weighted_shift", "weights": _WEIGHTS},
    "shift_plus_rank_one": {"family": "shift_plus_rank_one", "weights": _WEIGHTS,
                            "a": "0.3+0.4j", "n": 2},
    "composition": {"family": "composition", "psi": _PSI, "xi": _XI},
    "aq": {"family": "aq", "q": 0.5, "r": 5.0},
    "aq_default_r": {"family": "aq", "q": 0.6},
}
_FLAGS = {
    "weighted_shift": ["--family", "weighted_shift", "--weights", ",".join(_WEIGHTS)],
    "shift_plus_rank_one": ["--family", "shift_plus_rank_one", "--weights", ",".join(_WEIGHTS),
                            "--a", "0.3+0.4j", "--index", "2"],
    "composition": ["--family", "composition", "--psi", ",".join(_PSI), "--xi", ",".join(_XI)],
    "aq": ["--family", "aq", "--q", "0.5", "--r", "5"],
    "aq_default_r": ["--family", "aq", "--q", "0.6"],
    "projection_product": ["--family", "projection_product"],
    "matrix": ["--family", "matrix"],
    "no_family": [],
    "weighted_shift_without_weights": ["--family", "weighted_shift"],
    "shift_plus_rank_one_without_weights": ["--family", "shift_plus_rank_one", "--a", "1"],
    "shift_plus_rank_one_without_a": ["--family", "shift_plus_rank_one",
                                      "--weights", ",".join(_WEIGHTS)],
    "composition_without_psi": ["--family", "composition", "--xi", ",".join(_XI)],
    "composition_without_xi": ["--family", "composition", "--psi", ",".join(_PSI)],
    "aq_without_q": ["--family", "aq", "--r", "5"],
}


@pytest.mark.parametrize("cmd", ["classify", "zoo"])
@pytest.mark.parametrize("case", sorted(_FLAGS))
def test_flags_and_file_agree(capsys, tmp_path, cmd, case):
    """Flags go through the spec loader: the same report as ``--file``, and
    the loader's parse errors for families or fields the flags cannot give."""
    code = main([cmd, *_FLAGS[case], "--n", "16"])
    out, err = capsys.readouterr()
    if case not in _SPECS:
        assert code == 1
        assert err.startswith("error[SpecParseError]")
        return
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**_SPECS[case], "N": 16}))
    assert main([cmd, "--file", str(path)]) == code
    assert capsys.readouterr().out == out


# Small truncations whose chain defects fail to build (NotContained at N = 6
# and 8, WindowExhausted for a weighted shift at N = 2).  Commands that never
# read the defects report the next failed precondition, with the same exit.
def _aq(q, *r):
    return ["--family", "aq", "--q", q, *r]


_NEXT_PRECONDITION = [
    ("spectral", ["--family", "weighted_shift", "--weights", "0.9"], 2, "ModuliTooSmall"),
    ("spectral", _aq("0.3"), 6, "NotCommuting"),
    ("classify", _aq("0.3"), 6, "NotCommuting"),
    ("verify", _aq("0.5"), 6, "NotHalfCentered"),
    ("spectral", _aq("0.6"), 6, "NotCommuting"),
    ("verify", _aq("0.6"), 6, "NotHalfCentered"),
    ("spectral", _aq("0.66"), 6, "NotCommuting"),
    ("verify", _aq("0.66"), 6, "NotHalfCentered"),
    ("spectral", _aq("0.7"), 6, "NotCommuting"),
    ("verify", _aq("0.7"), 6, "NotHalfCentered"),
    ("spectral", _aq("0.6"), 8, "NotCommuting"),
    ("classify", _aq("0.6"), 8, "NotCommuting"),
    ("spectral", _aq("0.66"), 8, "NotCommuting"),
    ("verify", _aq("0.66"), 8, "NotHalfCentered"),
    ("spectral", _aq("0.7"), 8, "NotCommuting"),
    ("classify", _aq("0.7"), 8, "NotCommuting"),
    ("verify", _aq("0.5", "--r", "5"), 6, "NotHalfCentered"),
]


@pytest.mark.parametrize("cmd, flags, n, error", _NEXT_PRECONDITION,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_small_truncations_exit_on_the_next_precondition(capsys, cmd, flags, n, error):
    assert main([cmd, *flags, "--n", str(n)]) == 2
    assert capsys.readouterr().err.startswith(f"error[{error}]")


class TestFrontEnd:
    def test_one_parser_per_call(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        code, _ = run(capsys, "check", "--family", "weighted_shift",
                      "--weights", "1,1,1", "--n", "4")
        assert code == 0
        assert len(built) == 1

    def test_flags_before_the_command(self, capsys):
        weights = ",".join(_WEIGHTS)
        code, before = run(capsys, "--n", "16", "classify", "--family", "weighted_shift",
                           "--weights", weights)
        assert code == 0
        assert run(capsys, "classify", "--family", "weighted_shift", "--weights", weights,
                   "--n", "16") == (code, before)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", ["zoo", "check", "decompose", "spectral", "classify",
                                         "verify"])
    def test_out_file_holds_the_printed_bytes(self, capsys, tmp_path, command, fmt):
        argv = [command, *_FLAGS["shift_plus_rank_one"], "--n", "16", "--format", fmt]
        code, printed = run(capsys, *argv)
        target = tmp_path / "report"
        assert run(capsys, *argv, "--out", str(target)) == (code, "")
        assert target.read_bytes() == printed.encode("utf-8")

    # numpy's LinAlgError subclasses ValueError, the parse-error class; the
    # 1e200 weight overflows the grams into NaN before the SVD fails
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("command, flags", [
        (cmd, ["--family", "aq", "--q", "0.5", "--r", "1.123915264854093", "--n", "32"])
        for cmd in ("classify", "verify", "spectral")
    ] + [
        (cmd, ["--family", "weighted_shift", "--n", "16",
               "--weights", "1e200" + ",1" * 14])
        for cmd in ("classify", "verify")
    ], ids=lambda v: v if isinstance(v, str) else v[1])
    def test_linalg_error_is_a_numerical_failure(self, capsys, command, flags):
        assert main([command, *flags]) == 3
        assert capsys.readouterr().err.startswith("error[LinAlgError]")


def test_cli_grid_tool(capsys):
    """tools/cli_grid.py covers 684 runs, passes negative weights as
    ``--weights=...`` and hashes a run's output reproducibly."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_grid.py"
    spec = importlib.util.spec_from_file_location("cli_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    runs = list(grid.grid())
    assert len(runs) == len(set(runs)) == 684
    argv = ["check", *grid.family_args("ws", 6), "--n", "6", "--format", "json"]
    assert argv[3].startswith("--weights=-0.6,")
    first = grid.run(main, argv)
    assert first == grid.run(main, argv)
    assert first[0] == 0 and re.fullmatch(r"[0-9a-f]{64}", first[1])


def test_cli_grid_edge_cases(capsys):
    """tools/cli_grid.py turns argparse's exits into exit codes it can hash."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_grid.py"
    spec = importlib.util.spec_from_file_location("cli_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    codes = {name: grid.run(main, argv)[0] for name, argv in grid.EDGE_CASES}
    assert codes == {"no-command": 2, "unknown-command": 2, "unknown-flag": 2,
                     "format-xml": 2, "help": 0, "command-help": 0}
