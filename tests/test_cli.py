import argparse
import enum
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from hclab import (ToleranceConfig, centered_check, centered_criterion, chain_decomposition,
                   classify, enumerate_triples, real_gauge, shift_plus_rank_one,
                   structure_extract, weighted_shift)
import hclab.cli
from hclab.cli import main
from hclab.matio import dumps_matrix, loads_matrix
from hclab.operators import _jsonable


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
        monkeypatch.setattr("hclab.cli.classify", lambda model, cfg: {"verdict": "inconclusive"})
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

    def test_seed_environment_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("HCLAB_SEED", "123")
        code, out = run(capsys, "check", "--family", "weighted_shift",
                        "--weights", "1,1,1", "--n", "4", "--seed", "7")
        assert code == 0
        assert json.loads(out)["config"]["tolerances"]["seed"] == 7

    def test_atomic_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run(capsys, "check", "--family", "weighted_shift",
                      "--weights", "1,1,1", "--n", "4", "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["verdict"]["half_centered"] is True
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".hclab-")]
        assert leftovers == []

    def test_out_directory_is_refused_before_any_temporary_file(self, capsys, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        before = sorted(tmp_path.iterdir())
        code = main(["zoo", "--family", "weighted_shift", "--weights", "1,1,1", "--n", "4",
                     "--out", str(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error[IsADirectoryError]: [Errno ")
        assert err.endswith(f"] Is a directory: {str(target)!r}\n")
        assert ".hclab-" not in err
        assert sorted(tmp_path.iterdir()) == before and not any(target.iterdir())

    def test_symlinked_out_target_is_written_through(self, capsys, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("old\n")
        link.symlink_to(real.name)
        code, _ = run(capsys, "zoo", "--family", "weighted_shift", "--weights", "1,1,1",
                      "--n", "4", "--out", str(link))
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert "matrix" in json.loads(real.read_text())
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".hclab-")]

    @pytest.mark.parametrize("umask, existing, mode", [(0o022, None, 0o644),
                                                       (0o077, None, 0o600),
                                                       (0o022, 0o640, 0o640),
                                                       (0o077, 0o644, 0o644)],
                             ids=["new-022", "new-077", "0640-022", "0644-077"])
    def test_out_file_mode(self, capsys, tmp_path, umask, existing, mode):
        # a new report file gets 0o666 under the umask; an existing one keeps its mode
        target = tmp_path / "report.json"
        if existing is not None:
            target.write_text("old\n")
            target.chmod(existing)
        previous = os.umask(umask)
        try:
            code, _ = run(capsys, "check", "--family", "weighted_shift",
                          "--weights", "1,1,1", "--n", "4", "--out", str(target))
        finally:
            os.umask(previous)
        assert code == 0 and json.loads(target.read_text())["verdict"]["half_centered"]
        assert target.stat().st_mode & 0o777 == mode

    def test_depth_capped_and_echoed(self, capsys):
        _, out = run(capsys, "classify", "--family", "weighted_shift",
                     "--weights", "1,2,3", "--n", "4")
        doc = json.loads(out)
        assert doc["config"]["depth_requested"] == 6
        assert doc["config"]["tolerances"]["depth"] == 1

    @pytest.mark.parametrize("command, library", [
        ("classify", classify),
        ("check", lambda t, cfg: {**centered_check(t, cfg),
                                  "criterion": centered_criterion(t, cfg)}),
    ])
    def test_capped_depth_runs_the_parsed_config(self, capsys, command, library):
        """The stages cap the depth themselves, so the report is the library's
        on the parsed, uncapped config; the echo names the depth they used."""
        weights = [1.0, 1.5, 0.5, 2.0, 1.0, 1.25, 0.75]
        code, out = run(capsys, command, "--family", "weighted_shift", "--n", "8",
                        "--weights", ",".join(map(str, weights)), "--depth", "6")
        assert code == 0
        doc = json.loads(out)
        config = doc.pop("config")
        assert (config["tolerances"]["depth"], config["depth_requested"]) == (3, 6)
        expect = library(weighted_shift(weights, 8), ToleranceConfig())
        assert doc == json.loads(json.dumps(_jsonable(expect)))

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
        ({"family": "weighted_shift", "N": 4, "weights": [True, 1, 1]}, "weights"),
        ({"family": "shift_plus_rank_one", "N": 3, "weights": [1, 1], "a": True, "n": 1}, "a"),
        ({"family": "shift_plus_rank_one", "N": 3, "weights": [1, 1], "a": {"re": True},
          "n": 1}, "a"),
        ({"family": "composition", "N": 3, "psi": [1, 2, 0], "xi": [True, 1, 1]}, "xi"),
        ({"family": "aq", "N": 8, "q": True}, "q"),
        ({"family": "aq", "N": 8, "q": 0.5, "r": True}, "r"),
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

    @pytest.mark.parametrize("command", ["zoo", "check", "decompose", "spectral", "classify",
                                         "verify"])
    def test_empty_matrix_exhausts_the_window(self, capsys, tmp_path, command):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"family": "matrix", "matrix": "0 0"}))
        code = main([command, "--file", str(path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command == "zoo":
            assert code == 0
        else:
            assert code == 2 and err.startswith("error[WindowExhausted]")
        if command in ("decompose", "spectral"):
            # a one-dimensional shift has no window column either
            code = main([command, "--family", "weighted_shift", "--n", "1", "--weights="])
            err = capsys.readouterr().err
            assert code == 2 and err.startswith("error[WindowExhausted]")

    def test_negative_seed_is_a_value_error(self, capsys):
        argv = ["check", "--family", "weighted_shift", "--weights", "1,1,1", "--n", "4"]
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error[ValueError]: seed must be at least 0")

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
        assert classify(model, cfg)["verdict"] == "both"
        depth = centered_check(model, cfg)["depth"]
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
# r lies 1e-9 above -lambda_min(A_q): T has condition number about 1e20
_AQ_ILL_CONDITIONED = ["--family", "aq", "--q", "0.5", "--r", "1.123915264854093", "--n", "32"]
_AQ_ILL_OUTCOMES = [  # tolerance flags, command, exit code, start of stderr
    ([], "check", 0, ""),
    ([], "decompose", 0, ""),
    ([], "spectral", 0, ""),
    ([], "classify", 0, ""),
    ([], "verify", 2, "error[NotContained]: T X_1 leaks out of X_2 by "),
    (["--tol-comm", "1e-8"], "check", 0, ""),
    (["--tol-comm", "1e-8"], "decompose", 0, ""),
    (["--tol-comm", "1e-8"], "spectral", 0, ""),
    (["--tol-comm", "1e-8"], "classify", 0, ""),
    (["--tol-comm", "1e-8"], "verify", 2, "error[NotContained]: T X_1 leaks out of X_2 by "),
]


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


# Small truncations (a weighted shift at N = 2, aq at N = 6 and 8) and the
# precondition each command fails there.  The chain's defect dimensions are
# differences of range dimensions, which no truncation fails to build, so
# decompose and verify of the same aq models get further (the test after this).
def _aq(q, *r):
    return ["--family", "aq", "--q", q, *r]


_NEXT_PRECONDITION = [
    ("spectral", ["--family", "weighted_shift", "--weights", "0.9"], 2, "WindowExhausted"),
    ("spectral", _aq("0.3"), 6, "NotCommuting"),
    ("spectral", _aq("0.5"), 6, "NotHalfCentered"),
    ("classify", _aq("0.3"), 6, "NotCommuting"),
    ("verify", _aq("0.5"), 6, "NotHalfCentered"),
    ("spectral", _aq("0.6"), 6, "NotHalfCentered"),
    ("verify", _aq("0.6"), 6, "NotHalfCentered"),
    ("spectral", _aq("0.66"), 6, "NotHalfCentered"),
    ("verify", _aq("0.66"), 6, "NotHalfCentered"),
    ("spectral", _aq("0.7"), 6, "NotHalfCentered"),
    ("verify", _aq("0.7"), 6, "NotHalfCentered"),
    ("spectral", _aq("0.6"), 8, "NotCommuting"),
    ("classify", _aq("0.6"), 8, "NotCommuting"),
    ("spectral", _aq("0.66"), 8, "NotHalfCentered"),
    ("verify", _aq("0.66"), 8, "NotHalfCentered"),
    ("spectral", _aq("0.7"), 8, "NotCommuting"),
    ("classify", _aq("0.7"), 8, "NotCommuting"),
    ("verify", _aq("0.5", "--r", "5"), 6, "NotHalfCentered"),
    ("spectral", _aq("0.5", "--r", "5"), 6, "NotHalfCentered"),
]


@pytest.mark.parametrize("cmd, flags, n, error", _NEXT_PRECONDITION,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_small_truncations_exit_on_the_next_precondition(capsys, cmd, flags, n, error):
    assert main([cmd, *flags, "--n", str(n)]) == 2
    assert capsys.readouterr().err.startswith(f"error[{error}]")


@pytest.mark.parametrize("cmd, flags, n, code", [
    ("decompose", _aq("0.3"), 6, 0),
    ("decompose", _aq("0.7"), 6, 0),
    ("decompose", _aq("0.5", "--r", "5"), 6, 0),
    ("decompose", _aq("0.7"), 8, 0),
    ("verify", _aq("0.3"), 6, 4),
    ("verify", _aq("0.7"), 8, 4),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_small_truncations_report_the_defect_dims(capsys, cmd, flags, n, code):
    assert main([cmd, *flags, "--n", str(n)]) == code
    doc = json.loads(capsys.readouterr().out)
    report = doc if cmd == "decompose" else doc["structure"]
    assert len(report["dims"]["defects"]) == report["depth"]


def test_chain_leak_raises_not_contained(capsys):
    """T X_{k-1} leaving X_k beyond CONTAINMENT_TOL stays a precondition error
    of the structural suite: verify exits 2, decompose skips the structure."""
    flags = [*_aq("0.5", "--r", "5"), "--n", "64"]
    leak = r"T X_1 leaks out of X_2 by \d\.\d{3}e-\d\d \(limit 6\.5e-08\)"
    assert main(["verify", *flags]) == 2
    assert re.fullmatch(rf"error\[NotContained\]: {leak}\n", capsys.readouterr().err)
    assert main(["decompose", *flags]) == 0
    skipped = json.loads(capsys.readouterr().out)["structure_skipped"]
    assert re.fullmatch(f"NotContained: {leak}", skipped)


class TestFrontEnd:
    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        hclab.cli._parser.cache_clear()
        for _ in range(2):
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

    # numpy's LinAlgError subclasses ValueError, the parse-error class
    def test_linalg_error_is_a_numerical_failure(self, capsys, monkeypatch):
        def failing(model, cfg):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(hclab.cli, "cmd_spectral", failing)
        assert main(["spectral", *_FLAGS["shift_plus_rank_one"], "--n", "16"]) == 3
        assert capsys.readouterr().err == "error[LinAlgError]: Matrix is not positive definite\n"

    # the aq input (condition number about 1e20) passes the half-centered gate
    # (residual 1.4e-12), and its gram families on M_E are PSD products C* C,
    # so the joint spectra pass at either tolerance; at either the chain leaks
    # out of X_2; no command ends in a numerical failure (exit 3)
    @pytest.mark.parametrize("tol, command, code, error", _AQ_ILL_OUTCOMES)
    def test_ill_conditioned_aq_outcomes(self, capsys, tol, command, code, error):
        assert main([command, *_AQ_ILL_CONDITIONED, *tol]) == code != 3
        out, err = capsys.readouterr()
        assert err.startswith(error) if error else err == ""
        if command == "check":
            assert json.loads(out)["verdict"]["half_centered"] is True
        if command == "classify" and code == 0:
            assert json.loads(out)["verdict"] == "four_term_relation"

    # the half-centered gate and the joint spectra pass at both tolerances, so
    # the reports agree once the config echo is dropped
    @pytest.mark.parametrize("command", ["spectral", "classify"])
    def test_ill_conditioned_aq_reports_agree_at_both_tolerances(self, capsys, command):
        reports = []
        for tol in ([], ["--tol-comm", "1e-8"]):
            assert main([command, *_AQ_ILL_CONDITIONED, *tol]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["config"]
            reports.append(report)
        assert reports[0] == reports[1]

    # T^k of the scaled shift plus rank one grows like 5^k; its closure once
    # failed a Cholesky, and now fills the space
    def test_scaled_shift_plus_rank_one_classifies(self, capsys):
        weights = 5 * np.random.default_rng(3).uniform(0.6, 1.4, 31)
        code = main(["classify", "--family", "shift_plus_rank_one",
                     "--weights=" + ",".join(map(repr, weights.tolist())),
                     "--a", "1.5+2j", "--index", "2", "--n", "32"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "shift_plus_rank_one" and doc["condition_II_ok"]

    # a weighted shift whose gram images reach 4e37 at N = 15: a seed cut on
    # the unit scale kept the roundoff of E off e_0 as spurious directions of
    # M_E, and the frame failed its orthonormality check (a ValueError, exit 1)
    @pytest.mark.parametrize("c", [1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0])
    def test_large_weighted_shift_has_the_kernel_line_as_moduli(self, capsys, c):
        weights = (-1021.31, -735.229, 2586.97, -210.095, 1415.61, 1950.04, 611.848,
                   -1399.54, 1058.82, 2594.01, 199.076, 229.262, 1437.86, -2138.27)
        argv = ["--family", "weighted_shift", "--n", "15",
                "--weights=" + ",".join(repr(c * w) for w in weights)]
        codes, reports = {}, {}
        for command in ("decompose", "spectral", "classify", "verify"):
            codes[command] = main([command, *argv])
            out, err = capsys.readouterr()
            if command == "spectral":
                assert err.startswith("error[ModuliTooSmall]: ")
            elif command != "verify":
                reports[command] = json.loads(out)
        assert codes["decompose"] == codes["classify"] == 0 and codes["spectral"] == 2
        assert 1 not in codes.values()
        chain, verdict = reports["decompose"], reports["classify"]
        assert (chain["dims"]["M_E"], chain["moduli_status"]) == (1, "stable")
        assert (verdict["verdict"], verdict["dim_M_E"], verdict["moduli_status"]) == (
            "centered_weighted_shift", 1, "stable")

    # verify gates on half-centeredness before it builds anything of the chain
    def test_verify_stops_at_the_half_centered_gate(self, capsys, monkeypatch):
        import hclab.chains

        closures = []
        monkeypatch.setattr(hclab.chains, "_moduli_on_block",
                            lambda *args: closures.append(args))
        gaussian = np.random.default_rng(0).standard_normal((6, 6))
        spec = json.dumps({"family": "matrix", "matrix": dumps_matrix(gaussian)})
        assert main(["verify", "--file", spec]) == 2
        assert capsys.readouterr().err == (
            "error[NotHalfCentered]: half-centered residual 5.335e-01 exceeds tolerance\n")
        assert closures == []

    # the 1e200 weight overflows T*T; no NaN may reach an SVD
    @pytest.mark.parametrize("command", ["check", "classify", "verify", "spectral"])
    def test_gram_overflow_is_non_finite(self, capsys, command):
        code = main([command, "--family", "weighted_shift", "--n", "16",
                     "--weights", "1e200" + ",1" * 14])
        assert code == 3
        assert capsys.readouterr().err.startswith("error[NonFinite]: T*^1 T^1 overflows")

    # the injectivity cut is relative: sigma_min 1 lies below rank_tol * ||T||_2;
    # the 1e150 weight keeps the grams finite, so spectral passes its gate
    @pytest.mark.parametrize("command", ["decompose", "spectral"])
    def test_injectivity_failure_names_sigma_min_and_cutoff(self, capsys, command):
        code = main([command, "--family", "weighted_shift", "--n", "16",
                     "--weights", "1e150" + ",1" * 14])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[NotInjectiveOnWindow]: sigma_min 1.000e+00 ")
        assert "cutoff 1.000e+140 (rank_tol * ||T||_2)" in err


def _old_writer(obj) -> str:
    """The expression the report writer replaces, and whose bytes it must give."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


def _load_cli_grid():
    """The module of ``tools/cli_grid.py``."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_grid.py"
    spec = importlib.util.spec_from_file_location("cli_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return grid


class _Opaque:
    pass


class _Int(enum.IntEnum):
    THREE = 3


class _Str(str):
    pass


class _Float(float):
    pass


_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308]
_WRITER_EDGES = {
    **{f"float {x!r}": x for x in _FLOATS},
    "mixed floats": [1.5, *_FLOATS, 2.0, 0.1],
    "floats and ints": [1, 2.0, float("nan"), -3],
    "scalars": [True, False, None, 0, 1, 1.0, "s"],
    "bool": True, "None": None, "int": 12, "str": "plain",
    "np.bool_": np.bool_(True), "np.int64": np.int64(-5), "np.float32": np.float32(0.1),
    "np.float64": np.float64(0.1), "np scalars in a list": [np.int64(1), np.float64(0.5)],
    "0-d array": np.array(2.5), "1-d array": np.array([1.0, -0.0, np.inf]),
    "2-d array": np.array([[1, 2], [3, 4]]), "complex array": np.array([1 + 2j, -0.0j]),
    "tuple": (1, (2.0, "x")), "complex": complex(0.5, -1e-300),
    "np.complex128": np.complex128(1 - 1j), "complex list": [1j, 2 + 0j],
    "empty dict": {}, "empty list": [], "empty tuple": (),
    "nested empties": {"a": {}, "b": [[], {}, [{}]], "c": [[[]]]},
    "records": [{"m": 1, "x": 0.5, "s": "a", "b": True}, {"m": 2, "x": float("nan"),
                                                          "s": "é", "b": None}],
    "records with differing keys": [{"a": 1, "b": 2}, {"a": 1}, {"c": 3.0}],
    "records holding lists": [{"a": [1.0]}, {"a": [2.0, 3.0]}],
    "records of empties": [{}, {}],
    "records of np scalars": [{"a": np.float64(1.5)}, {"a": np.int64(2)}],
    "records with % and brace keys": [{"%s": 1.0, "%%": 2, "{x}": 0},
                                      {"%s": 3.0, "%%": 4, "{x}": 1}],
    "int key colliding with str key": {1: "int first", "1": "str last", 2.5: 0},
    "str key colliding with int key": {"1": "str first", 1: "int last"},
    "None and bool keys": {None: 1, True: 2, False: [3]},
    "int keys in records": [{1: 1.0}, {1: 2.0}],
    "strings": ["é ü 漢 \U0001f600", 'quote " backslash \\ slash /', "ctl \x00\x1f\t\n\r"],
    "odd keys": {"é": 1, '"': 2, "\n": 3, "": 4},
    "deep": {"a": [{"b": [{"c": {"d": [1, [2, [3.0, {"e": None}]]]}}]}]},
    "subclasses": [_Int.THREE, _Str("é"), _Float("nan"), np.str_("s"), {_Str("k"): _Int.THREE}],
    "subclasses in records": [{"a": _Float(0.5), "b": _Int.THREE}, {"a": 1.0, "b": 4}],
}


class TestJsonWriter:
    """``cli._json_text`` writes ``json.dumps(_jsonable(x), sort_keys=True,
    indent=2)`` byte for byte."""

    @pytest.mark.parametrize("name", sorted(_WRITER_EDGES))
    def test_edge_corpus(self, name):
        obj = _WRITER_EDGES[name]
        assert hclab.cli._json_text(obj) == _old_writer(obj)

    @pytest.mark.parametrize("obj", [_Opaque(), [1.0, _Opaque()], {"a": {"b": b"bytes"}},
                                     [{"a": 1j}, {"a": {1, 2}}], np.complex64(1 + 1j),
                                     np.datetime64("2020-01-01")],
                             ids=["object", "in a list", "bytes", "set in records",
                                  "np.complex64", "np.datetime64"])
    def test_unsupported_object_raises_as_json_does(self, obj):
        with pytest.raises(TypeError) as expected:
            _old_writer(obj)
        with pytest.raises(TypeError) as got:
            hclab.cli._json_text(obj)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("command", ["zoo", "check", "decompose", "spectral", "classify",
                                         "verify"])
    @pytest.mark.parametrize("family", ["ws", "sro", "hardy", "aq0.3", "aq0.5r5", "aq0.7"])
    def test_reports_of_the_cli_grid(self, capsys, monkeypatch, family, command):
        self.assert_printed_as_before(capsys, monkeypatch, [
            command, *_load_cli_grid().family_args(family, 16), "--n", "16"])

    def test_largest_aq_spectral_report(self, capsys, monkeypatch, tmp_path):
        argv = ["spectral", "--family", "aq", "--q", "0.7", "--n", "64"]
        printed = self.assert_printed_as_before(capsys, monkeypatch, argv)
        assert printed.count('"lambda"') > 1000
        target = tmp_path / "report.json"
        assert run(capsys, *argv, "--out", str(target)) == (0, "")
        assert target.read_bytes() == printed.encode("utf-8")

    @staticmethod
    def assert_printed_as_before(capsys, monkeypatch, argv) -> str:
        """Run ``main(argv)``; the JSON it prints is the old writer's text of
        the report it emitted."""
        emitted = []
        emit_report = hclab.cli._emit_report

        def recording(report, args):
            emitted.append(report)
            emit_report(report, args)

        monkeypatch.setattr(hclab.cli, "_emit_report", recording)
        code, out = run(capsys, *argv)
        if not emitted:  # a failed precondition (ws has no spectral): no report
            assert (code, out) == (2, "")
            return out
        [report] = emitted
        assert out == _old_writer(report) + "\n"
        return out


@pytest.mark.parametrize("family", ["sro", "aq0.5r5"])
def test_spectral_triples_are_the_enumerated_rows(capsys, family):
    # the report writes enumerate_triples' rows of the gauged model as they are
    argv = ["spectral", *_load_cli_grid().family_args(family, 32), "--n", "32"]
    code, out = run(capsys, *argv)
    args = hclab.cli._parser().parse_args(argv)
    chain = chain_decomposition(real_gauge(hclab.cli.build_model(args)),
                                hclab.cli.build_config(args))
    rows = enumerate_triples(chain, structure_extract(chain))
    reported = json.loads(out)["triples"]
    assert code == 0
    assert len(reported) == len(rows) and (len(rows) == 1 if family == "sro" else len(rows) > 1)
    for got, row in zip(reported, rows):
        assert set(got) == set(row) == {"gamma", "lambda", "m", "residual"}
        assert got == row


@pytest.mark.parametrize("family", ["sro", "aq0.5r5"])
@pytest.mark.parametrize("command, stage", [
    ("check", lambda t, cfg: {**centered_check(t, cfg), "criterion": centered_criterion(t, cfg)}),
    ("classify", classify),
], ids=["check", "classify"])
def test_reports_are_the_stage_rows(capsys, family, command, stage):
    # the report is the stage's row of the gauged model, written as it is
    argv = [command, *_load_cli_grid().family_args(family, 32), "--n", "32"]
    code, out = run(capsys, *argv)
    args = hclab.cli._parser().parse_args(argv)
    row = stage(real_gauge(hclab.cli.build_model(args)), hclab.cli.build_config(args))
    report = json.loads(out)
    del report["config"]
    assert code == 0
    assert report == json.loads(hclab.cli._json_text(row))


def test_cli_grid_tool(capsys):
    """tools/cli_grid.py covers 684 runs and 10 runs of the ill-conditioned aq
    input, passes negative weights as ``--weights=...`` and hashes a run's
    output reproducibly."""
    grid = _load_cli_grid()
    runs = list(grid.grid())
    assert len(runs) == len(set(runs)) == 684
    argv = ["check", *grid.family_args("ws", 6), "--n", "6", "--format", "json"]
    assert argv[3].startswith("--weights=-0.6,")
    first = grid.run(main, argv)
    assert first == grid.run(main, argv)
    assert first[0] == 0 and re.fullmatch(r"[0-9a-f]{64}", first[1])
    # the ill block runs the commands whose outcomes test_ill_conditioned_aq_outcomes pins
    assert [argv for _, argv in grid.ILL_CASES] == [
        [command, *_AQ_ILL_CONDITIONED, *tol] for tol, command, _, _ in _AQ_ILL_OUTCOMES]
    assert len({name for name, _ in grid.ILL_CASES}) == 10


def test_invariance_grid_tool(monkeypatch):
    """tools/invariance_grid.py summarizes the 300 json runs of cli_grid.py's
    grid other than zoo, on T, on D T D*, on U T U*, on 0.1 T and on 10 T,
    with no residual in a summary."""
    import hclab.cli
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import invariance_grid
    runs = list(invariance_grid.runs())
    assert len(runs) == len(set(runs)) == 300
    assert {command for _, _, command in runs} == {"check", "decompose", "spectral",
                                                   "classify", "verify"}

    def summarize(command, family="hardy", n=16):
        argv = [command, *invariance_grid.cli_grid.family_args(family, n), "--n", str(n),
                "--format", "json"]
        code, out, err, _ = invariance_grid.cli_grid.capture(main, argv)
        return invariance_grid.summary(code, out, err)

    def summaries():
        table = {command: summarize(command) for command in ("classify", "verify", "decompose")}
        # ws verify: the tower residuals read the certified corner on the
        # scale of the whole factor, so the deep levels, whose corner holds
        # none of T^n, pass in every basis; only fukth fails, at N = 8 and 16
        table.update({f"ws verify {n}": summarize("verify", "ws", n) for n in (6, 8, 12, 16)})
        return table

    plain = summaries()
    ws = "verdict={} dim_E=1 dim_M_E=1 V=[{}] failures=[{}]"
    assert plain == {
        "classify": '0 verdict="both" dim_E=1 dim_M_E=2 moduli_status="stable" triples=1 '
                    'condition_II_ok=true',
        "verify": '4 verdict=false dim_E=1 dim_M_E=2 V=[2,1,1,1,1,1,1] failures=["fukth"]',
        "decompose": '0 dim_E=1 dim_M_E=2 moduli_status="stable" V=[2,1,1,1,1,1,1]',
        "ws verify 6": "0 " + ws.format("true", "1,1,1", ""),
        "ws verify 8": "4 " + ws.format("false", "1,1,1,1", '"fukth"'),
        "ws verify 12": "0 " + ws.format("true", "1,1,1,1,1", ""),
        "ws verify 16": "4 " + ws.format("false", "1,1,1,1,1,1,1", '"fukth"'),
    }
    build = hclab.cli.build_model
    for rotated in (invariance_grid.phase_conjugated, invariance_grid.unitary_conjugated,
                    lambda cli: invariance_grid.scaled(cli, 0.1)):
        monkeypatch.setattr(hclab.cli, "build_model", rotated(hclab.cli))
        assert summaries() == plain
        monkeypatch.setattr(hclab.cli, "build_model", build)
    # at 10 T the ws summaries hold; hardy's classify is the xfail below
    monkeypatch.setattr(hclab.cli, "build_model", invariance_grid.scaled(hclab.cli, 10.0))
    ws_lines = {key: line for key, line in plain.items() if key.startswith("ws ")}
    assert {key: line for key, line in summaries().items() if key in ws_lines} == ws_lines
    monkeypatch.setattr(hclab.cli, "build_model", build)
    assert invariance_grid.summary(2, "", "error[ModuliTooSmall]: dim M_E = 1 < 2") == (
        "2 error=ModuliTooSmall")
    assert invariance_grid.main([]) == 2


@pytest.mark.xfail(strict=True, reason="hardy classify at 10 T reads four_term_relation "
                                        "with 0 triples, where T reads both with 1")
def test_hardy_classify_is_scale_invariant(monkeypatch):
    """c T has the answers of T; hardy (c = 0.5) at N = 16 scaled by 10 loses its
    triple, so classify reads a four-term relation alone."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import invariance_grid
    argv = ["classify", *invariance_grid.cli_grid.family_args("hardy", 16), "--n", "16",
            "--format", "json"]
    plain = invariance_grid.cli_grid.capture(main, argv)
    monkeypatch.setattr(hclab.cli, "build_model", invariance_grid.scaled(hclab.cli, 10.0))
    scaled = invariance_grid.cli_grid.capture(main, argv)
    assert invariance_grid.summary(*scaled[:3]) == invariance_grid.summary(*plain[:3])


def test_fuzz_grid_tool(monkeypatch):
    """tools/fuzz_grid.py draws valid specs and runs five commands on each: a
    200-run seeded sweep at N <= 24 ends every run inside the exit contract,
    and a run whose command raises, or exits 1 on a valid spec, is marked."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import fuzz_grid
    lines = []
    assert fuzz_grid.fuzz(main, 2026, 40, max_n=24, write=lines.append) == (0, 200)
    assert lines[-1] == "outside contract 0 of 200" and len(lines) == 201
    for line in lines[:-1]:
        assert re.fullmatch(r"fuzz \d+ (ws|sro|aq|hardy) \d+ [a-z]+ [0234] [0-9a-f]{64}", line)
    assert {line.split()[2] for line in lines[:-1]} == set(fuzz_grid.FAMILIES)
    assert max(int(line.split()[3]) for line in lines[:-1]) <= 24

    def raising(model, cfg):
        raise RuntimeError("escaped")

    def usage(model, cfg):
        raise ValueError("a usage error on a valid spec")

    for patch, reason in ((raising, "raised-RuntimeError"), (usage, "exit1-ValueError")):
        monkeypatch.setattr(hclab.cli, "cmd_classify", patch)
        lines.clear()
        assert fuzz_grid.fuzz(main, 2026, 2, max_n=24, write=lines.append) == (2, 10)
        marked = [line for line in lines if " outside " in line]
        assert len(marked) == 2 and all(" classify " in line for line in marked)
        assert all(line.endswith(f" outside {reason}") for line in marked)
    assert fuzz_grid.outside(3, "Traceback (most recent call last):") == "unnamed-exit3"
    assert fuzz_grid.outside(3, "error[NonFinite]: gram power overflows") is None


def test_report_diff_tool(monkeypatch, capsys):
    """tools/report_diff.py reads the json runs of cli_grid.py's grid and says
    how two outputs differ: exit codes, fields other than floats, and the
    count and largest differences of the floats, with the path of the
    largest absolute one."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import report_diff
    runs = list(report_diff.runs())
    assert len(runs) == len(set(runs)) == 360
    a = json.dumps({"verdict": "both", "dims": {"E": 1, "V": [2, 1]}, "pairs": [
        {"residual": 0.0}, {"residual": 2e-17}], "status": "stable"})
    b = json.dumps({"verdict": "both", "dims": {"E": 1, "V": [2, 2]}, "pairs": [
        {"residual": 1e-17}, {"residual": 3e-17}], "extra": None, "status": "stable"})
    assert report_diff.describe((0, a, "", ""), (0, a, "", "")) is None
    assert report_diff.describe((0, a, "", ""), (4, b, "", "")) == (
        "exit 0->4 fields=dims.V[],extra numbers=2 max_abs=1.00e-17 max_rel=1.00e+00 "
        "at=pairs[].residual")
    assert report_diff.describe((2, "", "error[X]: a", ""), (2, "", "error[X]: b", "")) == (
        "exit 2 fields=stderr numbers=0 max_abs=0.00e+00 max_rel=0.00e+00 at=-")
    assert report_diff.main(["only-one"]) == 2
    # the summary lines, on canned outputs: one run changes its exit code, one
    # its stderr only, and one only floats
    c = json.dumps({"verdict": "both", "dims": {"E": 1, "V": [2, 1]}, "pairs": [
        {"residual": 0.0}, {"residual": 2.5e-17}], "status": "stable"})
    rest = [(0, a, "", "")] * (len(runs) - 3)
    canned = {"A": [(0, a, "", ""), (2, "", "error[X]: a", ""), (0, a, "", "")] + rest,
              "B": [(4, b, "", ""), (2, "", "error[X]: b", ""), (0, c, "", "")] + rest}
    monkeypatch.setattr(report_diff, "outputs", canned.__getitem__)
    capsys.readouterr()
    assert report_diff.main(["A", "B"]) == 0
    first, third = (" ".join(map(str, run)) for run in (runs[0], runs[2]))
    assert capsys.readouterr().out.splitlines()[-5:] == [
        "differ 3 of 360", "exit changed 1 of 360",
        f"max_abs 1.00e-17 at {first} pairs[].residual", "fields changed 2 of 360",
        f"max_abs floats-only 5.00e-18 at {third} pairs[].residual"]


@pytest.mark.parametrize("b, line", [
    # a moved float, and where it is
    ({"dims": {"E": 1}, "tau": [1.0, 0.5 + 2e-15], "verdict": "both"},
     "exit 0 fields=- numbers=1 max_abs=2.00e-15 max_rel=4.00e-15 at=tau[]"),
    # a changed field that is not a float: an int pair is a field
    ({"dims": {"E": 2}, "tau": [1.0, 0.5], "verdict": "both"},
     "exit 0 fields=dims.E numbers=0 max_abs=0.00e+00 max_rel=0.00e+00 at=-"),
    # a key on one side only, and a verdict that changed
    ({"dims": {"E": 1}, "tau": [1.0, 0.5], "verdict": "none", "extra": None},
     "exit 0 fields=extra,verdict numbers=0 max_abs=0.00e+00 max_rel=0.00e+00 at=-"),
])
def test_report_diff_describe(monkeypatch, b, line):
    """report_diff.describe on hand-built report pairs, one kind of change at
    a time, without running the grid."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import report_diff
    a = json.dumps({"dims": {"E": 1}, "tau": [1.0, 0.5], "verdict": "both"})
    assert report_diff.describe((0, a, "", ""), (0, json.dumps(b), "", "")) == line
    assert report_diff.difference((0, a, "", ""), (0, a, "", "")) is None


def test_cli_grid_edge_cases(capsys):
    """tools/cli_grid.py turns argparse's exits into exit codes it can hash."""
    grid = _load_cli_grid()
    codes = {name: grid.run(main, argv)[0] for name, argv in grid.EDGE_CASES}
    assert codes == {"no-command": 1, "unknown-command": 1, "unknown-flag": 1,
                     "format-xml": 1, "help": 0, "command-help": 0}
    # main returns these codes; it does not raise SystemExit
    for name, argv in grid.EDGE_CASES:
        assert main(argv) == codes[name]


def test_cli_grid_readme_commands(capsys, pq_spec):
    """tools/cli_grid.py runs the README's commands, with pq.json given as
    the JSON text of the same spec; each exits 0."""
    grid = _load_cli_grid()
    assert json.loads(grid.PQ_SPEC) == json.loads(Path(pq_spec).read_text())
    inline = [[grid.PQ_SPEC if arg == "pq.json" else arg for arg in argv]
              for argv in _readme_commands()]
    assert [argv for _, argv in grid.README_COMMANDS] == inline
    assert [name for name, _ in grid.README_COMMANDS] == [argv[0] for argv in inline]
    assert [grid.run(main, argv)[0] for _, argv in grid.README_COMMANDS] == [0] * 6


def test_bench_pairs_tool(monkeypatch, capsys):
    """tools/bench_pairs.py alternates which checkout runs first in each pair
    and summarizes the runs' result lines: quartiles per side, the pairs the
    change wins in each metric's declared direction, ties, and the
    attempted/failed counts; here on canned perfbench output."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import bench_pairs
    ops = {"P": [20.0, 21.0, 22.0, 23.0], "C": [22.0, 21.0, 25.0, 22.0]}
    p50 = {"P": [10.0] * 4, "C": [9.0, 11.0, 9.0, 9.0]}
    calls = []

    def canned(root, workload, seed, trace):
        calls.append((root, workload, seed, trace))
        i = seed - 101
        result = {"correct": True, "attempted": 24, "failed": i % 2 if root == "C" else 0,
                  "metrics": {"ops_per_s": {"value": ops[root][i], "unit": "1/s"},
                              "latency_p50_ms": {"value": p50[root][i], "unit": "ms"},
                              "undeclared": {"value": 1.0, "unit": "count"}}}
        record = {"workload": workload, "seed": seed, "src_sha256": root * 64}
        return (f"run record: {json.dumps(record)}\nops_per_s = {ops[root][i]} 1/s\n"
                f"{json.dumps(result)}\n")

    monkeypatch.setattr(bench_pairs, "run_perfbench", canned)
    assert bench_pairs.main(["P", "C", "--workload", "classify_large", "--seeds", "101-104"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [root for root, *_ in calls] == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert {call[1:] for call in calls} == {("classify_large", s, 0) for s in range(101, 105)}
    runs = out["runs"]
    assert [run["order"] for run in runs] == list(range(8))
    assert [(run["seed"], run["side"], run["src_sha256"][:2]) for run in runs[:3]] == [
        (101, "parent", "PP"), (101, "change", "CC"), (102, "change", "CC")]
    assert out["summary"] == {"classify_large": {
        "pairs": 4, "seeds": [101, 102, 103, 104],
        "ops_per_s": {"unit": "1/s", "parent_q1_median_q3": [20.75, 21.5, 22.25],
                      "change_q1_median_q3": [21.75, 22.0, 22.75],
                      "change_wins": 2, "ties": 1},
        "latency_p50_ms": {"unit": "ms", "parent_q1_median_q3": [10.0, 10.0, 10.0],
                           "change_q1_median_q3": [9.0, 9.0, 9.5],
                           "change_wins": 3, "ties": 0},
        "attempted_failed": {"parent": [[24, 0]], "change": [[24, 0], [24, 1]]},
    }}
    assert bench_pairs.seed_range("7") == [7]


def test_ab_ops_tool(monkeypatch, capsys):
    """tools/ab_ops.py imports two hclab packages into one process and times
    each operation of a workload on both, alternating which side runs first;
    here one round of classify_small with one package on both sides."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "tools"))
    import ab_ops
    order = []
    call = ab_ops.call

    def recording(cli, op):
        order.append(cli.__name__)
        return call(cli, op)

    monkeypatch.setattr(ab_ops, "call", recording)
    src = str(root / "src")
    assert ab_ops.main([src, src, "--workload", "classify_small", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 17 and lines[-1] == "identical 16 of 16"
    assert re.fullmatch(r"classify weighted_shift N=16  A \d+\.\d{3}  B \d+\.\d{3}  "
                        r"B/A \d+\.\d{3}  \(1\)", lines[0])
    timed = order[-32:]   # after the warm-up
    assert timed[:4] == ["hclab_a.cli", "hclab_b.cli", "hclab_b.cli", "hclab_a.cli"]
